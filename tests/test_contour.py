import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest

from cxho import contour
from cxho.contour import (
    ContourPath,
    contour_integrate,
    delta_domain_ok,
    delta_eval,
    delta_scale_ok,
    rotated_path,
    smear,
)
from cxho.errors import (
    AngleTooSteepError,
    DeltaUnderflowWarning,
    InvalidPathError,
    NonFiniteSampleError,
)
from cxho.params import validate
from cxho.wavefunctions import cross_gram, gram_and_metric

PI = math.pi
SQRT_PI = math.sqrt(PI)


class TestDeltaEval:
    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be nonzero"):
            delta_eval(0.0, 0.0)

    def test_peak_value(self):
        # sqrt(1/(4 pi eps)) at eps = 0.01
        assert delta_eval(0.0, 0.01) == pytest.approx(
            math.sqrt(1 / (0.04 * PI)), rel=1e-12)
        assert delta_eval(0.0, 0.01) == pytest.approx(2.820948, rel=1e-6)

    def test_far_tail_underflows_to_zero_with_warning(self):
        with pytest.warns(DeltaUnderflowWarning):
            val = delta_eval(10.0, 0.01)
        assert val == 0.0

    def test_magnitude_below_peak_inside_domain(self):
        # L(q) > 0 means Re(q^2) > 0, so |delta(q)| stays below the peak
        q, eps = 1 + 0.5j, 0.01
        assert delta_domain_ok(q)
        assert abs(delta_eval(q, eps)) < abs(delta_eval(0.0, eps))
        direct = math.sqrt(1 / (4 * PI * eps)) * np.exp(-q * q / (4 * eps))
        assert delta_eval(q, eps) == pytest.approx(direct, rel=1e-12)

    def test_vectorized(self):
        q = np.array([0.0, 0.3, 0.3 + 0.1j])
        vals = delta_eval(q, 0.05)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(delta_eval(0.0, 0.05))

    def test_overflow_reported_as_infinity(self):
        # far outside the domain the Gaussian grows; report inf, never NaN
        val = delta_eval(100j, 1e-4)
        assert np.isinf(abs(val))
        assert not np.isnan(val.real) and not np.isnan(val.imag)

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            delta_eval(1.0, 0.0)


class TestDeltaDomain:
    def test_boundary_straddling_sample(self):
        assert delta_domain_ok(1 + 0.5j)
        assert not delta_domain_ok(0.5 + 1j)
        assert not delta_domain_ok(1 + 1j)  # boundary is excluded
        assert delta_domain_ok(-2 + 1.5j)
        assert not delta_domain_ok(1j)


class TestDeltaScale:
    def test_identity_scaling(self):
        ok, residual = delta_scale_ok(1.0, 0.7, 0.01)
        assert ok and residual == 0.0

    def test_negative_real_scale(self):
        ok, residual = delta_scale_ok(-2.0, 0.5, 0.01)
        assert ok
        assert residual < 1e-14

    def test_rotated_argument_outside_windows(self):
        ok, _ = delta_scale_ok(2.0, 1j, 0.01)
        assert not ok

    def test_purely_imaginary_scale_rejected(self):
        with pytest.raises(ValueError):
            delta_scale_ok(1j, 1.0, 0.01)

    def test_residual_small_inside_windows(self):
        # random scales and window-interior arguments, real positive eps
        rng = np.random.default_rng(1)
        for _ in range(200):
            theta_a = rng.uniform(-1.4, 1.4)
            r_a = rng.uniform(0.3, 2.0)
            a = r_a * np.exp(1j * theta_a)
            if abs(a.real) < 1e-3:
                continue
            eps = rng.uniform(0.005, 0.1)
            # center of the principal window is -theta_a for real eps
            theta_q = -theta_a + rng.uniform(-PI / 5, PI / 5)
            q = rng.uniform(0.2, 1.5) * np.exp(1j * theta_q)
            ok, residual = delta_scale_ok(a, q, eps)
            assert ok
            assert residual <= 1e-12 * abs(delta_eval(a * q, eps)) + 1e-300


class TestRotatedPath:
    def test_real_axis_segment(self):
        path = rotated_path(0.0, 5.0, 64)
        assert path.max_tangent_angle == 0.0
        assert np.all(path.nodes.imag == 0)
        assert np.all(np.diff(path.nodes.real) > 0)
        assert np.all(path.weights > 0)
        # weights integrate constants exactly: sum w = 2 * half_width
        assert path.weights.sum() == pytest.approx(10.0, rel=1e-14)

    def test_tilted_path(self):
        path = rotated_path(-PI / 6, 10.0, 200)
        assert path.max_tangent_angle == pytest.approx(PI / 6)
        assert path.direction == pytest.approx(np.exp(-1j * PI / 6))

    def test_angle_too_steep(self):
        with pytest.raises(AngleTooSteepError):
            rotated_path(PI / 2, 1.0)
        with pytest.raises(AngleTooSteepError):
            rotated_path(-1.6, 1.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rotated_path(0.0, 1.0, n_nodes=1)
        with pytest.raises(AngleTooSteepError, match="got nan"):
            rotated_path(math.nan, 1.0)

    @pytest.mark.parametrize("half_width", [-1.0, 0.0, math.nan, math.inf])
    def test_half_width_must_be_finite_and_positive(self, half_width):
        with pytest.raises(ValueError, match=re.escape(
                f"half_width must be finite and positive, got {half_width!r}")):
            rotated_path(0.0, half_width)


class TestLegendreRuleCache:
    def test_one_build_per_node_count(self, monkeypatch):
        legendre_pair = contour._legendre_pair
        calls = []

        def counted(n, x):
            calls.append(n)
            return legendre_pair(n, x)

        monkeypatch.setattr(contour, "_legendre_pair", counted)
        contour._legendre_rule.cache_clear()
        try:
            params = validate(1, cmath.exp(-1j * PI / 6))
            gram_and_metric(params, 12)
            cross_gram(params, 12)
        finally:
            contour._legendre_rule.cache_clear()
        # one build: the Halley sweep and the pass that gives the weights
        assert calls == [contour.DEFAULT_NODES] * (contour._HALLEY_SWEEPS + 1)

    def test_cached_rule_is_read_only(self):
        x, w = contour._legendre_rule(64)
        assert not x.flags.writeable
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_paths_do_not_share_nodes(self):
        first = rotated_path(0.0, 2.0, 64)
        first.nodes[:] = 0.0
        first.weights[:] = 0.0
        x, w = contour._legendre_rule(64)
        second = rotated_path(0.0, 2.0, 64)
        np.testing.assert_array_equal(second.nodes, 2.0 * x)
        np.testing.assert_array_equal(second.weights, 2.0 * w)


def mp_gauss_legendre(n, x0):
    """The node of the n-point Gauss-Legendre rule next to x0 and its
    weight 2/((1 - x^2) P_n'(x)^2), by Newton's method on mpmath's P_n at
    40 digits."""
    with mp.workdps(40):
        x = mp.mpf(x0)
        for _ in range(4):
            p_n, p_prev = mp.legendre(n, x), mp.legendre(n - 1, x)
            # (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x))
            slope = n * (p_prev - x * p_n)
            x -= p_n * (1 - x * x) / slope
        slope = n * (mp.legendre(n - 1, x) - x * mp.legendre(n, x))
        return x, 2 * (1 - x * x) / slope**2


def assert_rule_matches_mpmath(n, indices):
    """Nodes within 2.3e-16 and weights within 1e-11 relative of the
    40-digit rule, at the given indices of the n-point rule."""
    x, w = contour._legendre_rule(n)
    for i in indices:
        node, weight = mp_gauss_legendre(n, x[i])
        assert abs(float(node - x[i])) <= 2.3e-16, (n, i)
        assert abs(float((weight - w[i]) / weight)) <= 1e-11, (n, i)


class TestLegendreRule:
    """The rule against mpmath; each test fails on numpy's leggauss weights
    at n = 400 or without the Halley sweep."""

    def test_every_node_and_weight_up_to_64(self):
        for n in range(1, 65):
            assert_rule_matches_mpmath(n, range(n))

    @pytest.mark.parametrize("n", [400, 401, 600, 800])
    def test_large_rules_at_both_ends_and_inside(self, n):
        # the ends, where leggauss' weights are least accurate, the middle
        # and a few nodes between
        assert_rule_matches_mpmath(
            n, [0, 1, n // 7, n // 2 - 1, n // 2, n // 2 + 1, 3 * n // 4,
                n - 2, n - 1])

    @pytest.mark.parametrize("n", [2, 3, 17, 64, 65, 400, 401])
    def test_exact_on_even_powers_and_mirror_symmetric(self, n):
        x, w = contour._legendre_rule(n)
        assert (x[::-1] == -x).all() and (w[::-1] == w).all()
        assert (np.diff(x) > 0).all() and (w > 0).all()
        assert -1 < x[0] and x[-1] < 1
        # x^(2k), k < n, has degree <= 2n - 2: exact up to the rounding of
        # an n-term recurrence
        for k in range(n):
            exact = 2 / (2 * k + 1)
            value = math.fsum((w * x ** (2 * k)).tolist())
            assert abs(value - exact) <= n * 2.0**-52 * exact, (n, k)


class TestContourIntegrate:
    def test_gaussian_on_real_axis(self):
        path = rotated_path(0.0, 10.0, 200)
        val = contour_integrate(lambda q: np.exp(-q * q), path)
        assert val == pytest.approx(SQRT_PI, rel=1e-12)

    def test_zero_integrand(self):
        path = rotated_path(0.1, 3.0, 32)
        assert contour_integrate(lambda q: 0.0 * q, path) == 0.0

    def test_gaussian_contour_invariance(self):
        # entire decaying integrand: same value on every admissible ray
        ref = SQRT_PI
        for angle in (0.0, 0.1, -PI / 8, PI / 8, 0.7, -0.7):
            width = 16.0 / math.sqrt(math.cos(2 * angle))
            path = rotated_path(angle, width, 600)
            val = contour_integrate(lambda q: np.exp(-q * q), path)
            assert abs(val - ref) / ref < 1e-9

    def test_integrand_must_return_one_value_per_node(self):
        path = rotated_path(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="one value per node"):
            contour_integrate(lambda q: 1.0, path)

    def test_non_finite_sample(self):
        path = rotated_path(0.0, 1.0, 16)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteSampleError):
                contour_integrate(lambda q: 1.0 / (q - path.nodes[3]), path)


class TestSmear:
    def test_unit_test_function(self):
        path = rotated_path(0.0, 13 * math.sqrt(1e-4), 400)
        val = smear(lambda q: np.ones_like(q), 0.0, 1e-4, path)
        assert abs(val - 1.0) < 1e-8

    def test_quadratic_moment(self):
        # second Gaussian moment: integral of q^2 against the delta is
        # q0^2 + 2*eps; the delta underflows at the far nodes, which the
        # warning channel reports
        eps = 1e-4
        path = rotated_path(0.0, 1.0 + 13 * math.sqrt(eps), 2000)
        with pytest.warns(DeltaUnderflowWarning):
            val = smear(lambda q: q * q, 1.0, eps, path)
        assert val == pytest.approx(1.0 + 2 * eps, abs=1e-9)

    def test_linear_eps_scaling(self):
        errors = []
        for eps in (1e-3, 1e-4, 1e-5):
            path = rotated_path(0.0, 13 * math.sqrt(eps), 400)
            val = smear(lambda q: (q + 1.0) ** 2, 0.0, eps, path)
            errors.append(abs(val - 1.0))
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.02)
        assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.02)

    def test_off_axis_center_on_tilted_path(self):
        eps = 1e-3
        q0 = 0.3 + 0.1j
        path = rotated_path(PI / 8, abs(q0) + 20 * math.sqrt(eps), 2000)
        val = smear(lambda q: np.exp(-q * q), q0, eps, path)
        f0 = np.exp(-q0 * q0)
        assert abs(val - f0) < 10 * eps

    def test_rejects_steep_path(self):
        path = rotated_path(PI / 4 + 0.01, 1.0, 32)
        with pytest.raises(InvalidPathError):
            smear(lambda q: q, 0.0, 1e-3, path)

    def test_delta_is_centered_at_q0(self):
        # f vanishes at every node but q0, where the delta takes its peak
        # value: the integrand is f(q) * delta_eval(q - q0, eps)
        path = rotated_path(0.0, 1.0, 3)
        q0 = path.nodes[2]
        val = smear(lambda q: (q == q0).astype(float), q0, 0.01, path)
        assert val == path.direction * path.weights[2] * delta_eval(0.0, 0.01)

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be nonzero"):
            smear(lambda q: q, 0.0, 0.0, rotated_path(0.0, 1.0, 32))

import cmath
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxho.contour import ContourPath, rotated_path
from cxho.errors import (
    ConvergenceViolatedError,
    IllConditionedWarning,
    NonFiniteSampleError,
    NotNormalizableError,
    ValidityExceededError,
)
from cxho import wavefunctions
from cxho.params import validate
from cxho.wavefunctions import (
    coherent_wavefunction,
    cross_gram,
    eigenfunction,
    excited_regulated,
    gram_and_metric,
    ground_regulated,
    hermite,
    parity_blocks,
)
from helpers import (assert_same_outcome, cross_gram_all_nodes,
                     excited_regulated_branches, excited_regulated_ladder,
                     normalizable_params, regulated_branches,
                     same_basis_gram_ladder)

PI = math.pi


def hermite_coeffs_generator(n):
    """Oracle: expand e^{z^2/2} (z - d/dz)^n e^{-z^2/2} symbolically.

    If the current function is p(z) e^{-z^2/2}, one application of
    (z - d/dz) produces (2 z p - p') e^{-z^2/2}; track integer coefficients.
    """
    p = [1]
    for _ in range(n):
        shifted = [0] + [2 * c for c in p]
        deriv = [k * c for k, c in enumerate(p)][1:]
        for k, d in enumerate(deriv):
            shifted[k] -= d
        p = shifted
    return p


def hermite_coeffs_recurrence(n):
    """Integer coefficients from the three-term recurrence."""
    if n == 0:
        return [1]
    prev, cur = [1], [0, 2]
    for k in range(1, n):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return cur


class TestHermite:
    def test_operator_definition_coefficients_exactly(self):
        for n in range(12):
            assert hermite_coeffs_recurrence(n) == hermite_coeffs_generator(n)

    def test_values_match_symbolic_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        for n in range(9):
            coeffs = hermite_coeffs_generator(n)
            expected = sum(c * z**k for k, c in enumerate(coeffs))
            np.testing.assert_allclose(hermite(n, z), expected, rtol=1e-12)

    def test_closed_forms(self):
        assert hermite(2, 1 + 1j) == pytest.approx(-2 + 8j)
        assert hermite(0, 3.7 - 2j) == 1.0
        assert hermite(3, 0.0) == 0.0

    def test_array_shape_preserved(self):
        z = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert hermite(2, z).shape == (2, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)


@pytest.fixture
def params_real():
    return validate(1, 1)


@pytest.fixture
def params_tilted():
    # m*omega = e^{-i pi/6}
    return validate(1, cmath.exp(-1j * PI / 6))


class TestEigenfunction:
    def test_gaussian_peak(self, params_real):
        assert eigenfunction(1, 0, 0.0, params_real) == pytest.approx(
            PI ** -0.25, rel=1e-12)
        assert PI ** -0.25 == pytest.approx(0.751126, rel=1e-6)

    def test_dual_basis_is_conjugate_at_conjugate_point(self, params_tilted):
        rng = np.random.default_rng(4)
        for n in (0, 1, 3):
            for _ in range(5):
                q = complex(rng.normal(), 0.2 * rng.normal())
                lhs = eigenfunction(2, n, q, params_tilted)
                rhs = np.conj(eigenfunction(1, n, np.conj(q), params_tilted))
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_fastest_decay_ray(self, params_tilted):
        # |psi_0| along rays s*e^{i phi}: decay rate cos(theta + 2 phi) peaks
        # at phi = pi/12 for theta = -pi/6
        s = 3.0
        phis = [0.0, PI / 24, PI / 12, PI / 8, PI / 6]
        mags = [abs(eigenfunction(1, 0, s * cmath.exp(1j * phi), params_tilted))
                for phi in phis]
        assert np.argmin(mags) == 2

    def test_validity_bound(self):
        p = validate(1, 1, eps=0.1)
        with pytest.raises(ValidityExceededError):
            eigenfunction(1, 10, 0.0, p)

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_without_warnings(self, params_real):
        p = validate(1, 1, eps=1e-4)
        with pytest.raises(NonFiniteSampleError, match="n = 300 .* H_n overflows"):
            eigenfunction(1, 300, 0.0, p)
        # H_10(40i) is finite; exp(q^2/2) at q = 40i is not
        with pytest.raises(NonFiniteSampleError, match="n = 10 .* the Gaussian"):
            eigenfunction(1, 10, [0.0, 40j], params_real)

    def test_bad_basis(self, params_real):
        with pytest.raises(ValueError):
            eigenfunction(3, 0, 0.0, params_real)


class TestGroundRegulated:
    def test_regulator_free_reduction(self, params_tilted):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = complex(rng.normal(), 0.1 * rng.normal())
            for basis in (1, 2):
                a = ground_regulated(basis, q, params_tilted, eps=0, eps_prime=0)
                b = eigenfunction(basis, 0, q, params_tilted)
                assert a == pytest.approx(b, rel=1e-15)

    def test_normalization_constant_special_case(self):
        # m*omega = 1, eps = eps' = 0.01 gives both shifted products equal to
        # one and C = pi^{-1/4}
        p = validate(1, 1, eps=0.01, eps_prime=0.01)
        val = ground_regulated(1, 0.0, p)
        assert val == pytest.approx(PI ** -0.25, rel=1e-14)

    def test_dual_overlap_is_one(self, params_tilted):
        # real-axis quadrature of the conjugated basis-2 state against the
        # basis-1 state
        path = rotated_path(0.0, 8.0, 400)
        integrand = (np.conj(ground_regulated(2, path.nodes.real, params_tilted))
                     * ground_regulated(1, path.nodes.real, params_tilted))
        overlap = np.dot(path.weights, integrand)
        assert abs(overlap - 1.0) < 1e-10

    def test_convergence_violated(self):
        p = validate(1, 1)
        with pytest.raises(ConvergenceViolatedError):
            ground_regulated(1, 0.0, p, eps=0.5, eps_prime=1.2)
        with pytest.raises(ConvergenceViolatedError):
            # Re(m*omega) above 1/eps
            ground_regulated(1, 0.0, validate(3.0, 1.0), eps=0.4, eps_prime=1e-3)


class TestRegulatedBranches:
    """The regulated forms read basis 2 as the conjugate partner of basis 1
    with eps' negated; they must have the bits of the former branches."""

    @given(params=normalizable_params(), n=st.sampled_from([2, 8, 32]),
           basis=st.sampled_from([1, 2]),
           eps=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 0.6)),
           eps_prime=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 0.6)))
    def test_match_former_branches(self, params, n, basis, eps, eps_prime):
        q = np.linspace(-2.0, 2.0, 9) * cmath.exp(-0.25j * params.theta)

        def ground_oracle():
            alpha, _, pref, _ = regulated_branches(basis, params, eps,
                                                   eps_prime)
            return pref * np.exp(-0.5 * alpha / params.hbar * q**2)

        assert_same_outcome(
            lambda: ground_regulated(basis, q, params, eps, eps_prime),
            ground_oracle)
        assert_same_outcome(
            lambda: excited_regulated(basis, n, q, params, eps, eps_prime),
            lambda: excited_regulated_branches(basis, n, q, params, eps,
                                               eps_prime))


class TestExcitedRegulated:
    def test_reduces_to_ground(self, params_tilted):
        for q in (0.0, 0.7, 1.3 - 0.1j):
            assert excited_regulated(1, 0, q, params_tilted) == pytest.approx(
                ground_regulated(1, q, params_tilted), rel=1e-14)

    @pytest.mark.parametrize("basis", [1, 2])
    @pytest.mark.parametrize("eps", [None, 0.0, 1e-2])
    def test_level_zero_is_ground_bit_for_bit(self, params_tilted, basis, eps):
        q = np.array([0.0, 0.7, -2.5, 1.3 - 0.1j])
        assert np.array_equal(
            excited_regulated(basis, 0, q, params_tilted, eps, eps),
            ground_regulated(basis, q, params_tilted, eps, eps))
        assert (excited_regulated(basis, 0, 0.7, params_tilted, eps, eps)
                == ground_regulated(basis, 0.7, params_tilted, eps, eps))

    def test_regulator_free_matches_eigenfunction(self, params_tilted):
        rng = np.random.default_rng(6)
        qs = rng.normal(size=20) + 0.05j * rng.normal(size=20)
        for basis in (1, 2):
            for n in (*range(6), 40, 64, 128):
                got = excited_regulated(basis, n, qs, params_tilted, eps=0,
                                        eps_prime=0)
                expected = eigenfunction(basis, n, qs, params_tilted)
                np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_first_level_polynomial_part(self, params_real):
        # basis 1, n = 1, regulator-free, m*omega = hbar = 1: the ladder
        # yields 2q and the prefactor sqrt(1/2)*C, so the level is
        # sqrt(2)*pi^{-1/4} q exp(-q^2/2)
        qs = np.array([0.0, 0.4, -1.1, 2.0 + 0.3j])
        got = excited_regulated(1, 1, qs, params_real, eps=0, eps_prime=0)
        assert got[0] == 0
        np.testing.assert_allclose(
            got, math.sqrt(2) * PI ** -0.25 * qs * np.exp(-qs**2 / 2),
            rtol=1e-14)

    def test_linear_regulator_convergence(self, params_tilted):
        # pointwise error against the regulator-free form scales like eps
        qs = np.array([0.3, 0.9, 1.4])
        errs = []
        for eps in (1e-2, 1e-3):
            vals = excited_regulated(1, 2, qs, params_tilted, eps=eps,
                                     eps_prime=eps)
            exact = eigenfunction(1, 2, qs, params_tilted)
            errs.append(np.abs(vals - exact).max())
        ratio = errs[0] / errs[1]
        assert 5 < ratio < 20

    @pytest.mark.parametrize("n", [40, 64, 128])
    @pytest.mark.parametrize("basis", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-2])
    def test_matches_mpmath_monomial_ladder(self, n, basis, eps):
        # the former monomial route at 120 digits, over the turning-point
        # range; in double its alternating coefficients cancel, to an error
        # of 5.5e-5 of max|psi| at n = 64 and 3e7 at n = 128
        params = validate(1, 0.866 - 0.5j)
        qs = np.linspace(-1.0, 1.0, 21) * math.sqrt((2 * n + 1) * params.hbar
                                                    / params.r)
        expected = excited_regulated_ladder(basis, n, qs, params, eps, eps)
        got = excited_regulated(basis, n, qs, params, eps, eps)
        # measured: at most 6.4e-14
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_hermite_overflow_raises_without_warnings(self):
        params = validate(1, 0.866 - 0.5j)
        qs = np.linspace(-1.0, 1.0, 41) * math.sqrt(401 * params.hbar / params.r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteSampleError,
                               match="n = 200 is not finite at 2 of 41 "
                                     "samples: H_n overflows"):
                excited_regulated(2, 200, qs, params, 1e-2, 1e-2)


class TestCoherentWavefunction:
    def test_vacuum_label_reduces_to_ground(self, params_tilted):
        for q in (0.0, 0.4 + 0.1j):
            assert coherent_wavefunction(1, 0.0, q, params_tilted) == pytest.approx(
                eigenfunction(1, 0, q, params_tilted), rel=1e-14)

    def test_displaced_peak(self, params_real):
        val = coherent_wavefunction(1, 1.0, math.sqrt(2), params_real)
        assert val == pytest.approx(PI ** -0.25, rel=1e-12)

    def test_series_oracle(self, params_tilted):
        # truncated level expansion sum_n f(n) psi_n reproduces the closed form
        n_max = 40
        rng = np.random.default_rng(7)
        for lam in (0.5, 1.0, 0.3 + 0.8j):
            f = np.empty(n_max, dtype=complex)
            f[0] = math.exp(-0.5 * abs(lam) ** 2)
            for n in range(1, n_max):
                f[n] = f[n - 1] * lam / math.sqrt(n)
            for _ in range(4):
                q = complex(rng.normal(), 0.1 * rng.normal())
                series = sum(f[n] * eigenfunction(1, n, q, params_tilted)
                             for n in range(n_max))
                closed = coherent_wavefunction(1, lam, q, params_tilted)
                assert abs(series - closed) < 1e-10

    def test_not_normalizable(self):
        p = validate(1, -1j)  # Re(m*omega) = 0 exactly
        with pytest.raises(NotNormalizableError):
            coherent_wavefunction(1, 0.5, 0.0, p)


class TestCrossGram:
    def test_identity_real_parameters(self, params_real):
        cross = cross_gram(params_real, 12)
        defect = np.abs(cross - np.eye(12)).max()
        assert defect < 1e-12

    def test_identity_tilted(self):
        p = validate(1, cmath.exp(-1j * PI / 3))
        cross = cross_gram(p, 10)
        assert np.abs(cross - np.eye(10)).max() < 1e-8

    def test_near_boundary_with_enlarged_half_width(self):
        for theta_m, theta_omega in ((PI - 1e-3, -PI / 2), (0.0, -PI / 2 + 1e-3)):
            p = validate(cmath.exp(1j * theta_m), cmath.exp(1j * theta_omega))
            path = rotated_path(-p.theta / 2, 1.5 * 12 * math.sqrt(10), 600)
            cross = cross_gram(p, 10, path=path)
            assert np.abs(cross - np.eye(10)).max() < 1e-6

    def test_contour_rotation_invariance(self, params_tilted):
        p = params_tilted
        base = cross_gram(p, 8)
        for shift in (PI / 8, -PI / 8):
            width = 12 * math.sqrt(8.0) / math.sqrt(math.cos(2 * shift))
            path = rotated_path(-p.theta / 2 + shift, width, 800)
            rotated = cross_gram(p, 8, path=path)
            assert np.abs(rotated - base).max() < 1e-8

    def test_not_normalizable_gate(self):
        p = validate(1, cmath.exp(-1j * PI / 2))
        with pytest.raises(NotNormalizableError):
            cross_gram(p, 6)

    def test_validity_gate(self):
        p = validate(1, 1, eps=0.05)
        with pytest.raises(ValidityExceededError):
            cross_gram(p, 30)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_hermite_overflow_raises(self):
        p = validate(0.8 + 0.3j, 0.9 - 0.3j)
        with pytest.raises(NonFiniteSampleError, match="n_max = 128.*Hermite"):
            cross_gram(p, 128)

    def test_hermite_overflow_raised_before_any_product(self, monkeypatch):
        # the table is checked before the parity-block products are formed
        called = []
        monkeypatch.setattr(wavefunctions, "parity_blocks",
                            lambda *mats: called.append(mats) or [])
        p = validate(0.8 + 0.3j, 0.9 - 0.3j)
        with pytest.raises(NonFiniteSampleError, match="n_max = 128.*Hermite"):
            cross_gram(p, 128)
        assert called == []

    def test_default_width_at_extreme_hbar(self):
        # hbar * n_max and pi * hbar overflow; 12 sqrt(hbar/r) sqrt(n_max)
        # and sqrt(m omega / hbar / pi) do not
        p = validate(1, 1, hbar=1e308)
        assert np.abs(cross_gram(p, 12) - np.eye(12)).max() < 1e-14

    def test_asymmetric_rule_raises(self, params_tilted):
        # the half-node sum holds only on a rule that mirrors exactly
        good = rotated_path(-params_tilted.theta / 2, 30.0, 8)
        shifted = ContourPath(good.nodes + 1e-3, good.weights,
                              good.direction, good.max_tangent_angle)
        weights = good.weights.copy()
        weights[0] *= 1 + 2.0**-52
        skewed = ContourPath(good.nodes, weights, good.direction,
                             good.max_tangent_angle)
        for path in (shifted, skewed):
            with pytest.raises(ValueError, match="8-node rule.*not mirror"):
                cross_gram(params_tilted, 6, path=path)

    def test_odd_node_count_keeps_the_middle_node_once(self, params_tilted):
        # at n_max 12 the default 400-node rule resolves every level
        p, n_max = params_tilted, 12
        width = 12.0 * math.sqrt(p.hbar * n_max / p.r)
        odd = cross_gram(p, n_max, path=rotated_path(-p.theta / 2, width, 401))
        assert np.abs(odd - cross_gram(p, n_max)).max() <= 1e-12


class TestParityBlocks:
    @pytest.mark.filterwarnings("ignore::cxho.errors.IllConditionedWarning")
    @pytest.mark.parametrize("n_max", [1, 2, 3, 12, 13, 64])
    @pytest.mark.parametrize("m, omega", [
        (1, 1), (1, 0.866 - 0.5j), (0.8 + 0.3j, 0.9 - 0.3j),
        (2 * cmath.exp(2.5j), 0.7 * cmath.exp(-1.5j))])
    def test_odd_sum_entries_are_zero(self, m, omega, n_max):
        g = gram_and_metric(validate(m, omega), n_max)
        odd = np.add.outer(np.arange(n_max), np.arange(n_max)) % 2 == 1
        for mat in (g.S, g.Qmat, g.cross):
            assert mat.shape == (n_max, n_max)
            assert np.all(mat[odd] == 0)
            # the even and odd levels are the blocks; one level has no odd one
            blocks = [block for block, in parity_blocks(mat)]
            assert [b.shape for b in blocks] == [
                ((n_max - p + 1) // 2,) * 2 for p in range(min(2, n_max))]

    @pytest.mark.parametrize("n_max", [3, 12, 13, 32])
    @pytest.mark.parametrize("m, omega", [
        (1, 1), (1, 0.866 - 0.5j), (1, cmath.exp(-0.35j)),
        (cmath.exp(0.8j), 0.7 * cmath.exp(-0.5j))])
    def test_metric_blocks_match_inverse(self, m, omega, n_max):
        g = gram_and_metric(validate(m, omega), n_max)
        assert g.condition_number < 1e12
        for s_block, q_block in parity_blocks(g.S, g.Qmat):
            inv = np.linalg.inv(s_block)
            rel = np.abs(q_block - inv).max() / np.abs(inv).max()
            assert rel <= g.condition_number * 1e-13

    @settings(max_examples=60)
    @given(params=normalizable_params(), n_max=st.integers(1, 64))
    def test_cross_matches_all_node_formula(self, params, n_max):
        # Both sums take the same products; the half-node one adds mirror
        # pairs first (H_k(-x) = (-1)^k H_k(x) bit for bit, doubled weights
        # exact).  Each has N = 400 terms or fewer and a few complex
        # products per term (at most 2 sqrt(2) gamma_2 each) around the sum's
        # gamma_N, so they differ by at most 2 gamma_(N+16) of the moduli.
        with np.errstate(over="ignore", invalid="ignore"):
            expected, magnitude = cross_gram_all_nodes(params, n_max)
        if not np.isfinite(expected).all():
            with pytest.raises(NonFiniteSampleError):
                cross_gram(params, n_max)
            return
        got = cross_gram(params, n_max)
        assert np.all(np.abs(got - expected) <= 2 * _gamma(416) * magnitude)


class TestGramAndMetric:
    def test_real_parameters_identity(self, params_real):
        g = gram_and_metric(params_real, 8)
        assert np.abs(g.S - np.eye(8)).max() < 1e-10
        assert np.abs(g.Qmat - np.eye(8)).max() < 1e-10

    def test_gram_head_entry_oracle(self):
        # S[0,0] = 1/sqrt(cos theta); at theta = pi/3 this is sqrt(2)
        p = validate(cmath.exp(2j * PI / 3), cmath.exp(-1j * PI / 3))
        g = gram_and_metric(p, 6)
        assert g.S[0, 0] == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_inverse_and_positivity(self):
        p = validate(cmath.exp(1j * PI / 3), cmath.exp(-1j * PI / 6))
        assert p.theta == pytest.approx(PI / 6)
        g = gram_and_metric(p, 10)
        assert np.abs(g.S @ g.Qmat - np.eye(10)).max() < 1e-8
        assert np.linalg.eigvalsh(g.Qmat).min() > 0
        assert np.linalg.eigvalsh(g.S).min() > 0
        assert np.abs(g.S - g.S.conj().T).max() == 0.0
        assert np.abs(g.cross - np.eye(10)).max() < 1e-8

    @pytest.mark.filterwarnings("ignore::cxho.errors.IllConditionedWarning")
    @pytest.mark.parametrize("n_max", [4, 8, 12, 16])
    def test_metric_matches_inverse_over_plane(self, n_max):
        checked = 0
        for theta_m in np.linspace(0.0, PI, 7):
            for tilt in np.linspace(-PI, 0.0, 7):
                for r_m, r_omega in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
                    p = validate(r_m * cmath.exp(1j * theta_m),
                                 r_omega * cmath.exp(0.5j * (tilt - theta_m)))
                    if not p.normalizable:
                        continue
                    g = gram_and_metric(p, n_max)
                    if g.condition_number >= 1e8:
                        continue
                    checked += 1
                    assert np.abs(g.Qmat - g.Qmat.conj().T).max() == 0.0
                    assert np.abs(g.S @ g.Qmat - np.eye(n_max)).max() <= 1e-8
                    inv = np.linalg.inv(g.S)
                    rel = np.abs(g.Qmat - inv).max() / np.abs(inv).max()
                    assert rel <= g.condition_number * 1e-13
        assert checked >= 100

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_hermite_overflow_raises(self):
        # the cross matrix is checked before S is built
        p = validate(0.8 + 0.3j, 0.9 - 0.3j)
        with pytest.raises(NonFiniteSampleError, match="n_max = 128.*Hermite"):
            gram_and_metric(p, 128)

    def test_cross_overflow_raised_before_s_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(wavefunctions, "_triangular_factor",
                            lambda *args: built.append(args))
        p = validate(0.8 + 0.3j, 0.9 - 0.3j)
        with pytest.raises(NonFiniteSampleError, match="n_max = 128.*Hermite"):
            gram_and_metric(p, 128)
        assert built == []

    def test_s_overflow_names_s(self):
        # at arg(m*omega) = -1.57 the cross matrix is finite at n_max 96 but
        # S outgrows the double range (max|S| is 6e113 already at -1.54, 64)
        p = validate(1, cmath.exp(-1.57j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cross_gram(p, 96)
            with pytest.raises(NonFiniteSampleError) as info:
                gram_and_metric(p, 96)
        message = str(info.value)
        assert "n_max = 96" in message and "S exceeds" in message
        assert "Hermite" not in message and "quadrature" not in message

    def test_hermite_overflow_raises_without_warnings(self):
        # the overflow is reported once, by the error, not also as warnings
        p = validate(0.8 + 0.3j, 0.9 - 0.3j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (cross_gram, gram_and_metric):
                with pytest.raises(NonFiniteSampleError, match="n_max = 128"):
                    build(p, 128)

    @pytest.mark.parametrize("omega", [1, 0.866 - 0.5j])
    @pytest.mark.parametrize("n_max", [8, 12, 16, 24])
    def test_condition_number_matches_svd(self, omega, n_max):
        # at n_max 32 S is ill conditioned at 0.866-0.5i (1.7e10) and the
        # two routes agree only to about cond * eps
        g = gram_and_metric(validate(1, omega), n_max)
        assert g.condition_number == pytest.approx(np.linalg.cond(g.S),
                                                   rel=1e-8, abs=0)

    def test_ill_conditioning_reported_not_fatal(self):
        p = validate(cmath.exp(1j * (PI - 0.1)), cmath.exp(-1j * PI / 2))
        assert p.theta == pytest.approx(PI / 2 - 0.1)
        with pytest.warns(IllConditionedWarning):
            g = gram_and_metric(p, 16)
        assert g.condition_number > 1e12


def _mpmath_gram(theta: float, n_max: int) -> list[list]:
    """S by the ladder recurrence in mpmath, entry by entry (oracle)."""
    th = mpmath.mpf(theta)
    tan, sec = mpmath.tan(th), mpmath.sec(th)
    s = [[mpmath.mpc(0)] * n_max for _ in range(n_max)]
    s[0][0] = 1 / mpmath.sqrt(mpmath.cos(th))
    for n in range(2, n_max, 2):
        s[0][n] = 1j * tan * mpmath.sqrt(mpmath.mpf(n - 1) / n) * s[0][n - 2]
    for m in range(n_max - 1):
        for n in range(m + 1, n_max):
            s[m + 1][n] = (sec * mpmath.sqrt(n) * s[m][n - 1]
                           - 1j * tan * mpmath.sqrt(m) * s[m - 1][n]
                           ) / mpmath.sqrt(m + 1)
    for m in range(n_max):
        for n in range(m):
            s[m][n] = mpmath.conj(s[n][m])
    return s


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for double precision."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def _closed_form_bound(theta: float, n_max: int) -> float:
    """Relative error bound on every entry of gram_and_metric's S and
    metric matrix at n_max levels, against their exact values at the
    double theta.

    An entry k + 2j < n_max of R or R^-1 (``_triangular_factor``) is the
    seed g^(k+1/2) times j steps, counted in roundings.  g = gamma or
    1/gamma carries <= 7 (exp, cos, sqrt and the quotient; 3 for the
    complex reciprocal), which its power multiplies by k + 1/2; the power,
    exp((k+1/2) log g), adds (k+1/2) |log g| + 4.  A step h sqrt(n (n-1))/j
    carries <= 8 (h: <= 5 for -(i/2) sin(theta) e^(-i theta); the root, the
    product, the quotient) and its complex product in the running product
    <= 3.  So a factor entry carries <= (k+1/2)(7 + L) + 4 + 11 j <=
    (7 + L) n_max + 4, L = |log gamma|.  An entry of R^H R or R^-1 R^-H
    sums <= n_max/2 products of two factor entries (3 each) that share one
    phase, so nothing cancels and the sum adds n_max/2; the Hermitian part
    adds 1.
    """
    log_gamma = abs(complex(-0.5 * math.log(math.cos(theta)), 0.5 * theta))
    return _gamma(math.ceil((14.5 + 2 * log_gamma) * n_max) + 12)


def _gram_at(theta: float, n_max: int):
    """(params, gram_and_metric) at arg(m*omega) = theta, |m*omega| = 1,
    with the cross matrix stubbed out: the Gram step does not read it, and
    its default rule's Hermite table overflows from n_max 128 on.
    IllConditionedWarning is ignored."""
    m, omega = ((cmath.exp(2j * theta), cmath.exp(-1j * theta)) if theta > 0
                else (1, cmath.exp(1j * theta)))
    p = validate(m, omega)
    with (mock.patch.object(wavefunctions, "cross_gram",
                            lambda params, n: np.eye(n)),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore", IllConditionedWarning)
        return p, gram_and_metric(p, n_max)


class TestSameBasisGramOracles:
    @pytest.mark.parametrize("theta", [-1.45, -1.0, -0.5, -0.1, 0.0, 0.3,
                                       PI / 3, 1.2, 1.45])
    def test_matches_mpmath_recurrence(self, theta):
        # S[m, n] = |S[m, n]| (i sign(theta))^((n-m)/2): both terms of every
        # step share that phase, so nothing cancels.  Each entry sits at most
        # n_max steps deep, each of <= 8 roundings (sec or tan, three square
        # roots, three products, the sum and the quotient; row 0 needs fewer),
        # plus 2 for S[0, 0], so |S - S_exact| <= gamma_(8 n_max + 2) |S_exact|
        # entrywise.  Parity-forbidden entries are exact zeros.
        n_max = 48
        with mpmath.workdps(60):
            exact = _mpmath_gram(theta, n_max)
            got = same_basis_gram_ladder(theta, n_max)
            err = np.array([[float(abs(exact[m][n] - mpmath.mpc(got[m, n])))
                             for n in range(n_max)] for m in range(n_max)])
            size = np.array([[float(abs(exact[m][n])) for n in range(n_max)]
                             for m in range(n_max)])
        assert np.all(err <= _gamma(8 * n_max + 2) * size)
        assert err.max() <= _gamma(8 * n_max + 2) * np.abs(got).max()

    @pytest.mark.filterwarnings("ignore::cxho.errors.IllConditionedWarning")
    @pytest.mark.parametrize("m, omega", [
        (1, 0.866 - 0.5j), (0.8 + 0.3j, 0.9 - 0.3j), (1, 1),
        (2 * cmath.exp(2.5j), 0.7 * cmath.exp(-1.5j)),
        (0.5, 2 * cmath.exp(-1.4j))])
    @pytest.mark.parametrize("n_max", [4, 9, 16])
    def test_matches_gauss_hermite_quadrature(self, m, omega, n_max):
        # with y = sqrt(Re(m*omega)/hbar) q, conj(psi_m) psi_n is e^(-y^2)
        # times a polynomial of degree <= 2 n_max - 2, which hermgauss(n_max)
        # integrates exactly; only rounding is left, scaled by the
        # quadrature of |psi_m| |psi_n|
        p = validate(m, omega)
        y, w = np.polynomial.hermite.hermgauss(n_max)
        scale = math.sqrt(p.hbar / p.momega.real)
        psi = np.array([eigenfunction(1, k, y * scale, p) for k in range(n_max)])
        weights = w * np.exp(y * y) * scale
        quad = (np.conj(psi) * weights) @ psi.T
        magnitude = (np.abs(psi) * weights) @ np.abs(psi).T
        got = gram_and_metric(p, n_max).S
        assert np.all(np.abs(got - quad) <= 64 * n_max * 2.0**-53 * magnitude)

    @pytest.mark.parametrize("theta, expected", [
        (PI / 3, 1.795e9), (-PI / 6, 3.343e4), (0.1, 8.005), (-1.2, 1.754e11)])
    def test_condition_number_matches_mpmath(self, theta, expected):
        # cond = lambda_max(S) lambda_max(S^-1).  Weyl: each moves by at most
        # ||dM||_2 <= ||dM||_F, with |dM| <= _closed_form_bound |M| entrywise,
        # and eigvalsh adds n u ||M||_2; cond moves by the sum of both.
        n_max = 16
        p, g = _gram_at(theta, n_max)
        with mpmath.workdps(60):
            exact = mpmath.matrix(_mpmath_gram(p.theta, n_max))
            moduli = [abs(e) for e in mpmath.eighe(exact, eigvals_only=True)]
            cond = float(max(moduli) / min(moduli))
        assert cond == pytest.approx(expected, rel=1e-3)
        bound = _closed_form_bound(p.theta, n_max)
        perturbation = sum(
            bound * np.linalg.norm(mat) / np.linalg.eigvalsh(mat)[-1]
            + n_max * 2.0**-53 for mat in (g.S, g.Qmat))
        assert g.condition_number == pytest.approx(cond, rel=perturbation,
                                                   abs=0)

    @pytest.mark.parametrize("degrees", [5, -5, 10, -10])
    def test_dual_identity_on_leading_block(self, degrees):
        # The untruncated S satisfies S conj(S) = I.  On the leading 16 x 16
        # block of a 120-level S it holds to rounding and truncation: S's
        # entries carry gamma_(8n+2) |S| (test_matches_mpmath_recurrence), the
        # product gamma_n more, and the levels from 120 on, taken from a
        # 240-level S whose leading block is the 120-level one, bound the
        # truncation (their terms fall geometrically, to 1e-62 at 10 degrees).
        # At 20 degrees the rounding grows to 3.6e-12 and the identity is no
        # oracle there; neither is it one for the truncated inverse verify
        # uses.
        n_max, head = 120, 16
        s_long = same_basis_gram_ladder(math.radians(degrees), 2 * n_max)
        s_mat = s_long[:n_max, :n_max]
        assert np.array_equal(s_mat, same_basis_gram_ladder(
            math.radians(degrees), n_max))
        defect = np.abs((s_mat @ s_mat.conj())[:head, :head] - np.eye(head))
        size = np.abs(s_mat) @ np.abs(s_mat)
        tail = np.abs(s_long[:head, n_max:]) @ np.abs(s_long[n_max:, :head])
        bound = ((2 * _gamma(8 * n_max + 2) + _gamma(n_max)) * size[:head, :head]
                 + 2 * tail)
        assert np.all(defect <= bound)
        # measured: 1.3e-15 at 5 degrees, 1.2e-14 at 10
        assert defect.max() <= (4e-15 if abs(degrees) == 5 else 4e-14)



def _legendre_entry(m: int, n: int, theta_sign: int, sec) -> mpmath.mpc:
    """S[m, n] = (i sgn theta)^mu sqrt(m!/n!) P_l^mu(sec theta)/sqrt(cos theta)
    with l = (m + n)/2 and mu = (n - m)/2, from the type-3 associated
    Legendre function; zero at m + n odd (oracle independent of the
    ladder relations)."""
    if (m + n) % 2:
        return mpmath.mpc(0)
    mu = (n - m) // 2
    return ((1j * theta_sign) ** mu
            * mpmath.sqrt(mpmath.factorial(m) / mpmath.factorial(n))
            * mpmath.legenp((m + n) // 2, mu, sec, type=3) * mpmath.sqrt(sec))


#: Entries m <= n of a 65-level S: corners and a fixed sample with m + n
#: even (legenp is slow at large mu near sec theta = 1 and at large sec
#: theta, so the sample is small); the lower triangle is their mirror.
_SAMPLED_ENTRIES = [(0, 0), (0, 64), (64, 64), (1, 63), (3, 5), (17, 31)] + [
    (min(m, n), max(m, n)) for m, n
    in np.random.default_rng(10).integers(0, 65, (40, 2)).tolist()
    if (m + n) % 2 == 0][:14]


def _check_entries(got: np.ndarray, theta: float, sec, bound) -> None:
    """The sampled entries of a 65-level S at ``theta`` within
    ``bound(m, n)`` of the closed form at sec theta = ``sec`` (an mpf); the
    parity-forbidden entries are exact zeros and the lower triangle the
    mirror."""
    sign = 1 if theta > 0 else -1
    for m, n in _SAMPLED_ENTRIES:
        exact = _legendre_entry(m, n, sign, sec)
        assert abs(exact - mpmath.mpc(got[m, n])) <= bound(m, n) * abs(exact), (
            m, n)
        assert got[n, m] == got[m, n].conjugate()
    odd = np.add.outer(np.arange(65), np.arange(65)) % 2 == 1
    assert np.all(got[odd] == 0)


def _diagonal_errors(diagonal: np.ndarray, sec) -> np.ndarray:
    """The distance of S's diagonal from P_n(sec theta)/sqrt(cos theta),
    relative."""
    exact = [mpmath.legenp(n, 0, sec, type=3) * mpmath.sqrt(sec)
             for n in range(diagonal.size)]
    return np.array([float(abs(e - mpmath.mpf(value)) / e)
                     for e, value in zip(exact, diagonal.tolist())])


class TestSameBasisGramClosedForm:
    # Oracles independent of the ladder relations and of R: the S of
    # gram_and_metric within _closed_form_bound, and the recurrence's
    # rounding, against the closed form at the double theta itself.

    @pytest.mark.parametrize("theta", [-1.2, -0.6, 0.2, 0.9])
    def test_sampled_entries_match_legendre_functions(self, theta):
        p, g = _gram_at(theta, 65)
        bound = _closed_form_bound(p.theta, 65)
        with mpmath.workdps(40):
            _check_entries(g.S, p.theta, mpmath.sec(mpmath.mpf(p.theta)),
                           lambda m, n: bound)

    @pytest.mark.parametrize("theta", [-1.5, -1.2, -0.6, -0.1, 0.2, 0.9,
                                       1.4, 1.5])
    def test_diagonal_matches_legendre_polynomials(self, theta):
        # P_n(sec theta) grows like (sec theta + |tan theta|)^n, which leaves
        # the double range before n = 256 only at |theta| = 1.5 here
        n_max = 257 if abs(theta) < 1.5 else 200
        if n_max < 257:
            with pytest.raises(NonFiniteSampleError, match="S exceeds"):
                _gram_at(theta, 257)
        p, g = _gram_at(theta, n_max)
        with mpmath.workdps(40):
            errors = _diagonal_errors(g.S.diagonal().real,
                                      mpmath.sec(mpmath.mpf(p.theta)))
        assert np.all(errors <= _closed_form_bound(p.theta, n_max))

    @pytest.mark.parametrize("tan, sec", [(0.75, 1.25), (-0.75, 1.25),
                                          (1.875, 2.125), (-1.875, 2.125)])
    def test_exact_coefficients_leave_rounding_unshared(self, tan, sec):
        # At theta = atan(3/4) and atan(15/8) the recurrence's tan and sec are
        # exact doubles (sec^2 - tan^2 = 1 exactly), so S[0, 0] = 1/sqrt(cos)
        # is the one rounded coefficient and no rounding is shared by every
        # step.  The <= 8 roundings a level then add up like independent
        # errors, each uniform on [-u, u] with deviation u/sqrt(3) (Higham &
        # Mary, SIAM J. Sci. Comput. 41 (2019) A2815), and every entry out to
        # level k = max(m, n) stays within four deviations of their sum,
        # 4 u sqrt(8 (k + 1)/3), of the closed form; measured: at most
        # 1.7 u sqrt(k + 1).  With sec or tan one unit in the last place off,
        # that error is shared by every step and grows like k instead, and
        # the diagonal misses this bound.
        theta = math.atan(tan)
        assert (math.tan(theta), 1.0 / math.cos(theta)) == (tan, sec)

        def bound(m, n):
            return 4 * 2.0**-53 * math.sqrt(8 * (max(m, n) + 1) / 3)

        with mpmath.workdps(40):
            if sec == 1.25:  # legenp is slower at atan(15/8)
                _check_entries(same_basis_gram_ladder(theta, 65), theta,
                               mpmath.mpf(sec), bound)
            errors = _diagonal_errors(
                same_basis_gram_ladder(theta, 257).diagonal().real,
                mpmath.mpf(sec))
        levels = np.arange(errors.size)
        assert np.all(errors <= [bound(n, n) for n in levels])


def _lower_inverse(low: mpmath.matrix) -> list[list]:
    """The inverse of a lower-triangular mpmath matrix by forward
    substitution, column by column, as rows of mpmath numbers."""
    size = low.rows
    inv = [[mpmath.mpc(0)] * size for _ in range(size)]
    for j in range(size):
        inv[j][j] = 1 / low[j, j]
        for i in range(j + 1, size):
            inv[i][j] = -mpmath.fsum(low[i, k] * inv[k][j]
                                     for k in range(j, i)) / low[i, i]
    return inv


def _sampled_pairs(size: int) -> list[tuple[int, int]]:
    """Entries a <= b of a size x size parity block: corners, the diagonal
    ends and a fixed sample."""
    rng = np.random.default_rng(size)
    return [(0, 0), (0, size - 1), (size - 1, size - 1), (1, size - 2)] + [
        (min(a, b), max(a, b)) for a, b in rng.integers(0, size, (20, 2)).tolist()]


class TestMetricClosedForm:
    @pytest.mark.parametrize("degrees, n_max, expected", [
        (-10, 32, 4.275e3), (30, 32, 1.686e10), (-20, 64, 1.451e15),
        (45, 64, 5.198e31), (-60, 64, 3.950e42), (-30, 128, 3.562e45)])
    def test_matches_mpmath_block_inverse(self, degrees, n_max, expected):
        # The oracle, per parity block: S by the ladder recurrence in mpmath
        # and its inverse L^-H L^-1 through mpmath's Cholesky factor L, at
        # 2 log10(cond) + 30 digits.  Sampled entries of S and of the metric
        # lie within _closed_form_bound of it, which is <= 1e-12 here.
        # cond = lambda_max(S) ||L^-1||_2^2 from the oracle's matrices
        # rounded to double, which moves either factor by <= sqrt(n) u
        # relative (Weyl).  A metric from a Cholesky factor in double was
        # off by 1e-9 (10 degrees, 32) to 4e5 (45 degrees, 64) relative,
        # and the eigvalsh ratio by 8 orders at 45 and 60 degrees, 64.
        p, g = _gram_at(math.radians(degrees), n_max)
        bound = _closed_form_bound(p.theta, n_max)
        assert bound <= 1e-12
        lambda_s = lambda_q = 0.0
        with mpmath.workdps(2 * math.ceil(math.log10(expected)) + 30):
            exact = _mpmath_gram(p.theta, n_max)
            for parity, (s_block, q_block) in enumerate(
                    parity_blocks(g.S, g.Qmat)):
                levels = range(parity, n_max, 2)
                s_exact = mpmath.matrix([[exact[m][n] for n in levels]
                                         for m in levels])
                l_inv = _lower_inverse(mpmath.cholesky(s_exact))
                for a, b in _sampled_pairs(len(levels)):
                    q_exact = mpmath.fsum(
                        mpmath.conj(l_inv[k][a]) * l_inv[k][b]
                        for k in range(b, len(levels)))
                    for got, want in ((s_block[a, b], s_exact[a, b]),
                                      (q_block[a, b], q_exact)):
                        assert abs(mpmath.mpc(got) - want) <= bound * abs(want), (
                            parity, a, b)
                lambda_s = max(lambda_s, np.linalg.eigvalsh(
                    np.array(s_exact.tolist(), dtype=complex))[-1])
                lambda_q = max(lambda_q, np.linalg.norm(
                    np.array(l_inv, dtype=complex), 2) ** 2)
        cond = float(lambda_s * lambda_q)
        assert cond == pytest.approx(expected, rel=1e-3)
        assert g.condition_number == pytest.approx(cond, rel=1e-2)

import cmath
import math
import warnings

import numpy as np
import pytest

from cxho.contour import rotated_path
from cxho.errors import (
    ConvergenceViolatedError,
    IllConditionedWarning,
    NonFiniteSampleError,
    NotNormalizableError,
    ValidityExceededError,
)
from cxho.params import validate
from cxho.wavefunctions import (
    GaussPoly,
    _hermitian_cond,
    coherent_wavefunction,
    cross_gram,
    default_cross_path,
    eigenfunction,
    excited_regulated,
    gram_and_metric,
    ground_regulated,
    hermite,
)

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


class TestExcitedRegulated:
    def test_reduces_to_ground(self, params_tilted):
        gp = excited_regulated(1, 0, params_tilted)
        for q in (0.0, 0.7, 1.3 - 0.1j):
            assert gp(q) == pytest.approx(ground_regulated(1, q, params_tilted),
                                          rel=1e-14)

    def test_regulator_free_matches_eigenfunction(self, params_tilted):
        rng = np.random.default_rng(6)
        qs = rng.normal(size=20) + 0.05j * rng.normal(size=20)
        for basis in (1, 2):
            for n in range(6):
                gp = excited_regulated(basis, n, params_tilted, eps=0, eps_prime=0)
                expected = eigenfunction(basis, n, qs, params_tilted)
                np.testing.assert_allclose(gp(qs), expected, rtol=1e-12)

    def test_first_level_polynomial_part(self, params_real):
        # basis 1, n = 1, regulator-free, m*omega = hbar = 1: the ladder
        # yields 2q and the prefactor sqrt(1/2)*C, so the linear coefficient
        # is sqrt(2)*pi^{-1/4}
        gp = excited_regulated(1, 1, params_real, eps=0, eps_prime=0)
        assert gp.poly_coeffs[0] == 0
        assert gp.poly_coeffs[1] == pytest.approx(math.sqrt(2) * PI ** -0.25,
                                                  rel=1e-14)

    def test_linear_regulator_convergence(self, params_tilted):
        # pointwise error against the regulator-free form scales like eps
        qs = np.array([0.3, 0.9, 1.4])
        errs = []
        for eps in (1e-2, 1e-3):
            gp = excited_regulated(1, 2, params_tilted, eps=eps, eps_prime=eps)
            exact = eigenfunction(1, 2, qs, params_tilted)
            errs.append(np.abs(gp(qs) - exact).max())
        ratio = errs[0] / errs[1]
        assert 5 < ratio < 20


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
            path = default_cross_path(p, 10, n_nodes=600,
                                      half_width=1.5 * 12 * math.sqrt(10))
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
        # S is checked before its condition number, which NaN would poison
        p = validate(0.8 + 0.3j, 0.9 - 0.3j)
        with pytest.raises(NonFiniteSampleError, match="n_max = 128.*Hermite"):
            gram_and_metric(p, 128)

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
        # at n_max 32 S is ill conditioned (>= 1.5e10 at both omega) and the
        # two routes agree only to about cond * eps
        g = gram_and_metric(validate(1, omega), n_max)
        assert g.condition_number == pytest.approx(np.linalg.cond(g.S),
                                                   rel=1e-8, abs=0)

    @pytest.mark.parametrize("mat", [np.diag([2.0, 0.0, -1.0]),
                                     np.zeros((3, 3))], ids=["singular", "zero"])
    def test_singular_condition_number_is_inf(self, mat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _hermitian_cond(mat) == math.inf

    def test_ill_conditioning_reported_not_fatal(self):
        p = validate(cmath.exp(1j * (PI - 0.1)), cmath.exp(-1j * PI / 2))
        assert p.theta == pytest.approx(PI / 2 - 0.1)
        with pytest.warns(IllConditionedWarning):
            g = gram_and_metric(p, 16)
        assert g.condition_number > 1e12


class TestGaussPoly:
    def test_call_matches_manual(self):
        gp = GaussPoly(poly_coeffs=np.array([1.0, 0.0, 2.0]),
                       gauss_scale=0.5 - 0.1j, shift=0.2)
        q = 1.1 + 0.3j
        w = q - 0.2
        manual = (1 + 2 * w * w) * cmath.exp(-0.5 * (0.5 - 0.1j) * w * w)
        assert gp(q) == pytest.approx(manual, rel=1e-14)
        assert gp.degree == 2

    def test_immutable_coeffs(self):
        gp = GaussPoly(poly_coeffs=np.array([1.0]), gauss_scale=1.0)
        with pytest.raises(ValueError):
            gp.poly_coeffs[0] = 3.0

import cmath
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxho import fock
from cxho.errors import (
    CoherentTailWarning,
    DegenerateDivisionError,
    LengthMismatchError,
    NotNormalizableError,
)
from cxho.fock import (
    COHERENT_TAIL_BOUND,
    StateVec,
    build,
    coherent_coeffs,
    commutator_defect,
    conjugation_defect,
    herm_split_defect,
    q_inner,
)
from cxho.params import ANGLE_TOL, validate
from helpers import OPERATORS, dense, dense_build, normalizable_params

PI = math.pi


def unit(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return StateVec(v)


def bits(a):
    """The bit patterns of a complex array; signed zeros compare too."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture
def params_real():
    return validate(1, 1)


@pytest.fixture
def params_tilted():
    return validate(1, cmath.exp(-1j * PI / 6))


class TestBuild:
    def test_ladder_matrices_n2(self, params_real):
        rep = build(params_real, 2)
        np.testing.assert_array_equal(dense(rep.lowering), [[0, 1], [0, 0]])
        np.testing.assert_array_equal(dense(rep.raising), dense(rep.lowering).T)

    def test_real_oscillator_position_entry(self, params_real):
        rep = build(params_real, 4)
        assert dense(rep.q_op)[0, 1] == pytest.approx(1 / math.sqrt(2))

    def test_metric_adjoint_hamiltonian_phase(self, params_tilted):
        rep = build(params_tilted, 8)
        ratio = cmath.exp(1j * PI / 3)
        np.testing.assert_allclose(rep.h_adj, ratio * rep.h, rtol=1e-14)

    def test_not_normalizable_rejected(self):
        p = validate(1, cmath.exp(-1j * PI / 2))
        with pytest.raises(NotNormalizableError):
            build(p, 4)

    def test_too_small_truncation(self, params_real):
        with pytest.raises(ValueError):
            build(params_real, 1)

    def test_ladder_exactness(self, params_tilted):
        rep = build(params_tilted, 10)
        for n in range(9):
            target = math.sqrt(n + 1) * unit(10, n + 1).coeffs
            np.testing.assert_array_equal(
                dense(rep.raising) @ unit(10, n).coeffs, target)
        for n in range(1, 10):
            target = math.sqrt(n) * unit(10, n - 1).coeffs
            np.testing.assert_allclose(
                dense(rep.lowering) @ unit(10, n).coeffs, target,
                rtol=0, atol=0)

    def test_spectrum_diagonal(self, params_tilted):
        rep = build(params_tilted, 12)
        p = params_tilted
        expected = p.hbar * p.omega * (np.arange(12) + 0.5)
        np.testing.assert_array_equal(rep.h[1], expected)
        assert not rep.h[[0, 2]].any()
        herm_eigs = np.linalg.eigvals(dense(rep.h_herm))
        assert np.abs(herm_eigs.imag).max() < 1e-14

    def test_metric_hermitian_coordinates(self, params_tilted):
        rep = build(params_tilted, 10)
        p = params_tilted
        q_direct = math.sqrt(p.hbar / (2 * p.r)) * (rep.lowering + rep.raising)
        p_direct = -1j * math.sqrt(p.hbar * p.r / 2) * (rep.lowering - rep.raising)
        np.testing.assert_allclose(rep.q_herm, q_direct, atol=1e-15)
        np.testing.assert_allclose(rep.p_herm, p_direct, atol=1e-15)
        for op in (dense(rep.q_herm), dense(rep.p_herm)):
            assert np.abs(op - op.conj().T).max() <= 1e-14

    def test_hamiltonian_metric_normal(self, params_tilted):
        rep = build(params_tilted, 8)
        h, h_adj = dense(rep.h), dense(rep.h_adj)
        comm = h_adj @ h - h @ h_adj
        assert np.abs(comm).max() == 0.0


    @given(normalizable_params(), st.integers(2, 96))
    def test_bands_match_dense_construction(self, params, n_max):
        # the dense construction has nothing off the three diagonals, and
        # the stored diagonals carry its bits; the padding is zero
        assert OPERATORS == fock.FockRep._fields[2:]
        rep = build(params, n_max)
        reference = dense_build(params, n_max)
        for name in OPERATORS:
            op, matrix = getattr(rep, name), reference[name]
            assert op.shape == (3, n_max), name
            assert not np.triu(matrix, 2).any(), name
            assert not np.tril(matrix, -2).any(), name
            for k in (-1, 0, 1):
                np.testing.assert_array_equal(
                    bits(op[1 + k, :n_max - abs(k)]),
                    bits(np.diagonal(matrix, k)), name)
            assert op[0, -1] == op[2, -1] == 0, name

    def test_thousand_levels_stay_small(self, params_tilted):
        # ten operators of three diagonals take 480 kB; dense ones peaked
        # at 160 MB
        build(params_tilted, 1000)
        tracemalloc.start()
        try:
            build(params_tilted, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def by_rows(product):
    """The n x n matrix of diagonals stored as ``fock._product`` returns
    them: row 2 + k holds entry (i, i + k) in column i."""
    n = product.shape[1]
    return sum(np.diag(product[2 + k, max(0, -k):n - max(0, k)], k)
               for k in range(-2, 3))


class TestBandArithmetic:
    """The private band helpers against the dense matrices they stand for."""

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_against_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
                for _ in range(2))
        for op in (x, y):
            op[0, -1] = op[2, -1] = 0
        product = fock._product(x, y)
        assert product.shape == (5, n)
        np.testing.assert_allclose(by_rows(product), dense(x) @ dense(y),
                                   rtol=1e-14, atol=1e-14)
        # the conjugate transpose FockRep documents
        np.testing.assert_array_equal(dense(np.conj(x[::-1])), dense(x).conj().T)
        stack = np.stack([product, fock._product(y, x)])
        for stop in range(n + 1):
            expected = [np.abs(by_rows(m)[:stop, :stop]).max(initial=0.0)
                        for m in stack]
            np.testing.assert_array_equal(fock._block_max(stack, stop), expected)


#: c in the bound c * n * eps * scale on each Fock defect at truncation n.
#: Over the parallelogram at n = 2000, a scratch scan found at most 2.6 for
#: the commutators, 2.1 for the Hamiltonian split and 0.5 for conjugation.
DEFECT_C = 8


class TestDefectsAtLargeTruncation:
    @settings(max_examples=40)
    @given(normalizable_params(),
           st.one_of(st.integers(2, 2000), st.sampled_from((1999, 2000))))
    def test_defects_within_linear_bound(self, params, n_max):
        # scales: 1 and hbar for the commutators, the entry scales
        # sqrt(hbar/|m omega|) and sqrt(hbar |m omega|) for conjugation and
        # hbar |omega| for the Hamiltonian split
        rep = build(params, n_max)
        bound = DEFECT_C * n_max * np.finfo(float).eps
        hbar = params.hbar
        assert commutator_defect(rep) <= bound * max(1.0, hbar)
        q_defect, p_defect = conjugation_defect(rep)
        assert q_defect <= bound * math.sqrt(hbar / params.r)
        assert p_defect <= bound * math.sqrt(hbar * params.r)
        if abs(math.cos(params.theta_omega)) <= ANGLE_TOL:
            with pytest.raises(DegenerateDivisionError):
                herm_split_defect(rep)
        else:
            for defect in herm_split_defect(rep):
                assert defect <= bound * hbar * abs(params.omega)


class TestCommutatorDefect:
    def test_restricted_block_exact(self, params_tilted):
        for n in (2, 3, 8, 16):
            rep = build(params_tilted, n)
            assert commutator_defect(rep) <= 1e-14

    def test_full_block_truncation_corner(self, params_real):
        # corner entry of [A, R] - 1 is -n_max; with hbar = 1 the coordinate
        # commutator carries the same size
        for n in (4, 9):
            rep = build(params_real, n)
            assert commutator_defect(rep, full_block=True) == pytest.approx(n, rel=1e-12)


class TestHermSplit:
    def test_real_frequency_has_no_anti_part(self, params_real):
        rep = build(params_real, 8)
        h_defect, a_defect, tan_defect = herm_split_defect(rep)
        assert h_defect < 1e-14
        assert a_defect == 0.0
        assert tan_defect == 0.0

    def test_tilted_split_consistency(self, params_tilted):
        rep = build(params_tilted, 16)
        h_defect, a_defect, tan_defect = herm_split_defect(rep)
        assert h_defect < 1e-12
        assert a_defect < 1e-12
        assert tan_defect < 1e-12

    def test_hermitian_part_diagonal(self, params_tilted):
        rep = build(params_tilted, 12)
        p = params_tilted
        expected = (p.hbar * p.r_omega * math.cos(p.theta_omega)
                    * (np.arange(12) + 0.5))
        np.testing.assert_allclose(rep.h_herm[1], expected, rtol=1e-14)


class TestConjugation:
    def test_hermitian_limit(self, params_real):
        q_defect, p_defect = conjugation_defect(build(params_real, 8))
        assert q_defect == 0.0 and p_defect == 0.0

    def test_tilted(self):
        p = validate(1, cmath.exp(-1j * PI / 4))
        q_defect, p_defect = conjugation_defect(build(p, 12))
        assert q_defect <= 1e-14
        assert p_defect <= 1e-14

    def test_lowering_adjoint_is_raising_exactly(self, params_tilted):
        rep = build(params_tilted, 10)
        np.testing.assert_array_equal(dense(rep.lowering).conj().T,
                                      dense(rep.raising))


class TestCoherentCoeffs:
    def test_vacuum(self):
        v = coherent_coeffs(0.0, 8)
        np.testing.assert_array_equal(v.coeffs, unit(8, 0).coeffs)

    def test_unit_norm(self):
        v = coherent_coeffs(1.0, 32)
        assert abs(v.norm - 1.0) < 1e-12

    def test_eigenstate_of_lowering(self, params_real):
        lam = 0.7 + 0.3j
        rep = build(params_real, 32)
        v = coherent_coeffs(lam, 32)
        lhs = (dense(rep.lowering) @ v.coeffs)[:31]
        np.testing.assert_allclose(lhs, lam * v.coeffs[:31], rtol=0, atol=1e-12)

    def test_tail_warning(self):
        with pytest.warns(CoherentTailWarning):
            coherent_coeffs(1.0, 12)

    @given(st.complex_numbers(min_magnitude=0.05, max_magnitude=6.0),
           st.integers(2, 64))
    def test_tail_mass_matches_incomplete_gamma(self, lam, n_max):
        # the mass beyond the kept levels is the regularized incomplete gamma
        # P(n_max, |lam|^2); with the bound at 0 every mass is reported, down
        # to ~1e-255, where 1 - sum |f_k|^2 would cancel to rounding noise
        exact = float(mpmath.gammainc(n_max, 0, abs(lam) ** 2,
                                      regularized=True))
        with mock.patch.object(fock, "COHERENT_TAIL_BOUND", 0.0):
            with pytest.warns(CoherentTailWarning) as caught:
                coherent_coeffs(lam, n_max)
        [message] = [str(w.message) for w in caught]
        reported = float(message.split()[3])
        # the message carries four significant digits
        assert reported == pytest.approx(exact, rel=1e-3), message
        assert f"beyond level {n_max - 1} exceeds 0;" in message

    @given(st.complex_numbers(max_magnitude=1.5), st.integers(32, 200))
    def test_small_labels_silent_at_default_truncation(self, lam, n_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coherent_coeffs(lam, n_max)

    def test_small_last_coefficient_large_tail_warns(self):
        # |f(31)| = 1.2e-64, but levels 0 .. 31 keep a mass of only 1.2e-127
        with pytest.warns(CoherentTailWarning, match="mass 1.000e"):
            coherent_coeffs(20.0, 32)

    @pytest.mark.parametrize("lam, n_max", [(40.0, 32), (30j, 32), (1e100, 2)])
    def test_zero_kept_mass_raises(self, lam, n_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"lam = .* n_max = {n_max} "):
                coherent_coeffs(lam, n_max)


class TestQInner:
    def test_orthonormal_units(self):
        assert q_inner(unit(4, 0), unit(4, 0)) == 1.0
        assert q_inner(unit(4, 0), unit(4, 1)) == 0.0

    def test_coherent_overlap_formula(self):
        lam_a, lam_b = 0.6 - 0.2j, -0.3 + 0.5j
        overlap = q_inner(coherent_coeffs(lam_b, 40), coherent_coeffs(lam_a, 40))
        expected = cmath.exp(-0.5 * (abs(lam_b) ** 2 - 2 * lam_b.conjugate() * lam_a
                                     + abs(lam_a) ** 2))
        assert overlap == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            q_inner(unit(4, 0), unit(5, 0))


class TestStateVec:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVec(np.array([1.0, np.nan]))

    def test_immutable_contents(self):
        v = unit(3, 0)
        with pytest.raises(ValueError):
            v.coeffs[0] = 2.0

    def test_normalized(self):
        v = StateVec(np.array([3.0, 4.0])).normalized()
        assert v.norm == pytest.approx(1.0)

import cmath
import math
import re
import warnings

import mpmath

import numpy as np
import pytest
from helpers import bands, dense, normalizable_params
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cxho.dynamics import (
    OVERLAP_GUARD,
    WEAK_VALUE_OPERATORS,
    TwoStateSystem,
    coherent_lambda,
    coherent_state_at,
    ehrenfest_residual,
    evolve_a,
    evolve_b,
    overlaps,
    trajectory,
    weak_qp_closed,
    weak_value,
    weak_values,
)
from cxho.errors import CoherentTailWarning, VanishingOverlapError
from cxho.fock import StateVec, build, coherent_coeffs, q_inner
from cxho.params import validate

PI = math.pi


def unit(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return StateVec(v)


@pytest.fixture
def params_damped():
    return validate(1, 1 - 0.1j)


@pytest.fixture
def params_real():
    return validate(1, 1)


class TestEvolve:
    def test_zero_step_identity(self, params_damped):
        v = coherent_coeffs(0.8, 24)
        np.testing.assert_array_equal(evolve_a(v, 0.0, params_damped).coeffs, v.coeffs)
        np.testing.assert_array_equal(evolve_b(v, 0.0, params_damped).coeffs, v.coeffs)

    def test_real_frequency_preserves_norm(self, params_real):
        v = coherent_coeffs(1.0, 32)
        for dt in (0.3, 1.7, -2.1):
            assert evolve_a(v, dt, params_real).norm == pytest.approx(v.norm, rel=1e-13)

    def test_ground_phase_magnitude(self, params_damped):
        out = evolve_a(unit(4, 0), 1.0, params_damped)
        assert abs(out.coeffs[0]) == pytest.approx(math.exp(-0.05), rel=1e-13)

    def test_backward_final_state_shrinks(self, params_damped):
        v = coherent_coeffs(1.0, 32)
        out = evolve_b(v, -1.0, params_damped)
        assert np.all(np.abs(out.coeffs[1:]) <= np.abs(v.coeffs[1:]))
        assert out.norm < v.norm

    def test_pairwise_products_time_independent(self, params_damped):
        a0 = coherent_coeffs(0.7, 28)
        b0 = coherent_coeffs(0.4 - 0.2j, 28)
        ref = np.conj(evolve_b(b0, -3.0, params_damped).coeffs) \
            * evolve_a(a0, -3.0, params_damped).coeffs
        for t in (0.0, 1.3, 4.5):
            prod = np.conj(evolve_b(b0, t - 3.0, params_damped).coeffs) \
                * evolve_a(a0, t - 3.0, params_damped).coeffs
            np.testing.assert_allclose(prod, ref, rtol=1e-12, atol=1e-25)


class TestCoherentLambda:
    def test_quarter_rotation(self, params_real):
        assert coherent_lambda(1.0, PI / 2, "A", params_real) == pytest.approx(-1j)

    def test_zero_step(self, params_damped):
        assert coherent_lambda(0.3 + 0.1j, 0.0, "A", params_damped) == 0.3 + 0.1j

    def test_damped_magnitude(self, params_damped):
        lam = coherent_lambda(1.0, 1.0, "A", params_damped)
        assert abs(lam) == pytest.approx(math.exp(-0.1), rel=1e-13)

    def test_bad_selector(self, params_real):
        with pytest.raises(ValueError):
            coherent_lambda(1.0, 0.0, "C", params_real)


class TestCoherentStateAt:
    def test_zero_step(self, params_damped):
        out = coherent_state_at(0.9, 0.0, "A", 32, params_damped)
        np.testing.assert_allclose(out.coeffs, coherent_coeffs(0.9, 32).coeffs,
                                   rtol=1e-14)

    def test_real_frequency_norm_preserved(self, params_real):
        out = coherent_state_at(1.0, 2.0, "A", 40, params_real)
        assert out.norm == pytest.approx(1.0, abs=1e-12)

    def test_two_route_agreement(self, params_damped):
        # closed form against level-by-level propagation
        for which, evolver in (("A", evolve_a), ("B", evolve_b)):
            closed = coherent_state_at(1.0, 1.0, which, 40, params_damped)
            propagated = evolver(coherent_coeffs(1.0, 40), 1.0, params_damped)
            np.testing.assert_allclose(closed.coeffs, propagated.coeffs,
                                       rtol=0, atol=1e-10)


class TestWeakValue:
    def test_ground_state_energy(self, params_damped):
        rep = build(params_damped, 8)
        e0 = unit(8, 0)
        assert weak_value(rep.h, e0, e0) == pytest.approx(
            params_damped.hbar * params_damped.omega / 2)

    def test_hermitian_operator_diagonal_pair_is_real(self, params_damped):
        rng = np.random.default_rng(3)
        n = 10
        herm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = bands(np.triu(np.tril(herm + herm.conj().T, 1), -1))
        for _ in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = StateVec(v / np.linalg.norm(v))
            val = weak_value(herm, state, state)
            assert abs(val.imag) <= 1e-13 * abs(val)

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_matches_dense_matrix_element(self, n, seed):
        rng = np.random.default_rng(seed)
        op, a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for shape in ((3, n), n, n))
        op[0, -1] = op[2, -1] = 0
        a, b = StateVec(a), StateVec(b)
        expected = np.vdot(b.coeffs, dense(op) @ a.coeffs) / q_inner(b, a)
        assert weak_value(op, a, b) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_overlap(self, params_real):
        rep = build(params_real, 4)
        with pytest.raises(VanishingOverlapError):
            weak_value(rep.h, unit(4, 0), unit(4, 1))


class TestWeakQpClosed:
    def test_zero_labels(self, params_real):
        assert weak_qp_closed(0.0, 0.0, params_real) == (0.0, 0.0)

    def test_substitution(self, params_real):
        q, p = weak_qp_closed(-1j, 1.0, params_real)
        assert q == pytest.approx((1 - 1j) / math.sqrt(2))
        assert p == pytest.approx(-1j * (-1j - 1) / math.sqrt(2))

    def test_matches_matrix_route(self, params_damped):
        n_max = 40
        rep = build(params_damped, n_max)
        t_a, t_b, t = 0.0, 5.0, 1.25
        for lam_a, lam_b in ((1.0, 1.0), (0.8, -0.5 + 0.3j), (-1j, 0.4)):
            sys = TwoStateSystem(coherent_coeffs(lam_a, n_max),
                                 coherent_coeffs(lam_b, n_max),
                                 t_a, t_b, params_damped, rep)
            a_t, b_t = sys.states_at(t)
            lam_a_t = coherent_lambda(lam_a, t - t_a, "A", params_damped)
            lam_b_t = coherent_lambda(lam_b, t - t_b, "B", params_damped)
            q_closed, p_closed = weak_qp_closed(lam_a_t, lam_b_t, params_damped)
            assert weak_value(rep.q_op, a_t, b_t) == pytest.approx(q_closed, abs=1e-9)
            assert weak_value(rep.p_op, a_t, b_t) == pytest.approx(p_closed, abs=1e-9)


class TestEhrenfest:
    @pytest.fixture
    def coherent_system(self, params_damped):
        n_max = 40
        rep = build(params_damped, n_max)
        return TwoStateSystem(coherent_coeffs(1.0, n_max),
                              coherent_coeffs(0.6 + 0.2j, n_max),
                              0.0, 4.0, params_damped, rep)

    def test_small_residuals(self, coherent_system):
        r1, r2 = ehrenfest_residual(coherent_system, 1.0, 1e-3)
        assert abs(r1) < 1e-5
        assert abs(r2) < 1e-5

    def test_second_order_convergence(self, coherent_system):
        r1_coarse, r2_coarse = ehrenfest_residual(coherent_system, 1.0, 2e-2)
        r1_fine, r2_fine = ehrenfest_residual(coherent_system, 1.0, 1e-2)
        assert abs(r1_coarse) / abs(r1_fine) == pytest.approx(4.0, rel=0.1)
        assert abs(r2_coarse) / abs(r2_fine) == pytest.approx(4.0, rel=0.1)

    def test_eigenstate_pair_stationary(self, params_damped):
        rep = build(params_damped, 8)
        sys = TwoStateSystem(unit(8, 0), unit(8, 0), 0.0, 2.0, params_damped, rep)
        r1, r2 = ehrenfest_residual(sys, 1.0, 1e-3)
        assert r1 == 0.0 and r2 == 0.0

    @pytest.mark.parametrize("dt_fd", [0.0, -1e-2, math.nan, math.inf])
    def test_bad_step(self, coherent_system, dt_fd):
        with pytest.raises(ValueError, match=re.escape(
                f"dt_fd must be finite and positive, got {dt_fd!r}")):
            ehrenfest_residual(coherent_system, 1.0, dt_fd)


def one_pair_numerator(bra, op, ket):
    """bra @ op @ ket for operators stored as in FockRep, one matrix-vector
    product (or dot) over the stored entries, as one pair of states."""
    pairs = np.zeros((3, ket.size), dtype=np.complex128)
    pairs[0, :-1], pairs[1], pairs[2, :-1] = bra[1:] * ket[:-1], bra * ket, bra[:-1] * ket[1:]
    return op.reshape(op.shape[:-2] + (-1,)) @ pairs.ravel()


class TestEvolveBatch:
    """``evolve``, ``overlaps`` and ``weak_values`` row by row against the
    one-time route: each state from ``evolve_a``/``evolve_b``, np.vdot for
    the overlap and ``one_pair_numerator`` over it."""

    @settings(max_examples=60)
    @given(params=normalizable_params(), n=st.sampled_from([2, 8, 40, 64]),
           seed=st.integers(0, 2**32 - 1), t_a=st.floats(-5.0, 5.0),
           duration=st.floats(0.01, 10.0), data=st.data())
    def test_rows_have_the_bits_of_one_time(self, params, n, seed, t_a,
                                            duration, data):
        rng = np.random.default_rng(seed)
        a0, b0 = (StateVec(v / np.linalg.norm(v)) for v in
                  rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        t_b = t_a + duration
        rep = build(params, n)
        system = TwoStateSystem(a0, b0, t_a, t_b, params, rep)
        times = data.draw(st.lists(st.floats(t_a, t_b) | st.sampled_from((t_a, t_b)),
                                   min_size=1, max_size=6))
        a, b = system.evolve(times)
        ops = np.array([getattr(rep, name) for name in WEAK_VALUE_OPERATORS])
        amps, weak, single = [], [], []
        for i, t in enumerate(times):
            a_t = evolve_a(a0, t - t_a, params).coeffs
            b_t = evolve_b(b0, t - t_b, params).coeffs
            np.testing.assert_array_equal(a[i], a_t)
            np.testing.assert_array_equal(b[i], b_t)
            np.testing.assert_array_equal(system.states_at(t)[1].coeffs, b_t)
            amps.append(np.vdot(b_t, a_t))
            weak.append(one_pair_numerator(np.conj(b_t), ops, a_t)
                        / complex(amps[-1]))
            single.append(complex(one_pair_numerator(np.conj(b_t), rep.q_op, a_t)
                                  / complex(amps[-1])))
        np.testing.assert_array_equal(overlaps(a, b), amps)
        assume(min(map(abs, amps)) > OVERLAP_GUARD)
        np.testing.assert_array_equal(weak_values(ops, a, b), weak)
        np.testing.assert_array_equal(weak_values(rep.q_op, a, b), single)

    def test_rows_fail_in_time_order(self, params_damped):
        # the overlap of the orthogonal pair vanishes at every time, and the
        # backward phases overflow far past t_b: the earlier row decides,
        # as states_at and weak_value would one time after the other
        rep = build(params_damped, 4)
        system = TwoStateSystem(unit(4, 0), unit(4, 1), 0.0, 1.0,
                                params_damped, rep)
        ops = np.array([rep.q_op, rep.p_op])
        with pytest.raises(VanishingOverlapError, match=r"= 0\.000e\+00$"):
            weak_values(ops, *system.evolve([0.5, 1e5]))
        with pytest.raises(ValueError, match="coeffs must be finite"):
            weak_values(ops, *system.evolve([1e5, 0.5]))
        with pytest.raises(ValueError, match="coeffs must be finite"):
            overlaps(*system.evolve([0.5, 1e5]))
        with pytest.raises(ValueError, match="coeffs must be finite"):
            system.states_at(1e5)


class TestTrajectory:
    def test_amplitude_matches_closed_overlap(self, params_damped):
        n_max = 40
        rep = build(params_damped, n_max)
        lam_a, lam_b = 0.7, 0.3 - 0.4j
        t_b = 2.0
        sys = TwoStateSystem(coherent_coeffs(lam_a, n_max),
                             coherent_coeffs(lam_b, n_max),
                             0.0, t_b, params_damped, rep)
        (amplitude,) = trajectory(sys, [0.0]).amplitude
        omega = params_damped.omega
        phase = cmath.exp(-1j * omega * t_b)
        expected = cmath.exp(-0.5j * omega * t_b) * cmath.exp(
            -0.5 * (abs(lam_a) ** 2 + abs(lam_b) ** 2)
            + np.conj(lam_b) * lam_a * phase)
        assert amplitude == pytest.approx(expected, rel=1e-12)

    def test_amplitude_time_independent(self, params_damped):
        n_max = 30
        rep = build(params_damped, n_max)
        sys = TwoStateSystem(coherent_coeffs(0.9, n_max),
                             coherent_coeffs(-0.2 + 0.5j, n_max),
                             0.0, 3.0, params_damped, rep)
        amps = trajectory(sys, np.linspace(0.0, 3.0, 5)).amplitude
        for amp in amps[1:]:
            assert amp == pytest.approx(amps[0], rel=1e-12)

    def test_ground_pair_constant_samples(self, params_damped):
        rep = build(params_damped, 6)
        sys = TwoStateSystem(unit(6, 0), unit(6, 0), 0.0, 2.0, params_damped, rep)
        traj = trajectory(sys, [0.0, 1.0, 2.0])
        for k in range(1, len(traj)):
            assert traj.amplitude[k] == pytest.approx(traj.amplitude[0], rel=1e-13)
            assert traj.h_herm[k] == pytest.approx(traj.h_herm[0], rel=1e-13)
            assert traj.q_op[k] == traj.q_op[0] == 0.0

    def test_empty_times(self, params_damped):
        rep = build(params_damped, 4)
        sys = TwoStateSystem(unit(4, 0), unit(4, 0), 0.0, 1.0, params_damped, rep)
        traj = trajectory(sys, [])
        assert len(traj) == 0 and traj.kept.size == 0

    def test_orthogonal_pair_skipped(self, params_real):
        rep = build(params_real, 4)
        sys = TwoStateSystem(unit(4, 0), unit(4, 1), 0.0, 1.0, params_real, rep)
        traj = trajectory(sys, [0.5])
        assert len(traj) == 0 and traj.kept.tolist() == [False]

    def test_time_window_enforced(self, params_real):
        rep = build(params_real, 4)
        sys = TwoStateSystem(unit(4, 0), unit(4, 0), 0.0, 1.0, params_real, rep)
        with pytest.raises(ValueError):
            trajectory(sys, [1.5])

    def test_non_finite_states_rejected(self):
        # Im(omega) = 400 lies inside the angle tolerance of the real axis but
        # overflows the forward phases of the upper levels
        params = validate(1, 1e12 + 400j)
        rep = build(params, 8)
        sys = TwoStateSystem(unit(8, 0), unit(8, 0), 0.0, 1.0, params, rep)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                sys.states_at(1.0)
            with pytest.raises(ValueError):
                trajectory(sys, [0.0, 1.0])


@st.composite
def two_state_systems(draw):
    """A boundary pair on the normalizable part of the closed parallelogram.

    The pair is random or orthogonal (every overlap vanishes).  Windows of
    100-400 time units let damping underflow the overlap at some or all times.
    """
    params = draw(normalizable_params())
    n_max = draw(st.integers(2, 96))
    kind = draw(st.sampled_from(("random", "orthogonal")))
    if kind == "orthogonal":
        a0, b0 = unit(n_max, 0), unit(n_max, 1)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a0, b0 = (StateVec(v / np.linalg.norm(v)) for v in
                  rng.standard_normal((2, n_max)) + 1j * rng.standard_normal((2, n_max)))
    t_a = draw(st.floats(-5.0, 5.0))
    t_b = t_a + draw(st.one_of(st.floats(0.01, 10.0), st.floats(100.0, 400.0)))
    return TwoStateSystem(a0, b0, t_a, t_b, params, build(params, n_max))


def window_times(system, max_size=30):
    """Times inside the window, its ends and the 1e-12 slack past them."""
    edges = (system.t_a, system.t_b, system.t_a - 5e-13, system.t_b + 5e-13)
    return st.lists(st.one_of(st.floats(system.t_a, system.t_b),
                              st.sampled_from(edges)), max_size=max_size)


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u) for double precision."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def phase_window(system, t):
    """|omega| (|t - t_a| + |t - t_b| + (t_b - t_a)): the exp arguments of
    either route, summed over one band product, are at most this times
    (n + 1/2)."""
    return abs(system.params.omega) * (abs(t - system.t_a) + abs(t - system.t_b)
                                       + system.t_b - system.t_a)


#: The smallest subnormal: a rounding below the normal range is off by at
#: most half of it.
SUBNORMAL = 2.0**-1074


def magnitudes(system, t, op):
    """sum_k |b_k(t) a_k(t)|, sum_kl |b_k(t) op_kl a_l(t)|, and the factor
    (1 + max |op|) max(1, |time phases|) that scales a subnormal rounding
    carried into the numerator."""
    a, b = system.states_at(t)
    omega = system.params.omega
    phi = max(1.0, math.exp(omega.imag * (t - system.t_a)),
              math.exp(omega.imag * (system.t_b - t)))
    return (np.abs(b.coeffs) @ np.abs(a.coeffs),
            np.abs(b.coeffs) @ np.abs(dense(op)) @ np.abs(a.coeffs),
            (1 + np.abs(op).max()) * phi)


def per_time_route_bounds(system, t, op):
    """Largest |trajectory - per-time route| of the amplitude and of op's
    numerator (b(t)|op|a(t)) at t.

    Every term conj(b_k) op_kl a_l is off by a relative (1 + gamma_K)
    e^eta - 1 in each route, K and eta summed over both (Higham, Accuracy
    and Stability, 3.1 and 3.6: a complex product is within gamma_3, a
    complex dot of length n within gamma_{n+2}; exp, cos and sin are taken
    within 1 ulp, so a complex exp is within gamma_5):

    * trajectory: conj(b0) a0, times D and the band dot (gamma_{n+8}), the
      exp of D (gamma_5), times the time phase, its exp and two additions
      (gamma_10); the amplitude sums n products (gamma_{2n}): K <= 2n + 23.
    * per time: each state is a0 times its exp (gamma_8 twice), then
      op a by its three diagonals and np.vdot (within gamma_{2n+4}):
      K = 2n + 20.
    * exp arguments: -1j*omega is exact, and each argument is within
      gamma_3 of itself (a difference of times, the level factor and the
      duration).  Over a band product the arguments of D and the time
      phase, or of the two states, add up to at most
      (n + 1/2) * phase_window, so eta = gamma_3 (n + 1/2) phase_window.

    Below the normal range a rounding is off by up to SUBNORMAL / 2 instead.
    Within the window no |a0_k|, |b0_k|, |D_k|, |a_k(t)| or |b_k(t)|
    exceeds 1 (Im omega <= 0).  Trajectory's numerator takes <= 48n + 8
    such roundings on to an operator entry and <= 24n + 16 more, each at
    most once times a time phase: <= (72n + 24) times the factor of
    ``magnitudes``; the per-time route's <= 60n on to an operator entry
    and 30n more.  The amplitudes take <= 18n and 28n.
    """
    n = op.shape[1]
    eta = gamma(3) * (n + 0.5) * phase_window(system, t)
    rel = (1 + gamma(4 * n + 43)) * math.exp(eta) - 1
    amplitude, numerator, carried = magnitudes(system, t, op)
    return (rel * amplitude + SUBNORMAL * 23 * n,
            rel * numerator + SUBNORMAL * (66 * n + 27) * carried)


def weak_value_bound(amplitude_bound, numerator_bound, amplitudes, values):
    """Largest |w1 - w2| for two roundings w = N/A of one weak value whose
    numerators differ by numerator_bound and amplitudes by amplitude_bound.

    N1/A1 - N/A = (e_N - w e_A) / A1 for N1 = N + e_N, A1 = A + e_A, and
    each division is within gamma_9 of its quotient.
    """
    smallest = min(map(abs, amplitudes))
    largest = max(map(abs, values))
    return ((numerator_bound + largest * amplitude_bound) / smallest
            + gamma(9) * sum(map(abs, values)) + 2.0**-1070)


def assert_matches_per_time_route(system, times):
    """t bit for bit and the amplitude and weak values within rounding of
    the per-time route (states_at, q_inner and weak_value); every
    column bit for bit against one-time trajectories.  Where the per-time
    route keeps a time that trajectory skips, or the other way round, its
    |amplitude| lies within rounding of OVERLAP_GUARD.  Returns the
    trajectory."""
    traj = trajectory(system, times)
    kept = bool(traj.kept.all())
    assert traj.kept.tolist() == [kept] * len(times)
    assert traj.t.tolist() == (list(times) if kept else [])
    for i, t in enumerate(times):
        row = trajectory(system, [t])
        assert row.kept.tolist() == [kept]
        a, b = system.states_at(t)
        amplitude = q_inner(b, a)
        amplitude_bound, _ = per_time_route_bounds(system, t, system.rep.q_op)
        if (abs(amplitude) > OVERLAP_GUARD) != kept:
            assert abs(abs(amplitude) - OVERLAP_GUARD) <= amplitude_bound, t
        if not kept:
            continue
        for name in ("t", "amplitude") + WEAK_VALUE_OPERATORS:
            assert getattr(row, name)[0] == getattr(traj, name)[i], name
        assert abs(traj.amplitude[i] - amplitude) <= amplitude_bound, t
        for name in WEAK_VALUE_OPERATORS:
            op = getattr(system.rep, name)
            got, per_time = getattr(traj, name)[i], weak_value(op, a, b)
            assert abs(got - per_time) <= weak_value_bound(
                *per_time_route_bounds(system, t, op),
                (traj.amplitude[i], amplitude), (got, per_time)), (name, t)
    return traj


def mp_amplitude(system):
    """sum_k conj(b0_k) a0_k exp(-i omega (k+1/2) (t_b - t_a)) at 40 digits,
    from the double inputs."""
    with mpmath.workdps(40):
        omega = mpmath.mpc(system.params.omega)
        duration = mpmath.mpf(system.t_b) - mpmath.mpf(system.t_a)
        return complex(mpmath.fsum(
            mpmath.conj(mpmath.mpc(b)) * mpmath.mpc(a)
            * mpmath.exp(-1j * omega * (k + mpmath.mpf(0.5)) * duration)
            for k, (a, b) in enumerate(zip(system.a0.coeffs.tolist(),
                                           system.b0.coeffs.tolist()))))


class TestTrajectoryMatchesPerTimeRoute:
    @given(st.data())
    def test_every_column_matches(self, data):
        system = data.draw(two_state_systems())
        times = data.draw(window_times(system))
        assert_matches_per_time_route(system, times)

    def test_partly_vanishing_overlap(self):
        # the per-time route keeps some of these times and skips others, by
        # rounding: |amplitude| sits just below OVERLAP_GUARD
        params = validate(1, 1 - 137.95510557964275j)
        state = coherent_coeffs(1.0, 32).normalized()
        system = TwoStateSystem(state, state, 0.0, 10.0, params, build(params, 32))
        exact = abs(mp_amplitude(system))
        assert exact == pytest.approx(9.99999999999966e-301, rel=1e-13)
        assert exact < OVERLAP_GUARD
        traj = assert_matches_per_time_route(
            system, np.linspace(0.0, 10.0, 401).tolist())
        assert traj.kept.size == 401 and not traj.kept.any()

    @given(st.data())
    def test_nan_or_outside_time_rejected(self, data):
        system = data.draw(two_state_systems())
        times = data.draw(window_times(system, max_size=10))
        bad = data.draw(st.sampled_from((
            math.nan, math.inf, -math.inf, system.t_a - 1e-9, system.t_b + 1e-9)))
        times.insert(data.draw(st.integers(0, len(times))), bad)
        with pytest.raises(ValueError, match="outside"):
            trajectory(system, times)


class TestCoherentSeries:
    """trajectory against the coherent closed forms at every time.

    For coherent boundary states truncated at n levels, sqrt(k+1) a_{k+1}
    = lam_a(t) a_k, so (b|A|a) = lam_a(t) ((b|a) - T) and (b|A^+|a) =
    conj(lam_b(t)) ((b|a) - T) with T = conj(b_{n-1}) a_{n-1}, exactly.
    The q and p weak values are therefore weak_qp_closed times 1 - T/(b|a),
    q_herm and p_herm those times e^{i theta/2} and e^{-i theta/2}, and
    since k conj(b_k) a_k = conj(lam_b(t)) lam_a(t) conj(b_{k-1}) a_{k-1},
    h_herm is hbar Re(omega) (conj(lam_b(t)) lam_a(t) (1 - T/(b|a)) + 1/2).
    The amplitude is the untruncated closed form less the levels >= n.
    Each level beyond n - 1 multiplies |conj(b_k) a_k| by at most
    r = |lam_a lam_b| / n and |D_k| by at most 1, so those levels add up
    to at most |T| r / (1 - r).
    """

    @given(params=normalizable_params(),
           lam_a=st.complex_numbers(max_magnitude=3.0),
           lam_b=st.complex_numbers(max_magnitude=3.0),
           n_max=st.integers(2, 96), data=st.data())
    def test_q_p_and_amplitude_match_closed_forms(self, params, lam_a, lam_b,
                                                  n_max, data):
        r = abs(lam_a * lam_b) / n_max
        assume(r < 1)
        with warnings.catch_warnings():
            # the tail is part of the tolerance
            warnings.simplefilter("ignore", CoherentTailWarning)
            f_a, f_b = coherent_coeffs(lam_a, n_max), coherent_coeffs(lam_b, n_max)
        t_a = data.draw(st.floats(-5.0, 5.0))
        t_b = t_a + data.draw(st.one_of(st.floats(0.01, 10.0),
                                        st.floats(100.0, 400.0)))
        system = TwoStateSystem(f_a.normalized(), f_b.normalized(), t_a, t_b,
                                params, build(params, n_max))
        times = data.draw(window_times(system))
        traj = trajectory(system, times)

        omega, duration, scale = params.omega, t_b - t_a, f_a.norm * f_b.norm
        # the computed coefficients against the exact ones: f(0) from
        # exp(-|lam|^2/2), then a complex product, a sqrt and a division per
        # level, then the division by the norm, for each state
        coeff = ((1 + gamma(6 * n_max + 4)) ** 2
                 * math.exp(gamma(5) * (abs(lam_a) ** 2 + abs(lam_b) ** 2) / 2))
        # |T| (b|a) in the unnormalized coefficients; a coefficient that
        # underflows is off by at most n_max subnormals.  |D_{n-1}| from an
        # exp argument raised by its gamma_3 rounding (Im omega <= 0).
        tail = ((abs(f_a.coeffs[-1]) + n_max * SUBNORMAL)
                * (abs(f_b.coeffs[-1]) + n_max * SUBNORMAL) * coeff
                * math.exp(omega.imag * (n_max - 0.5) * duration * (1 - gamma(3)))
                * (1 + gamma(2)) / scale)
        # the closed amplitude's own arithmetic: its outer exp argument is
        # within gamma_2 |omega| T / 2 of itself, the inner one X, with
        # |X| <= quadratic, within quadratic ((1 + gamma_11) e^(gamma_2
        # |omega| T) - 1); two exps, their product and the division by the
        # norms add gamma_15
        quadratic = abs(lam_a) ** 2 + abs(lam_b) ** 2 + abs(lam_a * lam_b)
        closed_rel = (1 + gamma(15)) * math.exp(
            gamma(2) * abs(omega) * duration / 2
            + quadratic * ((1 + gamma(11))
                           * math.exp(gamma(2) * abs(omega) * duration) - 1)) - 1
        closed = cmath.exp(-0.5j * omega * duration) * cmath.exp(
            -0.5 * (abs(lam_a) ** 2 + abs(lam_b) ** 2)
            + np.conj(lam_b) * lam_a * cmath.exp(-1j * omega * duration)) / scale
        half_turn = cmath.exp(0.5j * params.theta)
        hbar_re = params.hbar * omega.real
        for i, t in enumerate(times):
            # trajectory's share of per_time_route_bounds, with the
            # operator entries' sqrt(k) and product as two more roundings
            # (for h_herm, the products with hbar and with k + 1/2)
            eta = gamma(3) * (n_max + 0.5) * phase_window(system, t)
            rel = coeff * (1 + gamma(2 * n_max + 25)) * math.exp(eta) - 1
            amp_rounding = (rel * magnitudes(system, t, system.rep.q_op)[0]
                            + SUBNORMAL * 9 * n_max)
            amp_bound = (amp_rounding + tail * r / (1 - r)
                         + closed_rel * abs(closed) + 2.0**-1070)
            if not traj.kept.all():
                assert abs(closed) <= OVERLAP_GUARD + amp_bound
                continue
            amplitude = traj.amplitude[i]
            assert abs(amplitude - closed) <= amp_bound, t
            truncated = abs(amplitude) - amp_rounding  # <= |(b|a)|
            if truncated <= 0:
                continue
            lam_a_t = coherent_lambda(lam_a, t - t_a, "A", params)
            lam_b_t = coherent_lambda(lam_b, t - t_b, "B", params)
            # each label: the difference of times, the product and the exp
            # in its argument, its exp and the product with lam; then the
            # sum and the product with the coefficient
            labels = (1 + gamma(12)) * math.exp(
                gamma(2) * abs(omega) * (abs(t - t_a) + abs(t - t_b))) - 1
            q, p = weak_qp_closed(lam_a_t, lam_b_t, params)
            q_err, p_err = (abs(coefficient) * (abs(lam_a_t) + abs(lam_b_t))
                            * labels for coefficient in (
                                np.sqrt(params.hbar / (2 * params.momega)),
                                np.sqrt(params.hbar * params.momega / 2)))
            # the q_herm and p_herm entries and closed values take one more
            # product with, or Smith quotient by, the unit half_turn: within
            # gamma_14 normwise, gamma_16 with |half_turn| - 1 and the
            # second-order terms
            herm_k = 16
            herm = gamma(herm_k)
            q_herm, p_herm = half_turn * q, p / half_turn
            # h: each label within labels, their product, the sum with 1/2
            # and the product with hbar Re(omega) (gamma_4 of the result)
            band = np.conj(lam_b_t) * lam_a_t
            h_herm = hbar_re * (band + 0.5)
            h_err = (abs(hbar_re) * abs(lam_a_t) * abs(lam_b_t)
                     * ((1 + labels) ** 3 - 1) + gamma(4) * abs(h_herm))
            # name -> closed value, its rounding, the part that 1 - T/(b|a)
            # scales and the extra roundings of the operator entries
            columns = {
                "q_op": (q, q_err, abs(q) + q_err, 0),
                "p_op": (p, p_err, abs(p) + p_err, 0),
                "q_herm": (q_herm, (1 + herm) * q_err + herm * abs(q_herm),
                           (1 + herm) * (abs(q) + q_err), herm_k),
                "p_herm": (p_herm, (1 + herm) * p_err + herm * abs(p_herm),
                           (1 + herm) * (abs(p) + p_err), herm_k),
                "h_herm": (h_herm, h_err, abs(hbar_re * band) + h_err, 0),
            }
            assert tuple(columns) == WEAK_VALUE_OPERATORS
            for name, (value, closed_err, scaled, extra) in columns.items():
                got = getattr(traj, name)[i]
                amp_sum, num_sum, carried = magnitudes(
                    system, t, getattr(system.rep, name))
                op_rel = (coeff * (1 + gamma(2 * n_max + 25 + extra))
                          * math.exp(eta) - 1)
                bound = (weak_value_bound(
                    rel * amp_sum + SUBNORMAL * 9 * n_max,
                    op_rel * num_sum + SUBNORMAL * (36 * n_max + 12) * carried,
                    (amplitude,), (got, value))
                         + scaled * tail / truncated
                         + closed_err)
                assert abs(got - value) <= bound, (name, t)


class TestTwoStateSystem:
    def test_requires_normalized_states(self, params_real):
        rep = build(params_real, 4)
        bad = StateVec(np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            TwoStateSystem(bad, unit(4, 0), 0.0, 1.0, params_real, rep)

    def test_q_norm_is_metric_norm(self, params_damped):
        v = coherent_coeffs(0.5, 24)
        assert q_inner(v, v).real == pytest.approx(v.norm**2, rel=1e-13)

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
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
    trajectory,
    weak_qp_closed,
    weak_value,
)
from cxho.errors import VanishingOverlapError
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
        herm = herm + herm.conj().T
        for _ in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = StateVec(v / np.linalg.norm(v))
            val = weak_value(herm, state, state)
            assert abs(val.imag) <= 1e-13 * abs(val)

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

    def test_bad_step(self, coherent_system):
        with pytest.raises(ValueError):
            ehrenfest_residual(coherent_system, 1.0, 0.0)


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
    """A boundary pair anywhere on the normalizable part of the closed
    parallelogram, the domain edges and region lines weighted up.

    The pair is random or orthogonal (every overlap vanishes).  Windows of
    100-400 time units let damping underflow the overlap at some or all times.
    """
    theta_m = draw(st.one_of(st.floats(0.0, PI), st.sampled_from((0.0, PI / 2, PI))))
    s = draw(st.one_of(st.floats(-PI, 0.0), st.sampled_from((0.0, -PI / 2, -PI))))
    radius = st.floats(0.25, 4.0)
    params = validate(draw(radius) * cmath.exp(1j * theta_m),
                      draw(radius) * cmath.exp(0.5j * (s - theta_m)))
    assume(params.normalizable)
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


def per_time_reference(system, times):
    """The trajectory columns built one time at a time from states_at,
    q_inner and weak_value, and the kept mask."""
    kept, rows = [], []
    for t in times:
        a, b = system.states_at(t)
        amplitude = q_inner(b, a)
        kept.append(abs(amplitude) > OVERLAP_GUARD)
        if kept[-1]:
            rows.append([t, amplitude] + [weak_value(getattr(system.rep, name), a, b)
                                          for name in WEAK_VALUE_OPERATORS])
    columns = [np.array(col) for col in zip(*rows)] or [np.array([])] * 7
    return dict(zip(("t", "amplitude") + WEAK_VALUE_OPERATORS, columns)), kept


class TestTrajectoryMatchesPerTimeRoute:
    @given(st.data())
    def test_every_column_bit_identical(self, data):
        system = data.draw(two_state_systems())
        times = data.draw(window_times(system))
        traj = trajectory(system, times)
        expected, kept = per_time_reference(system, times)
        assert traj.kept.tolist() == kept
        assert len(traj) == sum(kept)
        for name, column in expected.items():
            got = getattr(traj, name)
            assert got.shape == column.shape, name
            assert (got == column).all(), name

    def test_partly_vanishing_overlap(self):
        # |amplitude| sits at OVERLAP_GUARD here, so rounding keeps some times
        # and skips others
        params = validate(1, 1 - 137.95510557964275j)
        state = coherent_coeffs(1.0, 32).normalized()
        system = TwoStateSystem(state, state, 0.0, 10.0, params, build(params, 32))
        times = np.linspace(0.0, 10.0, 401)
        traj = trajectory(system, times)
        expected, kept = per_time_reference(system, times.tolist())
        assert 0 < sum(kept) < len(kept)
        assert traj.kept.tolist() == kept
        for name, column in expected.items():
            assert (getattr(traj, name) == column).all(), name

    @given(st.data())
    def test_nan_or_outside_time_rejected(self, data):
        system = data.draw(two_state_systems())
        times = data.draw(window_times(system, max_size=10))
        bad = data.draw(st.sampled_from((
            math.nan, math.inf, -math.inf, system.t_a - 1e-9, system.t_b + 1e-9)))
        times.insert(data.draw(st.integers(0, len(times))), bad)
        with pytest.raises(ValueError, match="outside"):
            trajectory(system, times)


class TestTwoStateSystem:
    def test_requires_normalized_states(self, params_real):
        rep = build(params_real, 4)
        bad = StateVec(np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            TwoStateSystem(bad, unit(4, 0), 0.0, 1.0, params_real, rep)

    def test_q_norm_is_metric_norm(self, params_damped):
        v = coherent_coeffs(0.5, 24)
        assert q_inner(v, v).real == pytest.approx(v.norm**2, rel=1e-13)

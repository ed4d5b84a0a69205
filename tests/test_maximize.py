import cmath
import math
import warnings

import numpy as np
import pytest
from helpers import (amplitudes_matmul, assert_same_outcome,
                     max_weak_values_bra, normalizable_params, splitmix64,
                     splitmix64_uniform)
from hypothesis import given
from hypothesis import strategies as st

from cxho.dynamics import TwoStateSystem, level_phases, trajectory
from cxho import maximize as mx
from cxho.errors import LengthMismatchError, VanishingOverlapError
from cxho.fock import StateVec, build
from cxho.maximize import (
    amplitude,
    amplitudes,
    analytic_max,
    max_weak_values,
    maximize,
    uniform_draws,
)
from cxho.params import validate

PI = math.pi


def unit(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return StateVec(v)


def random_unit_pair(rng, n):
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (StateVec(a / np.linalg.norm(a)), StateVec(b / np.linalg.norm(b)))


@pytest.fixture
def params_damped():
    return validate(1, 1 - 0.2j)


@pytest.fixture
def params_real():
    return validate(1, 1)


class TestAmplitude:
    def test_ground_pair_closed_form(self, params_damped):
        amp = amplitude(unit(6, 0), unit(6, 0), 10.0, params_damped)
        assert amp == pytest.approx(cmath.exp(-0.5j * params_damped.omega * 10.0))
        assert abs(amp) == pytest.approx(math.exp(0.5 * 10.0 * (-0.2)), rel=1e-12)

    def test_orthogonal_pair(self, params_damped):
        assert amplitude(unit(6, 0), unit(6, 1), 10.0, params_damped) == 0.0

    def test_real_frequency_triangle_bound(self, params_real):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = random_unit_pair(rng, 12)
            assert abs(amplitude(a, b, 3.0, params_real)) <= 1.0 + 1e-12

    def test_length_mismatch(self, params_real):
        with pytest.raises(LengthMismatchError):
            amplitude(unit(4, 0), unit(5, 0), 1.0, params_real)


@st.composite
def admissible_params(draw):
    """Parameters inside the parallelogram: real omega, |Im w|/|w|
    log-uniform in [1e-12, 1], or 1-200i, whose kernel underflows."""
    kind = draw(st.sampled_from(["real", "damped", "underflow"]))
    if kind == "underflow":
        return validate(1, 1 - 200j)
    magnitude = draw(st.floats(0.5, 2.0))
    if kind == "real":
        return validate(1, magnitude)
    theta_w = -math.asin(10.0 ** draw(st.floats(-12.0, 0.0)))
    # any arg m in [0, -2 theta_w] keeps arg m + 2 arg w inside [-pi, 0]
    arg_m = -2 * theta_w * draw(st.floats(0.0, 1.0))
    return validate(cmath.rect(1.0, arg_m), cmath.rect(magnitude, theta_w))


class TestAmplitudes:
    @given(params=admissible_params(), pairs=st.integers(1, 300),
           n=st.integers(2, 64), duration=st.floats(1.0, 20.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_one_pair_computation(self, params, pairs, n,
                                             duration, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal((pairs, n))
                + 1j * rng.standard_normal((pairs, n)) for _ in range(2))
        amps = amplitudes(a, b, duration, params)
        kernel = level_phases(params.omega, duration, n)
        assert np.array_equal(
            amps, [np.vdot(b[i], kernel * a[i]) for i in range(pairs)])
        assert np.hypot(amps.real, amps.imag).tolist() == [
            abs(amplitude(StateVec(a[i]), StateVec(b[i]), duration, params))
            for i in range(pairs)]


class TestFormerForms:
    """``amplitudes`` and ``max_weak_values`` go through ``dynamics``'
    overlaps and weak values; their former forms must have the same bits."""

    @given(params=normalizable_params(), n=st.sampled_from([2, 8, 32]),
           duration=st.floats(0.1, 20.0), seed=st.integers(0, 2**16))
    def test_match_former_forms(self, params, n, duration, seed):
        units = mx.unit_pairs(seed, 16, n)
        a, b = units[:, 0], units[:, 1]
        assert_same_outcome(lambda: amplitudes(a, b, duration, params),
                            lambda: amplitudes_matmul(a, b, duration, params))
        rep = build(params, n)
        result = maximize(duration, params, n, seed=seed)
        drawn = result._replace(a=StateVec(a[0]), b=StateVec(b[0]))
        for res in (result, drawn):
            assert_same_outcome(lambda: max_weak_values(res, rep),
                                lambda: max_weak_values_bra(res, rep))


class TestUniformDraws:
    def test_reference_matches_published_output(self):
        # the first output of SplitMix64 seeded with 1234567
        assert splitmix64(1234567, 1) == [6457827717110365317]

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234567, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("shape", [(0,), (1,), (5,), (2, 8), (3, 4, 5)])
    def test_bits_match_python_integers(self, seed, shape):
        draws = uniform_draws(seed, shape)
        expected = np.array(splitmix64_uniform(seed, math.prod(shape)))
        assert draws.shape == shape and draws.dtype == np.float64
        assert np.array_equal(draws.ravel().view(np.uint64),
                              expected.view(np.uint64))

    @given(seed=st.integers(0, 2**64 - 1))
    def test_draws_are_53_bit_grid_points_of_the_half_open_interval(self, seed):
        draws = uniform_draws(seed, (64,))
        assert ((-1.0 <= draws) & (draws < 1.0)).all()
        assert np.array_equal(np.ldexp(draws, 52) % 1, np.zeros(64))

    def test_distinct_seeds_give_distinct_draws(self):
        seeds = [0, 1, 2, 3, 7, 12345, 2**32, 2**63, 2**64 - 1]
        rows = {uniform_draws(seed, (8,)).tobytes() for seed in seeds}
        assert len(rows) == len(seeds)
        firsts = {mx.unit_pairs(seed, 1, 4).tobytes() for seed in range(200)}
        assert len(firsts) == 200

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_state_range_raises(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            uniform_draws(seed, (2,))
        with pytest.raises(ValueError, match="seed must be in"):
            maximize(10.0, validate(1, 1 - 0.2j), 4, seed=seed)

    @given(seed=st.integers(0, 2**64 - 1), pairs=st.integers(1, 50),
           n=st.integers(1, 64))
    def test_unit_pairs_have_unit_norm(self, seed, pairs, n):
        units = mx.unit_pairs(seed, pairs, n)
        assert units.shape == (pairs, 2, n)
        norms = np.linalg.norm(units, axis=-1)
        assert np.abs(norms - 1.0).max() <= 4 * n * np.finfo(float).eps


class TestAnalyticMax:
    def test_damped_value_and_argmax(self, params_damped):
        value, levels = analytic_max(10.0, params_damped, 8)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert levels == (0,)

    def test_degenerate_full_set(self, params_real):
        value, levels = analytic_max(10.0, params_real, 5)
        assert value == 1.0
        assert levels == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("omega, duration, expected", [
        (1 - 1e-13j, 1e13, math.exp(-0.5)), (1 - 1e-300j, 1e306, 0.0)])
    def test_degenerate_branch_keeps_the_duration(self, omega, duration,
                                                  expected):
        # |Im w|/|w| < DEGENERACY_RTOL counts every level as a maximizer,
        # but the supremum is still exp(T Im w / 2), which maximize reaches
        params = validate(1, omega)
        value, levels = analytic_max(duration, params, 4)
        assert levels == (0, 1, 2, 3)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        res = maximize(duration, params, 4, seed=0)
        assert res.degenerate and res.converged
        assert res.analytic_max == value
        assert res.amplitude_abs == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_short_duration_limit(self, params_damped):
        value, _ = analytic_max(1e-12, params_damped, 4)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_bad_duration(self, params_damped):
        with pytest.raises(ValueError):
            analytic_max(0.0, params_damped, 4)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_non_finite_duration_rejected(self, params_damped, duration):
        # before any sweep, so no numpy warning is raised either
        for call in (analytic_max, maximize):
            with pytest.raises(ValueError, match="finite and positive"):
                call(duration, params_damped, 4)


class TestMaximize:
    def test_seeded_starts_reach_ground_state(self, params_damped):
        for seed in range(10):
            res = maximize(10.0, params_damped, 8, seed=seed)
            assert res.converged
            assert res.ground_overlap > 1 - 1e-6
            assert abs(res.amplitude_abs - math.exp(-1.0)) <= 1e-9
            assert res.seed == seed

    def test_upper_bound_on_random_pairs(self, params_damped):
        rng = np.random.default_rng(0)
        best, _ = analytic_max(10.0, params_damped, 8)
        for _ in range(200):
            a, b = random_unit_pair(rng, 8)
            assert abs(amplitude(a, b, 10.0, params_damped)) <= best + 1e-12

    def test_near_maximal_pairs_concentrate_on_ground(self, params_damped):
        rng = np.random.default_rng(1)
        best, _ = analytic_max(10.0, params_damped, 8)
        checked = 0
        for scale in (1e-5, 1e-3, 0.05, 0.3, 1.0):
            for _ in range(40):
                da, db = random_unit_pair(rng, 8)
                a = StateVec(unit(8, 0).coeffs + scale * da.coeffs).normalized()
                b = StateVec(unit(8, 0).coeffs + scale * db.coeffs).normalized()
                amp = abs(amplitude(a, b, 10.0, params_damped))
                if amp >= best * (1 - 1e-9):
                    checked += 1
                    assert abs(a.coeffs[0]) >= 1 - 1e-4
                    assert abs(b.coeffs[0]) >= 1 - 1e-4
        assert checked > 0

    def test_degenerate_case_keeps_start_direction(self, params_real):
        res = maximize(10.0, params_real, 8, seed=3)
        assert res.degenerate
        assert res.converged
        assert res.iterations == 1
        assert res.amplitude_abs == pytest.approx(1.0, abs=1e-12)
        draws = splitmix64_uniform(3, 16)
        v = np.array(draws[:8]) + 1j * np.array(draws[8:])
        v /= np.linalg.norm(v)
        v *= abs(v[0]) / v[0]
        assert abs(np.vdot(res.a.coeffs, v)) == pytest.approx(1.0, abs=1e-12)

    def test_ground_start_converges_immediately(self, params_damped):
        res = maximize(10.0, params_damped, 8, start=unit(8, 0))
        assert res.converged
        assert res.iterations == 1
        assert res.seed is None

    def test_amplitude_history_non_decreasing(self, params_damped):
        res = maximize(10.0, params_damped, 8, seed=5)
        hist = np.array(res.history)
        assert np.all(np.diff(hist) >= -1e-15)

    def test_result_invariants(self, params_damped):
        res = maximize(10.0, params_damped, 8, seed=2)
        assert res.a.norm == pytest.approx(1.0, abs=1e-12)
        assert res.b.norm == pytest.approx(1.0, abs=1e-12)
        assert res.amplitude_abs <= res.analytic_max + 1e-12
        assert res.a.coeffs[0].imag == pytest.approx(0.0, abs=1e-15)
        assert res.a.coeffs[0].real > 0

    def test_not_converged_flag(self, params_damped):
        res = maximize(10.0, params_damped, 8, seed=0, max_iters=1, tol=1e-30)
        assert not res.converged
        assert res.iterations == 1

    def test_bad_arguments(self, params_damped):
        with pytest.raises(ValueError):
            maximize(-1.0, params_damped, 8)
        with pytest.raises(ValueError):
            maximize(1.0, params_damped, 1)
        with pytest.raises(LengthMismatchError):
            maximize(1.0, params_damped, 8, start=unit(4, 0))


class TestRepeatedSquaring:
    """Sweep k applies |D|^(2*2^k), so near-real omega converges fast."""

    @given(log_ratio=st.floats(-8.0, 0.0), duration=st.floats(1.0, 20.0),
           magnitude=st.floats(0.5, 2.0), arg_share=st.floats(0.0, 1.0),
           n_max=st.integers(2, 64))
    def test_converges_to_ground_pair(self, log_ratio, duration, magnitude,
                                      arg_share, n_max):
        # |Im w|/|w| log-uniform in [1e-8, 1]; any arg m in [0, -2 arg w]
        # keeps arg m + 2 arg w inside [-pi, 0]
        theta_w = -math.asin(10.0 ** log_ratio)
        params = validate(cmath.rect(1.0, -2 * theta_w * arg_share),
                          cmath.rect(magnitude, theta_w))
        best, _ = analytic_max(duration, params, n_max)
        sweeps = math.ceil(math.log2(40 / (duration * abs(params.omega.imag)))) + 8
        for seed in range(3):
            res = maximize(duration, params, n_max, seed=seed)
            assert res.converged
            assert 1 - res.ground_overlap <= 1e-6
            assert abs(res.amplitude_abs - best) <= 1e-8 * best
            assert np.all(np.diff(res.history) >= -1e-15)
            assert res.iterations <= sweeps

    @pytest.mark.parametrize("im", [5e-324, 1e-310, 1e-300, 1e-20, 1e-14])
    def test_tiny_imaginary_part_stays_finite(self, im):
        params = validate(1, complex(1.0, -im))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = maximize(10.0, params, 32, seed=0)
        assert res.degenerate
        assert res.converged
        assert np.isfinite(res.a.coeffs).all() and np.isfinite(res.b.coeffs).all()
        assert np.isfinite(res.history).all()
        assert res.amplitude_abs == pytest.approx(1.0, abs=1e-12)

    def test_doubling_past_overflow_stays_finite(self, params_damped):
        # tol 0 is never met, so the exponent 2^k * 2T Im(omega) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = maximize(10.0, params_damped, 8, seed=0, tol=0.0,
                           max_iters=2000)
        assert not res.converged
        assert res.iterations == 2000
        assert res.ground_overlap == 1.0
        assert res.amplitude_abs == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_start_where_kernel_underflows_is_rejected(self):
        # exp(-2000 n) is 0 from level 1 on, so e_3's kernel image is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VanishingOverlapError, match="underflows"):
                maximize(10.0, validate(1, 1 - 200j), 8, start=unit(8, 3))

    @pytest.mark.parametrize("coeffs", [np.zeros(8), np.full(8, 1e308)],
                             ids=["zero", "norm-overflows"])
    def test_start_without_finite_norm_is_rejected(self, params_damped,
                                                   monkeypatch, coeffs):
        # rejected before the start is normalized, so before any sweep
        def normalized(vec):
            pytest.fail("the start was normalized")

        monkeypatch.setattr(mx, "_fix_phase", normalized)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="start must have a finite"):
                maximize(10.0, params_damped, 8, start=StateVec(coeffs))

    def test_start_without_ground_level_stays_finite(self, params_damped):
        # power iteration keeps a start inside its invariant subspace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = maximize(10.0, params_damped, 8, start=unit(8, 3))
        assert res.converged
        assert np.array_equal(res.a.coeffs, unit(8, 3).coeffs)
        assert res.amplitude_abs == pytest.approx(math.exp(-7.0), rel=1e-14)


class TestMaxWeakValues:
    def test_classical_solution_vanishes(self, params_damped):
        res = maximize(10.0, params_damped, 8, seed=0)
        rep = build(params_damped, 8)
        q, p, h = max_weak_values(res, rep)
        assert abs(q) <= 1e-10
        assert abs(p) <= 1e-10
        # r_omega cos(theta_omega) = Re(omega) = 1
        assert h == pytest.approx(0.5, abs=1e-12)

    def test_values_constant_in_time(self, params_damped):
        res = maximize(10.0, params_damped, 8, seed=1)
        rep = build(params_damped, 8)
        q0, p0, h0 = max_weak_values(res, rep)
        sys = TwoStateSystem(res.a, res.b, 0.0, 10.0, params_damped, rep)
        traj = trajectory(sys, [0.0, 4.0, 10.0])
        for q, p, h in zip(traj.q_herm, traj.p_herm, traj.h_herm):
            assert q == pytest.approx(q0, abs=1e-12)
            assert p == pytest.approx(p0, abs=1e-12)
            assert h == pytest.approx(h0, abs=1e-12)

    def test_degenerate_values_returned(self, params_real):
        res = maximize(5.0, params_real, 6, seed=0)
        rep = build(params_real, 6)
        q, p, h = max_weak_values(res, rep)
        assert res.degenerate
        assert np.isfinite([abs(q), abs(p), abs(h)]).all()


class TestDegenerateAlignedPairs:
    def test_phase_aligned_magnitude_profiles_reach_one(self, params_real):
        # b_n chosen so theta_{a_n} - theta_{b_n} - T*Re(omega)*(n+1/2) is a
        # constant phase; |amplitude| then reaches the degenerate maximum 1
        duration = 7.0
        rng = np.random.default_rng(9)
        profiles = [
            np.ones(10) / math.sqrt(10),
            np.sqrt(np.arange(1, 11, dtype=float) / np.arange(1, 11).sum()),
            rng.uniform(0.1, 1.0, 10),
        ]
        for mags in profiles:
            mags = mags / np.linalg.norm(mags)
            phases_a = rng.uniform(0, 2 * PI, 10)
            theta_c = 0.37
            levels = np.arange(10) + 0.5
            phases_b = phases_a - duration * params_real.omega.real * levels - theta_c
            a = StateVec(mags * np.exp(1j * phases_a))
            b = StateVec(mags * np.exp(1j * phases_b))
            amp = amplitude(a, b, duration, params_real)
            assert abs(amp) == pytest.approx(1.0, abs=1e-12)
            res = maximize(duration, params_real, 10, start=a)
            assert res.degenerate
            assert res.amplitude_abs == pytest.approx(1.0, abs=1e-12)

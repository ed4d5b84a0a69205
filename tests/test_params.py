import cmath
import math
import re

import numpy as np
import pytest
from helpers import classify_phase_scalar
from hypothesis import given
from hypothesis import strategies as st

from cxho.errors import (
    DegenerateDivisionError,
    KineticDivergenceError,
    OutOfDomainError,
    PotentialDivergenceError,
    RegulatorError,
)
from cxho.params import (
    ANGLE_TOL,
    FRAME_FACTOR,
    Potential,
    Theory,
    check_length_scale,
    classify_phase,
    derived,
    eigenvalue,
    is_normalizable,
    new_frame,
    region_of,
    regulated_momega,
    theory_of,
    validate,
)

PI = math.pi


def angles_to_params(theta_m, theta_omega, r_m=1.0, r_omega=1.0, **kw):
    return validate(r_m * cmath.exp(1j * theta_m),
                    r_omega * cmath.exp(1j * theta_omega), **kw)


class TestValidate:
    def test_real_positive_parameters(self):
        p = validate(1, 1, hbar=1.0, eps=1e-3, eps_prime=1e-3)
        assert p.theta_m == 0.0
        assert p.theta_omega == 0.0
        assert p.theta == 0.0
        assert p.normalizable

    def test_positive_momega_sq_angle_rejected(self):
        with pytest.raises(PotentialDivergenceError):
            validate(1, cmath.exp(1j * PI / 4))

    def test_negative_im_mass_rejected(self):
        with pytest.raises(KineticDivergenceError):
            validate(cmath.exp(-1j * PI / 6), 1)

    def test_regulator_errors(self):
        for eps, eps_p in [(0.0, 1e-3), (1e-3, 0.0), (-1e-3, 1e-3), (2.0, 0.5)]:
            with pytest.raises(RegulatorError):
                validate(1, 1, eps=eps, eps_prime=eps_p)

    def test_nonfinite_and_zero_inputs(self):
        with pytest.raises(ValueError):
            validate(complex("nan"), 1)
        with pytest.raises(ValueError):
            validate(0, 1)
        with pytest.raises(ValueError):
            validate(1, 0)
        with pytest.raises(ValueError):
            validate(1, 1, hbar=-1.0)

    def test_negative_real_axis_omega_folds_to_lower_edge(self):
        # omega = -1 has principal argument +pi; with m = -1 the point is the
        # (pi, -pi) corner of the parallelogram
        p = validate(-1, -1)
        assert p.theta_m == pytest.approx(PI)
        assert p.theta_omega == pytest.approx(-PI)
        assert p.normalizable

    def test_negative_real_axis_omega_invalid_for_positive_mass(self):
        with pytest.raises(PotentialDivergenceError):
            validate(1, -1)

    def test_corner_not_normalizable(self):
        p = validate(1, -1j)
        assert not p.normalizable

    def test_cached_products(self):
        p = validate(2j, 0.5 * cmath.exp(-1j * PI / 3))
        assert p.momega == pytest.approx(2j * 0.5 * cmath.exp(-1j * PI / 3))
        assert p.r == pytest.approx(1.0)
        assert p.theta == pytest.approx(PI / 2 - PI / 3)
        assert p.momega_sq == pytest.approx(p.momega * p.omega)


# Each predicate of the phase rule on and about its lines: a line owns the
# points within ANGLE_TOL of it.
TOL_IN, TOL_OUT = 0.99 * ANGLE_TOL, 1.01 * ANGLE_TOL


@pytest.mark.parametrize("theta_m, theory", [
    (-TOL_IN, Theory.UTT), (0.0, Theory.UTT), (PI / 2 - TOL_OUT, Theory.UTT),
    (PI / 2 - TOL_IN, Theory.ITT), (PI / 2, Theory.ITT),
    (PI / 2 + TOL_IN, Theory.ITT), (PI / 2 + TOL_OUT, Theory.FTT),
    (PI + TOL_IN, Theory.FTT)])
def test_theory_of(theta_m, theory):
    assert theory_of(theta_m) is theory


@pytest.mark.parametrize("s, region", [
    (TOL_IN, 1), (-TOL_IN, 1), (-TOL_OUT, 2), (-PI / 2 + TOL_OUT, 2),
    (-PI / 2 + TOL_IN, 3), (-PI / 2 - TOL_IN, 3), (-PI / 2 - TOL_OUT, 4),
    (-PI + TOL_OUT, 4), (-PI + TOL_IN, 5), (-PI - TOL_IN, 5)])
def test_region_of(s, region):
    assert region_of(s) == region


@pytest.mark.parametrize("predicate, value", [
    (theory_of, -TOL_OUT), (theory_of, PI + TOL_OUT), (theory_of, math.nan),
    (region_of, TOL_OUT), (region_of, -PI - TOL_OUT),
    (region_of, math.nan)])
def test_predicates_reject_points_outside(predicate, value):
    with pytest.raises(OutOfDomainError, match="outside"):
        predicate(value)


@pytest.mark.parametrize("s", [1.5 * ANGLE_TOL, -PI - 1.5 * ANGLE_TOL])
def test_region_of_domain_is_the_validated_one(s):
    # validate admits s in [-pi - ANGLE_TOL, ANGLE_TOL]; a point past that
    # lies outside the parallelogram and has no region
    with pytest.raises(PotentialDivergenceError):
        validate(1, cmath.exp(0.5j * s))
    with pytest.raises(OutOfDomainError,
                       match=r"theta_m \+ 2\*theta_omega = .* outside \[-pi, 0\]"):
        region_of(s)


def test_is_normalizable_is_the_params_property():
    # |theta| < pi/2 by more than ANGLE_TOL
    assert is_normalizable(PI / 2 - TOL_OUT) and is_normalizable(-PI / 2 + TOL_OUT)
    assert not is_normalizable(PI / 2 - TOL_IN)
    assert not is_normalizable(-PI / 2) and not is_normalizable(math.nan)
    for theta_m, theta_omega in ((0.3, -0.2), (0.0, -PI / 2), (PI, -PI / 2)):
        p = angles_to_params(theta_m, theta_omega)
        assert p.normalizable is is_normalizable(p.theta)


class TestClassifyPhase:
    def test_origin_is_usual_oscillator(self):
        c = classify_phase(0.0, 0.0)
        assert (c.theory, c.region, c.potential) == (Theory.UTT, 1, Potential.HO)
        assert c.normalizable and not c.excluded_corner

    def test_imaginary_mass_line_region3(self):
        c = classify_phase(PI / 2, -PI / 2)
        assert (c.theory, c.region, c.potential) == (Theory.ITT, 3, Potential.HO)

    def test_excluded_corners(self):
        for theta_m in (0.0, PI):
            c = classify_phase(theta_m, -PI / 2)
            assert c.excluded_corner
            assert not c.normalizable

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            classify_phase(-0.1, 0.0)
        with pytest.raises(OutOfDomainError):
            classify_phase(0.5, 0.1)
        with pytest.raises(OutOfDomainError):
            classify_phase(0.5, -2.0)

    def test_region_boundaries_own_their_labels(self):
        # s = theta_m + 2*theta_omega exactly on the three boundary lines
        assert classify_phase(0.3, -0.15).region == 1
        assert classify_phase(0.3, -0.15 - PI / 4).region == 3
        assert classify_phase(0.3, -0.15 - PI / 2).region == 5

    def test_partition_on_random_interior_points(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            theta_m = rng.uniform(0, PI)
            theta_omega = rng.uniform(-theta_m / 2 - PI / 2, -theta_m / 2)
            c = classify_phase(theta_m, theta_omega)
            s = theta_m + 2 * theta_omega
            # independent re-derivation of the region index
            if abs(s) <= 1e-9:
                expected = 1
            elif abs(s + PI / 2) <= 1e-9:
                expected = 3
            elif abs(s + PI) <= 1e-9:
                expected = 5
            elif s > -PI / 2:
                expected = 2
            else:
                expected = 4
            assert c.region == expected
            assert c.theory == (Theory.ITT if abs(theta_m - PI / 2) <= 1e-9
                                else Theory.UTT if theta_m < PI / 2 else Theory.FTT)

    def test_frame_factor_values(self):
        assert classify_phase(0.3, -0.2).frame_factor == 1
        assert classify_phase(PI / 2, -1.0).frame_factor == -1j
        assert classify_phase(2.0, -1.2).frame_factor == -1


class TestNewFrame:
    def test_imaginary_mass(self):
        p = validate(2j, cmath.exp(-1j * 2.0))
        a, m_new, omega_new = new_frame(p)
        assert a == -1j
        assert m_new == pytest.approx(2.0)
        assert omega_new == pytest.approx(1j * p.omega)

    def test_negative_mass(self):
        p = validate(-1 + 0.01j, cmath.exp(-1.8j))
        a, m_new, omega_new = new_frame(p)
        assert a == -1
        assert m_new == pytest.approx(1 - 0.01j)

    def test_identity_frame(self):
        p = validate(1, 1)
        a, m_new, omega_new = new_frame(p)
        assert a == 1 and m_new == p.m and omega_new == p.omega

    def test_frequency_time_product_preserved_exactly(self):
        rng = np.random.default_rng(3)
        for theta_m in (0.2, PI / 2, 2.9):
            p = angles_to_params(theta_m, -theta_m / 2 - 0.3)
            a, _, omega_new = new_frame(p)
            assert abs(a) == pytest.approx(1.0, abs=1e-15)
            for _ in range(10):
                t = rng.uniform(-5, 5)
                assert omega_new * (a * t) == p.omega * t

    def test_new_mass_real_part_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            theta_m = rng.uniform(0, PI)
            p = angles_to_params(theta_m, -theta_m / 2 - 0.2)
            _, m_new, _ = new_frame(p)
            assert m_new.real > 0 or abs(m_new.real) < 1e-12


class TestDerived:
    def test_hermitian_part_mass(self):
        p = angles_to_params(PI / 3, -PI / 6, r_m=2.0)
        d = derived(p)
        assert d.m_herm == pytest.approx(2 / math.cos(PI / 6))
        assert d.m_herm == pytest.approx(4 / math.sqrt(3), rel=1e-12)

    def test_real_frequency_limit(self):
        # theta_omega = 0 forces theta_m = 0 inside the parallelogram
        p = validate(1.5, 2.0, eps=1e-4, eps_prime=1e-4)
        d = derived(p)
        assert d.m_herm == pytest.approx(1.5)
        assert d.omega_herm == pytest.approx(2.0)
        assert d.m_anti is None

    def test_regulator_free_products(self):
        one, two = regulated_momega(1 + 0j, 0.0, 0.0)
        assert one == 1 and two == 1

    def test_corner_degenerate(self):
        p = validate(1, -1j)
        with pytest.raises(DegenerateDivisionError):
            derived(p)

    def test_consistency_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta_m = rng.uniform(0, PI)
            lo, hi = -theta_m / 2 - PI / 2, -theta_m / 2
            theta_omega = rng.uniform(lo + 0.05, hi - 0.05)
            p = angles_to_params(theta_m, theta_omega,
                                 r_m=rng.uniform(0.5, 3), r_omega=rng.uniform(0.5, 3))
            d = derived(p)
            if d.m_anti is not None:
                assert d.m_herm == pytest.approx(
                    -math.tan(p.theta_omega) * d.m_anti, rel=1e-12)
                assert (d.m_herm * d.omega_herm) ** 2 == pytest.approx(
                    (d.m_anti * d.omega_anti) ** 2, rel=1e-12)
            assert d.m_herm * d.omega_herm == pytest.approx(p.r_m * p.r_omega,
                                                            rel=1e-12)
            assert d.m_eff == pytest.approx(p.r_m * cmath.exp(-1j * p.theta_omega))


class TestCheckLengthScale:
    @pytest.mark.parametrize("hbar, m", [(1.0, 1.0), (1e-320, 1.0),
                                         (1e300, 1e-8), (1e-300, 1e8)])
    def test_scale_in_range_passes(self, hbar, m):
        check_length_scale(validate(m, 1.0, hbar=hbar))

    @pytest.mark.parametrize("hbar, m, scale", [(1e-100, 1e250, "0.0"),
                                                (1e300, 1e-10, "inf")])
    def test_scale_out_of_range_names_hbar_and_momega(self, hbar, m, scale):
        with pytest.raises(ValueError, match=re.escape(
                f"hbar = {hbar!r} and |m*omega| = {float(m)!r} give {scale}")):
            check_length_scale(validate(m, 1.0, hbar=hbar))


class TestEigenvalue:
    def test_direct_formula(self):
        p = validate(1, 1 - 0.1j)
        assert eigenvalue(p, 2) == pytest.approx(2.5 - 0.25j)
        assert eigenvalue(p, 0) == pytest.approx(p.hbar * p.omega / 2)

    def test_real_frequency_levels_real(self):
        p = validate(1, 1)
        for n in range(6):
            assert eigenvalue(p, n).imag == 0.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue(validate(1, 1), -1)

    def test_imaginary_part_ordering(self):
        # Im(lambda_n) strictly decreasing iff Im(omega) < 0, constant iff real
        p = validate(1, cmath.exp(-0.3j))
        ims = [eigenvalue(p, n).imag for n in range(8)]
        assert all(a > b for a, b in zip(ims, ims[1:]))
        assert max(ims) == ims[0]
        p_real = validate(1, 1)
        ims_real = [eigenvalue(p_real, n).imag for n in range(8)]
        assert all(v == 0 for v in ims_real)


# Values of s = theta_m + 2*theta_omega on the region boundary lines, and of
# theta_m on the domain edges and the imaginary-mass line.
S_LINES = (0.0, -PI / 2, -PI)
THETA_M_LINES = (0.0, PI / 2, PI)
CORNERS = ((0.0, -PI / 2), (PI, -PI / 2), (0.0, 0.0), (PI, -PI))


def _on_or_near(lines, interval):
    """Floats in the interval, exactly on a line, or close to one.

    Offsets within tol/2 stay on the line; offsets up to 3*tol straddle the
    tolerance edge, where the two classifiers would first disagree.
    """
    offset = st.one_of(st.floats(-0.5, 0.5), st.floats(-3.0, 3.0)).map(
        lambda f: f * ANGLE_TOL)
    near = st.tuples(st.sampled_from(lines), offset).map(sum)
    return st.one_of(st.floats(*interval), st.sampled_from(lines), near)


@st.composite
def plane_points(draw):
    """A point of the closed parallelogram, boundaries weighted up.

    Draws past an edge are pulled back inside the tolerance band, which the
    classifiers accept as part of the domain.
    """
    corner = draw(st.one_of(st.none(), st.sampled_from(CORNERS)))
    if corner is not None:
        return corner
    theta_m = min(max(draw(_on_or_near(THETA_M_LINES, (0.0, PI))), -ANGLE_TOL),
                  PI + ANGLE_TOL)
    s = min(max(draw(_on_or_near(S_LINES, (-PI, 0.0))), -PI - ANGLE_TOL),
            ANGLE_TOL)
    return theta_m, (s - theta_m) / 2


@st.composite
def outside_points(draw):
    """A point past the classifier's tolerance band around the domain, or
    one with a NaN angle."""
    kind = draw(st.sampled_from(("theta_m", "s", "nan")))
    if kind == "nan":
        theta_m, theta_omega = draw(plane_points())
        return draw(st.sampled_from(((math.nan, theta_omega), (theta_m, math.nan),
                                     (math.nan, math.nan))))
    if kind == "theta_m":
        theta_m = draw(st.one_of(st.floats(-1.0, -1.01 * ANGLE_TOL),
                                 st.floats(PI + 1.01 * ANGLE_TOL, PI + 1.0)))
        s = draw(st.floats(-PI, 0.0))
    else:
        theta_m = draw(st.floats(0.0, PI))
        s = draw(st.one_of(st.floats(-PI - 1.0, -PI - 1.01 * ANGLE_TOL),
                           st.floats(1.01 * ANGLE_TOL, 1.0)))
    return theta_m, (s - theta_m) / 2


#: Offsets of the points drawn on or near a line: on it, at the tolerance
#: edge and past it.
LINE_OFFSETS = (0.0, ANGLE_TOL, -ANGLE_TOL, 3 * ANGLE_TOL, -3 * ANGLE_TOL)


def _line_or_free(lines, interval):
    """A float in the interval, or one of ``LINE_OFFSETS`` off a line."""
    return st.one_of(st.floats(*interval), st.tuples(
        st.sampled_from(lines), st.sampled_from(LINE_OFFSETS)).map(sum))


@st.composite
def line_points(draw):
    """A point of the closed parallelogram, on or just off its edges and
    region lines (both coordinates on lines near a corner), an exact
    corner, or one of those with a NaN angle."""
    point = draw(st.one_of(st.sampled_from(CORNERS), st.builds(
        lambda theta_m, s: (theta_m, (s - theta_m) / 2),
        _line_or_free(THETA_M_LINES, (0.0, PI)),
        _line_or_free(S_LINES, (-PI, 0.0)))))
    nan = draw(st.sampled_from((None, None, None, 0, 1)))
    return point if nan is None else tuple(
        math.nan if k == nan else x for k, x in enumerate(point))


class TestClassifyPhaseOracle:
    """``classify_phase`` is the phase rule at one point; it must give the
    former scalar classifier's labels, units and error texts."""

    @given(line_points() | plane_points() | outside_points())
    def test_matches_scalar_oracle(self, point):
        try:
            expected = classify_phase_scalar(*point)
        except OutOfDomainError as exc:
            with pytest.raises(OutOfDomainError) as raised:
                classify_phase(*point)
            assert str(raised.value) == str(exc)
            return
        got = classify_phase(*point)
        assert got == expected
        assert type(got.region) is int and type(got.normalizable) is bool

    def test_matches_scalar_at_tolerance_edges(self):
        steps = np.array([0.0, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 2.01, 3.0])
        offsets = np.concatenate([-steps, steps]) * ANGLE_TOL
        theta_m = np.clip(np.add.outer(THETA_M_LINES, offsets).ravel(),
                          -ANGLE_TOL, PI + ANGLE_TOL)
        # theta_m + 2*theta_omega recomputed from (s - theta_m)/2 may round
        # past s by a unit in the last place of pi; the domain's edges are
        # kept that far inside it
        margin = 4 * math.ulp(PI)
        s = np.clip(np.add.outer(S_LINES, offsets).ravel(),
                    -PI - ANGLE_TOL + margin, ANGLE_TOL - margin)
        for theta_m, s in zip(*(a.ravel().tolist()
                                for a in np.meshgrid(theta_m, s))):
            point = theta_m, (s - theta_m) / 2
            assert classify_phase(*point) == classify_phase_scalar(*point), point

    def test_points_just_outside_raise(self):
        for theta_m, s in ((-1.01 * ANGLE_TOL, -1.0), (PI + 1.01 * ANGLE_TOL, -2.0),
                           (1.0, 1.01 * ANGLE_TOL), (1.0, -PI - 1.01 * ANGLE_TOL)):
            with pytest.raises(OutOfDomainError):
                classify_phase(theta_m, (s - theta_m) / 2)

    @pytest.mark.parametrize("theta_m, theta_omega, failed_test", [
        (math.nan, -1.0, r"outside \[0, pi\]"),
        (1.0, math.nan, r"outside \[-pi, 0\]"),
        (math.nan, math.nan, r"outside \[0, pi\]")])
    def test_nan_angle_raises(self, theta_m, theta_omega, failed_test):
        with pytest.raises(OutOfDomainError, match=failed_test):
            classify_phase_scalar(theta_m, theta_omega)
        with pytest.raises(OutOfDomainError, match=failed_test):
            classify_phase(theta_m, theta_omega)

    @given(line_points())
    def test_unit_of_each_theory(self, point):
        try:
            got = classify_phase(*point)
        except OutOfDomainError:
            return
        assert got.frame_factor == FRAME_FACTOR[got.theory]
        # the unit a has |a| = 1 and turns m into the right half plane
        assert abs(got.frame_factor) == 1
        assert (got.frame_factor * cmath.exp(1j * point[0])).real > 0

"""Model parameters, validity conditions and the angle-plane classification.

The oscillator is defined by a complex mass ``m`` and a complex angular
frequency ``omega``.  Convergence of the underlying path integral restricts
the pair of arguments (theta_m, theta_omega) to a closed parallelogram:

    0 <= theta_m <= pi          (Im m >= 0)
    -pi <= theta_m + 2*theta_omega <= 0     (Im(m omega^2) <= 0)

Inside that parallelogram the model decomposes into three theories selected
by the sign of Re(m) (usual, imaginary and flipped time) and into five
regions selected by the sign pattern of the real and imaginary parts of the
quadratic potential.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    DegenerateDivisionError,
    KineticDivergenceError,
    OutOfDomainError,
    PotentialDivergenceError,
    RegulatorError,
)

#: Absolute tolerance (radians) for all angle comparisons.  Boundary values
#: belong to the boundary region they label.
ANGLE_TOL = 1e-9


class Theory(str, Enum):
    UTT = "UTT"
    ITT = "ITT"
    FTT = "FTT"


class Potential(str, Enum):
    HO = "HO"
    IHO = "IHO"
    FREE_IMAG = "FREE_IMAG"


# Region -> potential label for each theory, from the sign pattern of the
# (frame-transformed) real and imaginary parts of the quadratic potential.
POTENTIAL_TABLE = {
    Theory.UTT: {1: Potential.HO, 2: Potential.HO, 3: Potential.FREE_IMAG,
                 4: Potential.IHO, 5: Potential.IHO},
    Theory.ITT: {1: Potential.FREE_IMAG, 2: Potential.HO, 3: Potential.HO,
                 4: Potential.HO, 5: Potential.FREE_IMAG},
    Theory.FTT: {1: Potential.IHO, 2: Potential.IHO, 3: Potential.FREE_IMAG,
                 4: Potential.HO, 5: Potential.HO},
}

#: Unit a of the frame change t -> a*t that gives Re(a*m) > 0, per theory.
FRAME_FACTOR = {Theory.UTT: 1 + 0j, Theory.ITT: -1j, Theory.FTT: -1 + 0j}


class ModelParams(NamedTuple):
    """Validated model parameters with cached polar data.

    Construct through :func:`validate`; the cached fields are trusted
    downstream without re-checking.
    """

    m: complex
    omega: complex
    hbar: float
    eps: float
    eps_prime: float
    r_m: float
    theta_m: float
    r_omega: float
    theta_omega: float
    momega: complex
    r: float
    theta: float
    momega_sq: complex

    @property
    def normalizable(self) -> bool:
        """:func:`is_normalizable` of theta = arg(m*omega)."""
        return is_normalizable(self.theta)


class DerivedScales(NamedTuple):
    """Scalar scales derived from the parameters.

    ``m_eff`` is the complex mass appearing once position and momentum are
    rotated to their metric-Hermitian versions; ``m_herm``/``omega_herm``
    and ``m_anti``/``omega_anti`` parametrize the Hermitian and
    anti-Hermitian parts of the Hamiltonian.  ``m_anti`` is ``None`` when
    sin(theta_omega) = 0 (the anti part vanishes identically there).
    """

    m_eff: complex
    m_herm: float
    omega_herm: float
    m_anti: float | None
    omega_anti: float


class PhaseClassification(NamedTuple):
    theory: Theory
    region: int
    potential: Potential
    excluded_corner: bool
    normalizable: bool
    frame_factor: complex


def validate(m: complex, omega: complex, hbar: float = 1.0,
             eps: float = 1e-3, eps_prime: float = 1e-3) -> ModelParams:
    """Check the convergence conditions and cache polar data.

    Raises
    ------
    KineticDivergenceError
        If Im(m) < 0 (equivalently arg(m) outside [0, pi]).
    PotentialDivergenceError
        If theta_m + 2*theta_omega falls outside [-pi, 0].
    RegulatorError
        If eps <= 0, eps' <= 0 or eps*eps' >= 1.
    """
    for name, value in (("m", m), ("omega", omega)):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    for name, value in (("hbar", hbar), ("eps", eps), ("eps_prime", eps_prime)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar!r}")
    if eps <= 0 or eps_prime <= 0 or eps * eps_prime >= 1:
        raise RegulatorError(
            f"need eps > 0, eps' > 0 and eps*eps' < 1, got ({eps!r}, {eps_prime!r})")

    r_m, theta_m = cmath.polar(m)
    r_omega, theta_omega = cmath.polar(omega)
    if r_m == 0 or r_omega == 0:
        raise ValueError("m and omega must be nonzero")
    if theta_m < -ANGLE_TOL or theta_m > math.pi + ANGLE_TOL:
        raise KineticDivergenceError(
            f"Im(m) < 0 makes the kinetic term diverge (arg m = {theta_m:.6g})")
    theta_m = min(max(theta_m, 0.0), math.pi)

    # omega on the negative real axis has principal argument +pi, but the
    # admissible range lies in [-pi, 0]; fold it onto the lower edge when
    # that lands inside the parallelogram.
    if (theta_omega > ANGLE_TOL and
            theta_m + 2 * (theta_omega - 2 * math.pi) >= -math.pi - ANGLE_TOL):
        theta_omega -= 2 * math.pi
    s = theta_m + 2 * theta_omega
    if s < -math.pi - ANGLE_TOL or s > ANGLE_TOL:
        raise PotentialDivergenceError(
            f"Im(m*omega^2) > 0 makes the potential diverge "
            f"(arg m + 2 arg omega = {s:.6g})")

    m, omega = complex(m), complex(omega)
    return ModelParams(
        m=m, omega=omega, hbar=float(hbar),
        eps=float(eps), eps_prime=float(eps_prime),
        r_m=r_m, theta_m=theta_m, r_omega=r_omega, theta_omega=theta_omega,
        momega=m * omega, r=r_m * r_omega, theta=theta_m + theta_omega,
        momega_sq=m * omega * omega,
    )


def theory_of(theta_m: float) -> Theory:
    """The theory by the sign of Re(m): UTT for theta_m in [0, pi/2), ITT on
    the line pi/2, FTT for (pi/2, pi].  Raises OutOfDomainError outside
    [0, pi] or at NaN."""
    # written so that a NaN angle fails it
    if not -ANGLE_TOL <= theta_m <= math.pi + ANGLE_TOL:
        raise OutOfDomainError(f"theta_m = {theta_m:.6g} outside [0, pi]")
    if abs(theta_m - math.pi / 2) <= ANGLE_TOL:
        return Theory.ITT
    return Theory.UTT if theta_m < math.pi / 2 else Theory.FTT


def region_of(s: float) -> int:
    """The region 1..5 by s = theta_m + 2*theta_omega through {0},
    (-pi/2, 0), {-pi/2}, (-pi, -pi/2), {-pi}; boundary lines own their
    labels.  Raises OutOfDomainError outside [-pi, 0] or at NaN."""
    # written so that a NaN angle fails it
    if not -math.pi - 2 * ANGLE_TOL <= s <= 2 * ANGLE_TOL:
        raise OutOfDomainError(
            f"theta_m + 2*theta_omega = {s:.6g} outside [-pi, 0]")
    if abs(s) <= ANGLE_TOL:
        return 1
    if abs(s + math.pi / 2) <= ANGLE_TOL:
        return 3
    if abs(s + math.pi) <= ANGLE_TOL:
        return 5
    return 2 if s > -math.pi / 2 else 4


def is_normalizable(theta: float) -> bool:
    """True when |theta| < pi/2 for theta = theta_m + theta_omega =
    arg(m*omega), i.e. Re(m*omega) > 0.  On the closed parallelogram
    |theta| reaches pi/2 only at the two excluded corners (0, -pi/2) and
    (pi, -pi/2)."""
    return abs(theta) < math.pi / 2 - ANGLE_TOL


def classify_phase(theta_m: float, theta_omega: float) -> PhaseClassification:
    """The phase rule at one point: :func:`theory_of` theta_m,
    :func:`region_of` s = theta_m + 2*theta_omega, the potential of that
    pair, :func:`is_normalizable` theta_m + theta_omega, and the theory's
    frame factor.  The domain is checked in that order."""
    theory = theory_of(theta_m)
    region = region_of(theta_m + 2 * theta_omega)
    normalizable = is_normalizable(theta_m + theta_omega)
    return PhaseClassification(theory, region, POTENTIAL_TABLE[theory][region],
                               not normalizable, normalizable,
                               FRAME_FACTOR[theory])


def new_frame(params: ModelParams) -> tuple[complex, complex, complex]:
    """Unit factor and transformed (mass, frequency) giving Re(m_new) > 0.

    Returns ``(a, m_new, omega_new)`` with ``m_new = a*m`` and
    ``omega_new = omega/a``; time transforms as ``t -> a*t`` so that
    ``omega*t = omega_new*(a*t)`` holds identically.
    """
    a = classify_phase(params.theta_m, params.theta_omega).frame_factor
    return a, a * params.m, params.omega / a


def derived(params: ModelParams) -> DerivedScales:
    """Compute the derived scalar scales for validated parameters.

    Raises DegenerateDivisionError when cos(theta_omega) = 0 (the two
    excluded corners), where the Hermitian-part mass is not defined.
    """
    cos_w = math.cos(params.theta_omega)
    sin_w = math.sin(params.theta_omega)
    if abs(cos_w) <= ANGLE_TOL:
        raise DegenerateDivisionError(
            "cos(arg omega) = 0: Hermitian-part scales undefined at the corners")
    m_anti = None if abs(sin_w) <= ANGLE_TOL else -params.r_m / sin_w
    return DerivedScales(
        m_eff=params.r_m * cmath.exp(-1j * params.theta_omega),
        m_herm=params.r_m / cos_w,
        omega_herm=params.r_omega * cos_w,
        m_anti=m_anti,
        omega_anti=-params.r_omega * sin_w,
    )


def check_length_scale(params: ModelParams) -> None:
    """ValueError naming hbar and m*omega unless hbar/|m*omega|, which every
    default width is built from, is a positive finite double."""
    scale = params.hbar / params.r
    if not 0 < scale < math.inf:
        raise ValueError(f"the length scale hbar/|m*omega| leaves the double "
                         f"range: hbar = {params.hbar!r} and |m*omega| = "
                         f"{params.r!r} give {scale!r}")


def check_energy_scale(params: ModelParams, n_max: int, n_levels: int) -> None:
    """ValueError naming hbar, omega and nmax unless hbar*|omega|*(2n + 1),
    which bounds |h + h^dagger| on the n = ``n_levels`` levels a run at
    ``n_max`` builds, is a finite double."""
    scale = params.hbar * params.r_omega * (2 * n_levels + 1)
    if not scale < math.inf:
        raise ValueError(f"the energy scale hbar*|omega| leaves the double "
                         f"range at nmax = {n_max}: hbar = {params.hbar!r} and "
                         f"|omega| = {params.r_omega!r} give hbar*|omega|*(2n + 1)"
                         f" = {scale!r} on n = {n_levels} levels")


def check_square_scales(params: ModelParams, n_max: int, n_levels: int) -> None:
    """ValueError naming hbar, m*omega and nmax unless hbar*|m*omega|*(2n + 1),
    which bounds the momentum squares p_herm^2 on the n = ``n_levels``
    levels a run at ``n_max`` builds, and 36*hbar/Re(m*omega), the square
    of verify's ground-overlap half-width 6*sqrt(hbar/Re(m*omega)), are
    finite doubles.  The second is not checked where Re(m*omega) <= 0,
    which fails as not normalizable."""
    momentum = params.hbar * params.r * (2 * n_levels + 1)
    length = (36 * (params.hbar / params.momega.real) if params.normalizable
              else 0.0)
    if not (momentum < math.inf and length < math.inf):
        raise ValueError(f"the momentum and length squares leave the double "
                         f"range at nmax = {n_max}: hbar = {params.hbar!r} and "
                         f"m*omega = {params.momega!r} give hbar*|m*omega|*"
                         f"(2n + 1) = {momentum!r} on n = {n_levels} levels and "
                         f"36*hbar/Re(m*omega) = {length!r}")


def regulated_momega(momega: complex, eps: float, eps_prime: float
                     ) -> tuple[complex, complex]:
    """The two regulator-shifted m*omega products (basis 1, basis 2).

    Defined for any eps, eps_prime >= 0; both reduce to ``momega`` in the
    regulator-free limit.
    """
    return ((momega - eps_prime) / (1 - momega * eps),
            (momega + eps_prime) / (1 + momega * eps))


def eigenvalue(params: ModelParams, n: int) -> complex:
    """Level value hbar*omega*(n + 1/2)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return params.hbar * params.omega * (n + 0.5)

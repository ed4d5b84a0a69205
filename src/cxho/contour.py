"""Smeared delta function and validated quadrature on straight complex contours.

The Gaussian-smeared delta

    delta_eps(q) = sqrt(1/(4 pi eps)) * exp(-q^2 / (4 eps))

acts as a delta distribution for complex arguments with
L(q) = (Re q)^2 - (Im q)^2 > 0, which is why smearing contours must keep
their tangent within pi/4 of the horizontal.  All integrals use
Gauss-Legendre nodes mapped onto a straight rotated segment
q(s) = s * exp(i*angle).

The Gauss-Legendre rule is built by Halley's and Newton's method on P_n
from Tricomi's starting values (cf. Hale & Townsend, SIAM J. Sci. Comput.
35 (2013) A652),
on the nodes s >= 0 only, and mirrored, so it is symmetric bit for bit.
Its nodes are as accurate as numpy's ``leggauss`` and its weights more
accurate, and it costs a fraction of ``leggauss``' dense eigenproblem.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import (
    AngleTooSteepError,
    DeltaUnderflowWarning,
    InvalidPathError,
    NonFiniteSampleError,
)

#: Real exponents beyond which exp over/underflows a double.
_EXP_MAX = 709.0
_EXP_MIN = -745.0

#: Default number of Gauss-Legendre nodes.
DEFAULT_NODES = 400


class ContourPath(NamedTuple):
    """Discretized straight path in the complex plane.

    ``nodes`` are ordered by real part, ``weights`` are the positive
    Gauss-Legendre weights scaled to the arclength parameter, and
    ``direction`` is the unit tangent picked up by dq = direction * ds.
    """

    nodes: np.ndarray
    weights: np.ndarray
    direction: complex
    max_tangent_angle: float


def delta_eval(q, eps):
    """Evaluate the smeared delta at complex q (scalar or array).

    Uses the principal square root for the prefactor.  Overflow is reported
    as an infinite value (never a silent NaN); underflow to zero raises a
    DeltaUnderflowWarning.
    """
    if eps == 0:
        raise ValueError("eps must be nonzero")
    q_arr = np.asarray(q, dtype=np.complex128)
    w = -(q_arr * q_arr) / (4 * eps)
    pref = np.sqrt(1.0 / (4 * np.pi * complex(eps)))
    out = np.empty_like(q_arr)
    over = w.real > _EXP_MAX
    under = w.real < _EXP_MIN
    safe = ~(over | under)
    out[safe] = pref * np.exp(w[safe])
    out[over] = complex(np.inf, 0.0)
    out[under] = 0.0
    if under.any():
        warnings.warn("smeared delta underflowed to zero", DeltaUnderflowWarning)
    return out if np.ndim(q) else complex(out[()])


def delta_domain_ok(q: complex) -> bool:
    """True iff L(q) = (Re q)^2 - (Im q)^2 > 0 (strict)."""
    return q.real * q.real - q.imag * q.imag > 0


def delta_scale_ok(a: complex, q: complex, eps: complex
                   ) -> tuple[bool, float]:
    """Check the rescaling identity delta_eps(a q) = sign(Re a)/a * delta_{eps/a^2}(q).

    ``ok`` reports whether arg(q) lies inside one of the two convergence
    windows around (arg(eps) - 2 arg(a))/2, equivalently
    Re(a^2 q^2 / eps) > 0.  ``residual`` is the pointwise difference of the
    two sides (evaluated regardless of ``ok``).  Re(a) = 0 leaves the sign
    factor undefined and raises ValueError.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if a.real == 0:
        raise ValueError("sign(Re a) undefined for purely imaginary a")
    theta_a = cmath.phase(a)
    theta_q = cmath.phase(q)
    theta_eps = cmath.phase(eps)
    ok = math.cos(2 * theta_q + 2 * theta_a - theta_eps) > 0
    sign = 1.0 if a.real > 0 else -1.0
    lhs = delta_eval(a * q, eps)
    rhs = sign / a * delta_eval(q, eps / (a * a))
    return ok, abs(lhs - rhs)


#: Halley sweeps from Tricomi's starting values; the pass that gives the
#: weights corrects the nodes once more, by a Newton step.
_HALLEY_SWEEPS = 1


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, written as
    P_{j+1} = x P_j + j/(j+1) (x P_j - P_{j-1}); n >= 1."""
    prev, cur = np.ones_like(x), x
    for j in range(1, n):
        nxt = x * cur
        diff = nxt - prev
        diff *= j / (j + 1)
        nxt += diff
        prev, cur = cur, nxt
    return cur, prev


@functools.lru_cache(maxsize=8)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per size.

    The n//2 nodes x > 0, and x = 0 at odd n, start from Tricomi's
    asymptotic roots of P_n and take a Halley step on P_n, whose P_n'' the
    Legendre equation gives.  The last pass takes a Newton step and gives
    the weights 2/((1-x)(1+x) P_n'(x)^2) at the nodes before it, to first
    order in the step (d log w/dx = -2x/(1-x^2) at a root).  The other
    half is the mirror image, so x[::-1] == -x and w[::-1] == w.
    """
    n = n_nodes
    half, odd = divmod(n, 2)
    theta = (4 * np.arange(half, 0, -1) - 1) * (math.pi / (4 * n + 2))
    x = np.concatenate((np.zeros(odd), np.cos(theta) * (
        1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta)**2) / (384 * n**4))))
    for sweep in range(_HALLEY_SWEEPS + 1):
        p_n, p_prev = _legendre_pair(n, x)
        gap = (1 - x) * (1 + x)
        # (1 - x^2) P_n'(x), free of cancellation near a root
        slope = n * (p_prev - x * p_n)
        step = p_n * gap / slope
        if sweep < _HALLEY_SWEEPS:
            # P_n''/P_n' = (2x - n(n+1) P_n/P_n') / (1 - x^2)
            step /= 1 - 0.5 * step * (2 * x - n * (n + 1) * step) / gap
        last, x = x, x - step
    w = 2 * gap / slope**2 * (1 + 2 * last * step / gap)
    x = np.concatenate((-x[::-1][:half], x))
    w = np.concatenate((w[::-1][:half], w))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def rotated_path(angle: float, half_width: float,
                 n_nodes: int = DEFAULT_NODES) -> ContourPath:
    """Gauss-Legendre discretization of q(s) = s*e^{i angle}, |s| <= half_width."""
    # each test is written so that a NaN fails it
    if not abs(angle) < math.pi / 2:
        raise AngleTooSteepError(f"|angle| must be < pi/2, got {angle!r}")
    if not 0 < half_width < math.inf:
        raise ValueError(
            f"half_width must be finite and positive, got {half_width!r}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    x, w = _legendre_rule(n_nodes)
    direction = cmath.exp(1j * angle)
    return ContourPath(
        nodes=half_width * x * direction,
        weights=half_width * w,
        direction=direction,
        max_tangent_angle=abs(angle),
    )


def contour_integrate(f, path: ContourPath) -> complex:
    """Quadrature of f along the path, direction factor included; f is
    called once, on all nodes."""
    samples = np.asarray(f(path.nodes), dtype=np.complex128)
    if samples.shape != path.nodes.shape:
        raise ValueError("integrand must return one value per node")
    if not np.isfinite(samples).all():
        raise NonFiniteSampleError("integrand is non-finite at a quadrature node")
    return complex(path.direction * np.dot(path.weights, samples))


def smear(f, q0: complex, eps: complex, path: ContourPath) -> complex:
    """Integrate f(q)*delta_eps(q - q0) along the path; tends to f(q0) as eps -> 0.

    The path must satisfy the smearing bound max_tangent_angle < pi/4.
    """
    if path.max_tangent_angle >= math.pi / 4:
        raise InvalidPathError(
            f"delta smearing needs tangent angle < pi/4, "
            f"got {path.max_tangent_angle!r}")
    return contour_integrate(
        lambda q: np.asarray(f(q)) * delta_eval(q - q0, eps), path)

"""Two-state time development, coherent closed forms and weak values.

The forward state evolves under the Hamiltonian, the backward (final-time)
state under its metric adjoint, so level n of the forward state picks up
exp(-i*omega*(n+1/2)*dt) while the backward state picks up the conjugate
frequency.  The normalized matrix element between them,
(b|O|a)/(b|a) in the metric inner product, is the weak value sampled along
a trajectory.  Each band product conj(b_k(t)) a_l(t), |k - l| <= 1, is a
product at the boundary times times phases (Aharonov, Albert & Vaidman,
PRL 60 (1988) 1351), so the amplitude does not depend on t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VanishingOverlapError
from .fock import FockRep, StateVec, _sandwich, coherent_coeffs, q_inner
from .params import ModelParams

#: Smallest overlap magnitude we are willing to divide by.
OVERLAP_GUARD = 1e-300

#: FockRep operators whose weak values a Trajectory holds, in column order.
WEAK_VALUE_OPERATORS = ("q_op", "p_op", "q_herm", "p_herm", "h_herm")


def level_phases(omega: complex, dt: float, n: int) -> np.ndarray:
    """Level phases exp(-i*omega*(k+1/2)*dt) for k = 0 .. n-1."""
    return np.exp(-1j * omega * (np.arange(n) + 0.5) * dt)


def evolve_a(a0: StateVec, dt: float, params: ModelParams) -> StateVec:
    """Propagate a forward state by dt (level phases exp(-i*omega*(n+1/2)*dt))."""
    return StateVec(a0.coeffs * level_phases(params.omega, dt, len(a0)))


def evolve_b(b0: StateVec, dt: float, params: ModelParams) -> StateVec:
    """Propagate a backward state by dt; uses the conjugate frequency."""
    return StateVec(b0.coeffs * level_phases(np.conj(params.omega), dt, len(b0)))


def coherent_lambda(lambda0: complex, dt: float, which: str,
                    params: ModelParams) -> complex:
    """Closed-form coherent label at time offset dt for an 'A' or 'B' state."""
    if which == "A":
        return lambda0 * np.exp(-1j * params.omega * dt)
    if which == "B":
        return lambda0 * np.exp(-1j * np.conj(params.omega) * dt)
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


def coherent_state_at(lambda0: complex, dt: float, which: str, n_max: int,
                      params: ModelParams) -> StateVec:
    """Closed-form evolved coherent state, prefactor included.

    Must agree with propagating the coherent coefficients level by level, up
    to the truncation tail.
    """
    omega_i = params.omega.imag
    lam_t = coherent_lambda(lambda0, dt, which, params)
    if which == "A":
        pref = (np.exp(-0.5j * params.omega * dt)
                * np.exp(-0.5 * abs(lambda0) ** 2 * (1 - np.exp(2 * omega_i * dt))))
    else:  # "B"; coherent_lambda rejected any other value
        pref = (np.exp(-0.5j * np.conj(params.omega) * dt)
                * np.exp(-0.5 * abs(lambda0) ** 2 * (1 - np.exp(-2 * omega_i * dt))))
    return StateVec(pref * coherent_coeffs(lam_t, n_max).coeffs)


def weak_value(op: np.ndarray, a: StateVec,
               b: StateVec) -> complex | np.ndarray:
    """Normalized matrix element (b|op|a)/(b|a) in the metric inner product,
    for an operator stored as its three diagonals (see FockRep); for a
    stack of operators, an array with one value per operator."""
    denom = q_inner(b, a)
    if abs(denom) <= OVERLAP_GUARD:
        raise VanishingOverlapError(f"|overlap| = {abs(denom):.3e}")
    values = _sandwich(np.conj(b.coeffs), op, a.coeffs) / denom
    return complex(values) if op.ndim == 2 else values


def weak_qp_closed(lambda_a_t: complex, lambda_b_t: complex,
                   params: ModelParams) -> tuple[complex, complex]:
    """Closed-form weak values of position and momentum for a coherent pair."""
    mw, hbar = params.momega, params.hbar
    lb_conj = np.conj(lambda_b_t)
    q = np.sqrt(hbar / (2 * mw)) * (lambda_a_t + lb_conj)
    p = -1j * np.sqrt(hbar * mw / 2) * (lambda_a_t - lb_conj)
    return complex(q), complex(p)


@dataclass(frozen=True)
class TwoStateSystem:
    """Boundary states at their own times, both metric-normalized."""

    a0: StateVec
    b0: StateVec
    t_a: float
    t_b: float
    params: ModelParams
    rep: FockRep

    def __post_init__(self):
        for name, state in (("a0", self.a0), ("b0", self.b0)):
            if abs(state.norm - 1.0) > 1e-12:
                raise ValueError(f"{name} must be metric-normalized, "
                                 f"norm = {state.norm!r}")

    def states_at(self, t: float) -> tuple[StateVec, StateVec]:
        return (evolve_a(self.a0, t - self.t_a, self.params),
                evolve_b(self.b0, t - self.t_b, self.params))


@dataclass(frozen=True)
class Trajectory:
    """Amplitude and weak values along a time grid, one array per field.

    ``kept`` has one entry per input time and is False where the overlap
    vanishes; every other column holds only the kept samples, in input order.
    """

    t: np.ndarray
    amplitude: np.ndarray
    q_op: np.ndarray
    p_op: np.ndarray
    q_herm: np.ndarray
    p_herm: np.ndarray
    h_herm: np.ndarray
    kept: np.ndarray

    def __len__(self) -> int:
        return self.t.size


def ehrenfest_residual(system: TwoStateSystem, t: float,
                       dt_fd: float) -> tuple[complex, complex]:
    """Residuals of d<q>/dt = <p>/m and d<p>/dt = -m*omega^2*<q>.

    Central finite differences of the matrix-route weak values; both
    residuals shrink as O(dt_fd^2).
    """
    if dt_fd <= 0:
        raise ValueError(f"dt_fd must be positive, got {dt_fd!r}")

    ops = np.array([system.rep.q_op, system.rep.p_op])

    def qp_at(time):
        return weak_value(ops, *system.states_at(time))

    q_minus, p_minus = qp_at(t - dt_fd)
    q_mid, p_mid = qp_at(t)
    q_plus, p_plus = qp_at(t + dt_fd)
    dq = (q_plus - q_minus) / (2 * dt_fd)
    dp = (p_plus - p_minus) / (2 * dt_fd)
    m, omega = system.params.m, system.params.omega
    return dq - p_mid / m, dp + m * omega * omega * q_mid


def trajectory(system: TwoStateSystem, times) -> Trajectory:
    """Weak values and amplitude along a time grid inside [t_a, t_b].

    With D = ``level_phases(omega, t_b - t_a, n)``, the amplitude is
    sum_k conj(b0_k) a0_k D_k at every time, and op's numerator is the same
    sum over its diagonal plus exp(-i*omega*(t-t_a)) times the one over its
    super-diagonal and exp(i*omega*(t-t_b)) times the one over its
    sub-diagonal.  The sums are formed once per call, so a time's digits do
    not depend on the other times; they agree with ``states_at``,
    ``q_inner`` and ``weak_value`` to rounding.  ``kept`` is False at every
    time if the overlap vanishes.  Raises ValueError for a NaN time or one
    outside the window, and an amplitude or numerator that is not finite.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    # written so that NaN fails it
    inside = (times >= system.t_a - 1e-12) & (times <= system.t_b + 1e-12)
    if not inside.all():
        raise ValueError(f"time {float(times[~inside][0])!r} outside "
                         f"[{system.t_a}, {system.t_b}]")
    bands = np.stack([getattr(system.rep, name)
                      for name in WEAK_VALUE_OPERATORS], axis=-1)
    diag, upper, lower = bands[1], bands[2, :-1], bands[0, :-1]
    omega, a0, b0 = system.params.omega, system.a0.coeffs, np.conj(system.b0.coeffs)
    # the finiteness check below reports an overflowing phase
    with np.errstate(over="ignore", invalid="ignore"):
        d = level_phases(omega, system.t_b - system.t_a, a0.size)
        products = b0 * a0 * d
        amplitude = products.sum()
        numerators = (products @ diag
                      + np.exp(-1j * omega * (times - system.t_a))[:, None]
                      * ((b0[:-1] * a0[1:] * d[:-1]) @ upper)
                      + np.exp(1j * omega * (times - system.t_b))[:, None]
                      * ((b0[1:] * a0[:-1] * d[:-1]) @ lower))
    if not (np.isfinite(amplitude) and np.isfinite(numerators).all()):
        raise ValueError("evolved states must be finite")
    kept = np.full(times.size, abs(amplitude) > OVERLAP_GUARD)
    weak = numerators[kept].T / amplitude
    return Trajectory(t=times[kept], amplitude=np.full(kept.sum(), amplitude),
                      kept=kept, **dict(zip(WEAK_VALUE_OPERATORS, weak)))

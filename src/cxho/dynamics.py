"""Two-state time development, coherent closed forms and weak values.

The forward state evolves under the Hamiltonian, the backward (final-time)
state under its metric adjoint, so level n of the forward state picks up
exp(-i*omega*(n+1/2)*dt) while the backward state picks up the conjugate
frequency.  Overlaps and matrix elements between states are formed here
alone; the weak value is (b|O|a)/(b|a) in the metric inner product.  Each
band product conj(b_k(t)) a_l(t), |k - l| <= 1, is a product at the
boundary times times phases (Aharonov, Albert & Vaidman, PRL 60 (1988)
1351), so the amplitude does not depend on t.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatchError, VanishingOverlapError
from .fock import FockRep, StateVec, coherent_coeffs
from .params import ModelParams

#: Smallest overlap magnitude we are willing to divide by.
OVERLAP_GUARD = 1e-300

#: FockRep operators whose weak values a Trajectory holds, in column order.
WEAK_VALUE_OPERATORS = ("q_op", "p_op", "q_herm", "p_herm", "h_herm")


def level_phases(omega: complex, dt, n: int) -> np.ndarray:
    """Level phases exp(-i*omega*(k+1/2)*dt) for k = 0 .. n-1; for a column
    of steps dt, one row of them per step."""
    return np.exp(-1j * omega * (np.arange(n) + 0.5) * dt)


def evolve_a(a0: StateVec, dt: float, params: ModelParams) -> StateVec:
    """Propagate a forward state by dt (level phases exp(-i*omega*(n+1/2)*dt))."""
    return StateVec(a0.coeffs * level_phases(params.omega, dt, len(a0)))


def evolve_b(b0: StateVec, dt: float, params: ModelParams) -> StateVec:
    """Propagate a backward state by dt; uses the conjugate frequency."""
    return StateVec(b0.coeffs * level_phases(np.conj(params.omega), dt, len(b0)))


def _frequency(which: str, params: ModelParams) -> complex:
    """omega for an 'A' (forward) state, its conjugate for a 'B' one."""
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    return params.omega if which == "A" else np.conj(params.omega)


def coherent_lambda(lambda0: complex, dt: float, which: str,
                    params: ModelParams) -> complex:
    """Closed-form coherent label at time offset dt for an 'A' or 'B' state."""
    return lambda0 * np.exp(-1j * _frequency(which, params) * dt)


def coherent_state_at(lambda0: complex, dt: float, which: str, n_max: int,
                      params: ModelParams) -> StateVec:
    """Closed-form evolved coherent state, prefactor included.

    Must agree with propagating the coherent coefficients level by level, up
    to the truncation tail.
    """
    omega = _frequency(which, params)
    lam_t = coherent_lambda(lambda0, dt, which, params)
    pref = (np.exp(-0.5j * omega * dt) * np.exp(
        -0.5 * abs(lambda0) ** 2 * (1 - np.exp(2 * omega.imag * dt))))
    return StateVec(pref * coherent_coeffs(lam_t, n_max).coeffs)


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Metric overlaps (b_i|a_i) of the row pairs of two (T, n) arrays.

    One stacked matmul makes the same BLAS dot per row as ``q_inner``, so
    each entry has its bits.  Rows that are not all finite raise
    ValueError, as building them as StateVecs would.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("coeffs must be finite")
    return np.matmul(np.conj(b)[:, None, :], a[:, :, None])[:, 0, 0]


def weak_values(ops: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized matrix elements (b_i|op|a_i)/(b_i|a_i) of the row pairs of
    two (T, n) arrays, for an operator stored as its three diagonals (see
    FockRep), shape (T,), or a stack of k of them, shape (T, k).

    Each row's numerator is one matrix-vector product of the stacked
    diagonals with the products conj(b_k) a_l at their entries (k, l), and
    each row makes the dots and the division of the one-pair case, so it
    has the bits of ``weak_value``.  Rows are checked in order, as
    ``states_at`` and ``weak_value`` check one time after the other: the
    first row whose states are not finite raises ValueError, or whose
    |overlap| is at most OVERLAP_GUARD raises VanishingOverlapError.
    """
    finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
    bra = np.conj(b)
    denom = np.matmul(bra[:, None, :], a[:, :, None])[:, 0, 0]
    size = np.hypot(denom.real, denom.imag)  # the bits of abs(complex)
    bad = ~finite | (size <= OVERLAP_GUARD)
    if bad.any():
        row = int(bad.argmax())
        if not finite[row]:
            raise ValueError("coeffs must be finite")
        raise VanishingOverlapError(f"|overlap| = {size[row]:.3e}")
    pairs = np.zeros((len(a), 3, a.shape[1]), dtype=np.complex128)
    np.multiply(bra[:, 1:], a[:, :-1], out=pairs[:, 0, :-1])
    np.multiply(bra, a, out=pairs[:, 1])
    np.multiply(bra[:, :-1], a[:, 1:], out=pairs[:, 2, :-1])
    numerators = np.matmul(ops.reshape(ops.shape[:-2] + (-1,)),
                           pairs.reshape(len(a), -1, 1))[..., 0]
    return numerators / (denom if ops.ndim == 2 else denom[:, None])


def weak_value(op: np.ndarray, a: StateVec,
               b: StateVec) -> complex | np.ndarray:
    """Normalized matrix element (b|op|a)/(b|a) in the metric inner product,
    for an operator stored as its three diagonals (see FockRep); for a
    stack of operators, an array with one value per operator.  The one-row
    case of ``weak_values``."""
    if len(a) != len(b):
        raise LengthMismatchError(f"lengths differ: {len(a)} vs {len(b)}")
    values = weak_values(op, a.coeffs[None], b.coeffs[None])[0]
    return complex(values) if op.ndim == 2 else values


def weak_qp_closed(lambda_a_t: complex, lambda_b_t: complex,
                   params: ModelParams) -> tuple[complex, complex]:
    """Closed-form weak values of position and momentum for a coherent pair."""
    mw, hbar = params.momega, params.hbar
    lb_conj = np.conj(lambda_b_t)
    q = np.sqrt(hbar / (2 * mw)) * (lambda_a_t + lb_conj)
    p = -1j * np.sqrt(hbar * mw / 2) * (lambda_a_t - lb_conj)
    return complex(q), complex(p)


class TwoStateSystem:
    """Boundary states at their own times, both metric-normalized."""

    __slots__ = ("a0", "b0", "t_a", "t_b", "params", "rep")

    def __init__(self, a0: StateVec, b0: StateVec, t_a: float, t_b: float,
                 params: ModelParams, rep: FockRep):
        for name, state in (("a0", a0), ("b0", b0)):
            if abs(state.norm - 1.0) > 1e-12:
                raise ValueError(f"{name} must be metric-normalized, "
                                 f"norm = {state.norm!r}")
        for name, value in zip(self.__slots__, (a0, b0, t_a, t_b, params, rep)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def evolve(self, times) -> tuple[np.ndarray, np.ndarray]:
        """The forward and backward states at each of a 1-D array of
        times, as two (T, n) arrays, one row per time.

        Row i is a0 (b0) times ``level_phases`` at the step from t_a (t_b)
        to times[i], in its operation order, so it has the bits of
        ``evolve_a`` (``evolve_b``) at that step.  Rows are not checked:
        an overflowing phase gives a row that is not finite, which
        ``overlaps``, ``weak_values`` and ``states_at`` reject.
        """
        steps = np.asarray(times, dtype=float)[:, None]
        omega, n = self.params.omega, len(self.a0)
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.a0.coeffs * level_phases(omega, steps - self.t_a, n),
                    self.b0.coeffs * level_phases(np.conj(omega),
                                                  steps - self.t_b, n))

    def states_at(self, t: float) -> tuple[StateVec, StateVec]:
        """The evolved pair at one time; the one-time case of ``evolve``."""
        a, b = self.evolve([t])
        return StateVec(a[0]), StateVec(b[0])


class Trajectory(NamedTuple):
    """Amplitude and weak values along a time grid, one array per field.

    ``kept`` has one entry per input time and is False where the overlap
    vanishes; every other column holds only the kept samples, in input order.
    ``len`` is the number of kept samples, so ``_replace`` does not apply.
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

    Central finite differences of the matrix-route weak values, from
    ``weak_values`` at t - dt_fd, t and t + dt_fd; both residuals shrink as
    O(dt_fd^2).
    """
    # written so that a NaN step fails it
    if not 0 < dt_fd < math.inf:
        raise ValueError(f"dt_fd must be finite and positive, got {dt_fd!r}")
    ops = np.array([system.rep.q_op, system.rep.p_op])
    qp = weak_values(ops, *system.evolve([t - dt_fd, t, t + dt_fd]))
    return ehrenfest_from_weak_values(qp, dt_fd, system.params)


def ehrenfest_from_weak_values(qp: np.ndarray, dt_fd: float,
                               params: ModelParams) -> tuple[complex, complex]:
    """``ehrenfest_residual`` from the weak values of q_op and p_op at
    t - dt_fd, t and t + dt_fd, the rows of a (3, 2) array."""
    (q_minus, p_minus), (q_mid, p_mid), (q_plus, p_plus) = qp
    dq = (q_plus - q_minus) / (2 * dt_fd)
    dp = (p_plus - p_minus) / (2 * dt_fd)
    m, omega = params.m, params.omega
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

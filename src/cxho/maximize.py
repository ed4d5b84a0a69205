"""Maximization of the transition amplitude over normalized boundary states.

For duration T the amplitude between boundary states a and b is
sum_n conj(b_n) a_n exp(-i*omega*(n+1/2)*T), a bilinear form with the
diagonal kernel D = diag(exp(-i*omega*(n+1/2)*T)).  ``amplitudes`` evaluates
it for a whole array of pairs at once, with the bits of the one-pair
``amplitude``.  The maximum of |amplitude| over unit vectors is the largest
singular value of D.  When Im(omega) < 0 that value is exp(T*Im(omega)/2),
achieved only by concentrating both states on level zero; when
Im(omega) = 0 every phase-aligned pair achieves the maximum 1 and the
problem is degenerate.  ``maximize`` finds the pair by alternating (power)
iteration in which every sweep squares the contraction of the previous one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dynamics import level_phases, overlaps, weak_values
from .errors import LengthMismatchError, VanishingOverlapError
from .fock import FockRep, StateVec
from .params import ModelParams

#: Relative Im(omega) size below which the spectrum counts as real.
DEGENERACY_RTOL = 1e-12


def _level0_scale(params: ModelParams, duration: float) -> float:
    """|exp(-i*omega*T/2)|, the kernel's level-zero magnitude."""
    return math.exp(0.5 * duration * params.omega.imag)


def _scaled_kernel(params: ModelParams, duration: float, n: int) -> np.ndarray:
    """The kernel divided by its level-zero magnitude.

    Entries are exp(-i*omega*n*T) times a unit phase, so level zero has
    modulus 1 where the kernel itself may underflow at every level.
    """
    return np.exp(-1j * params.omega * (np.arange(n) + 0.5) * duration
                  - 0.5 * duration * params.omega.imag)


def amplitudes(a: np.ndarray, b: np.ndarray, duration: float,
               params: ModelParams) -> np.ndarray:
    """Transition amplitudes of the row pairs of two (pairs, n) arrays.

    Row i gives sum_n conj(b_in) a_in exp(-i*omega*(n+1/2)*T), the overlap
    of b[i] with the kernel image of a[i]: ``dynamics.overlaps``, which has
    the bits of ``np.vdot(b[i], kernel * a[i])`` and rejects rows that are
    not all finite.
    """
    return overlaps(level_phases(params.omega, duration, a.shape[1]) * a, b)


def unit_pairs(seed: int, pairs: int, n: int) -> np.ndarray:
    """Seeded pairs (a, b) of random unit vectors as a (pairs, 2, n) array.

    One (pairs, 4, n) draw holds the values of 4*pairs successive
    ``standard_normal(n)`` draws: re a, im a, re b, im b for each pair.
    Each vector is divided by its norm with ``np.linalg.norm``'s arithmetic
    for a complex vector, sqrt(re.re + im.im), as stacked matmuls making the
    same BLAS dots, so it has the bits of ``v / np.linalg.norm(v)``.
    """
    x = np.random.default_rng(seed).standard_normal((pairs, 4, n))
    vecs = x[:, 0::2] + 1j * x[:, 1::2]
    re, im = vecs.real[..., None, :], vecs.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    units = vecs / np.sqrt(sq[..., 0])
    if not np.isfinite(units).all():
        raise ValueError("coeffs must be finite")
    return units


def amplitude(a: StateVec, b: StateVec, duration: float,
              params: ModelParams) -> complex:
    """Transition amplitude between boundary states for the given duration.

    Independent of the common evolution time of the pair; the one-row case
    of ``amplitudes``.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"lengths differ: {len(a)} vs {len(b)}")
    return complex(amplitudes(a.coeffs[None], b.coeffs[None], duration,
                              params)[0])


def is_degenerate(params: ModelParams) -> bool:
    return abs(params.omega.imag) < DEGENERACY_RTOL * abs(params.omega)


def _check_duration(duration: float) -> None:
    # written so that a NaN duration fails it
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration!r}")


def analytic_max(duration: float, params: ModelParams,
                 n_max: int) -> tuple[float, tuple[int, ...]]:
    """Supremum of |amplitude| over unit pairs, exp(T*Im(omega)/2), and the
    levels achieving it: all of them where ``is_degenerate`` counts the
    spectrum as real, level zero otherwise."""
    _check_duration(duration)
    levels = tuple(range(n_max)) if is_degenerate(params) else (0,)
    return _level0_scale(params, duration), levels


class MaximizationResult(NamedTuple):
    a: StateVec
    b: StateVec
    duration: float
    amplitude_abs: float
    analytic_max: float
    ground_overlap: float
    degenerate: bool
    iterations: int
    converged: bool
    seed: int | None
    history: tuple[float, ...]


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    # global phase convention: leading component real positive when it
    # carries any weight
    lead = vec[0]
    if abs(lead) > 1e-12:
        vec = vec * (abs(lead) / lead)
    return vec


def maximize(duration: float, params: ModelParams, n_max: int,
             tol: float = 1e-12, max_iters: int = 10000,
             seed: int | None = 0,
             start: StateVec | None = None) -> MaximizationResult:
    """Find boundary states maximizing |amplitude| by alternating updates.

    The alternating update (a to the normalized adjoint-kernel image of b,
    b to the normalized kernel image of a) is power iteration for the top
    singular pair of the diagonal kernel D; one such sweep multiplies a by
    the real diagonal |D|^2.  Sweep k (counted from 0) applies its 2^k-th
    power instead, still elementwise, so every sweep squares the
    contraction exp(2*T*Im(omega)) of the levels below the top one and a
    near-real omega converges in tens of sweeps (repeated squaring,
    Golub & Van Loan section 7.3).  b is then the normalized kernel image
    of a, and |amplitude| never decreases.
    The iteration runs on the kernel divided by its level-zero magnitude,
    which is multiplied back into |amplitude|, so a kernel that underflows
    for large |Im omega|*T still yields the maximizing pair.
    A sweep converges when neither |amplitude| nor the iterates moved by
    ``tol`` and the next sweep cannot move a by ``tol``: every off-top
    |a_n| times its next weight is below ``tol`` times the top |a_n|, or
    no weight is below the top one.  (The amplitude stagnates well before
    the states do, and the vanishing of the coordinate weak values needs
    the states themselves.)  ``iterations`` counts sweeps and
    ``max_iters`` caps them; ``converged=False`` flags hitting the cap,
    and the result is still returned.  An exponent omega*(n_max - 1/2)*T
    or a start norm that overflows, or a start norm of 0, raises
    ValueError; a start whose image under the scaled kernel has norm 0 in
    double precision raises VanishingOverlapError.
    """
    _check_duration(duration)
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    exponent = params.omega * (n_max - 0.5) * duration
    if not np.isfinite(exponent):
        raise ValueError(f"the kernel exponent omega*(nmax - 1/2)*T leaves the "
                         f"double range: T = {duration!r}, omega = "
                         f"{params.omega!r} and nmax = {n_max} give "
                         f"{exponent!r}")
    kernel = _scaled_kernel(params, duration, n_max)
    scale = _level0_scale(params, duration)

    if start is not None:
        a_vec = start.coeffs.astype(np.complex128)
        if a_vec.size != n_max:
            raise LengthMismatchError(
                f"start has length {a_vec.size}, expected {n_max}")
        used_seed = None
    else:
        rng = np.random.default_rng(seed)
        a_vec = rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)
        used_seed = seed
    with np.errstate(over="ignore"):
        a_norm = np.linalg.norm(a_vec)
    if not 0.0 < a_norm < math.inf:
        # a zero start would turn every sweep to NaN, an infinite norm
        # would scale the start to zero
        raise ValueError(f"start must have a finite nonzero norm, got {a_norm}")
    a_vec = _fix_phase(a_vec / a_norm)
    b_vec = kernel * a_vec
    norm = float(np.linalg.norm(b_vec))
    if norm == 0.0:
        # the sweeps never decrease this norm, so only the first can be 0
        raise VanishingOverlapError(
            "the start's image under the kernel scaled by its level-zero "
            "modulus has norm 0 in double precision: its squared modulus "
            "underflows on every level the start carries")
    amp_abs = norm * scale  # |b' D a| for the optimal b'
    b_vec = _fix_phase(b_vec / norm)

    # log |D_n|^2 shifted so that the top level a carries has log-weight
    # exactly 0; a level a does not carry stays empty (weight 0)
    carried = a_vec != 0
    with np.errstate(over="ignore"):  # an exponent of -inf is weight 0
        log_weights = np.where(carried, 2.0 * duration * params.omega.imag
                               * np.arange(n_max), -np.inf)
    top = int(np.argmax(log_weights))
    log_weights -= log_weights[top]

    def sweep_weights(k: int) -> np.ndarray:
        # |D|^(2*2^k), computed afresh rather than by squaring the last
        # weights; the top entry stays exp(0) = 1, an exponent that
        # overflows to -inf gives weight 0, and neither can give NaN.
        # 2^2100 times the smallest subnormal overflows, so capping the
        # doubling there changes no weight.
        with np.errstate(over="ignore"):
            return np.exp(np.ldexp(log_weights, min(k, 2100)))

    history = [amp_abs]
    converged = False
    iterations = 0
    weights = sweep_weights(0)
    for iterations in range(1, max_iters + 1):
        a_new = weights * a_vec
        a_new = _fix_phase(a_new / np.linalg.norm(a_new))
        b_new = kernel * a_new
        norm = float(np.linalg.norm(b_new))
        new_amp = norm * scale
        b_new = _fix_phase(b_new / norm)
        step = max(np.abs(a_new - a_vec).max(), np.abs(b_new - b_vec).max())
        a_vec, b_vec = a_new, b_new
        history.append(new_amp)
        weights = sweep_weights(iterations)
        # off-top components relative to the top one after the next sweep;
        # later sweeps only shrink them further
        moves = np.abs(a_vec) * weights
        moves[top] = 0.0
        settled = (moves.max() < tol * abs(a_vec[top])
                   or weights[carried].min() >= 1.0)
        done = abs(new_amp - amp_abs) < tol and step < tol and settled
        amp_abs = new_amp
        if done:
            converged = True
            break

    best, _ = analytic_max(duration, params, n_max)
    return MaximizationResult(
        a=StateVec(a_vec), b=StateVec(b_vec), duration=float(duration),
        amplitude_abs=amp_abs, analytic_max=best,
        ground_overlap=float(abs(a_vec[0])),
        degenerate=is_degenerate(params),
        iterations=iterations, converged=converged,
        seed=used_seed, history=tuple(history),
    )


def max_weak_values(result: MaximizationResult, rep: FockRep
                    ) -> tuple[complex, complex, complex]:
    """Weak values of q_herm, p_herm and h_herm between the maximizers.

    ``dynamics.weak_values`` between a and b*conj(K): b transported to the
    initial time through the kernel K, scaled as in ``maximize`` (the
    ratios do not see the scale).  The overlap has modulus |K a| > 0.  For
    a non-degenerate converged result both coordinate values vanish and the
    energy value is the level-zero entry of h_herm; in the degenerate case
    the values are still returned but carry no such guarantee.
    """
    kernel = _scaled_kernel(rep.params, result.duration, result.a.coeffs.size)
    ops = np.array([rep.q_herm, rep.p_herm, rep.h_herm])
    values = weak_values(ops, result.a.coeffs[None],
                         (result.b.coeffs * np.conj(kernel))[None])
    return tuple(map(complex, values[0]))

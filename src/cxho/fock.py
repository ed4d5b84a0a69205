"""Truncated representation of the oscillator in its mode basis.

All operators are expressed in the coefficients of the right eigenbasis of
the Hamiltonian, normalized against the dual (left) basis.  In these
coordinates the metric inner product is the plain Euclidean dot product, the
ladder algebra is exact, and conjugation with respect to the metric is the
ordinary conjugate transpose.  Each operator is stored as its diagonals;
the matrix elements between two states are formed in ``dynamics``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import (
    CoherentTailWarning,
    LengthMismatchError,
    NotNormalizableError,
)
from .params import ModelParams, derived

#: Bound on the coherent-state mass beyond the kept levels.
COHERENT_TAIL_BOUND = 1e-12


class StateVec:
    """Immutable coefficient vector in the mode basis: a read-only complex
    copy of ``coeffs``, which must be one-dimensional and finite."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"StateVec(coeffs={self.coeffs!r})"

    def __len__(self) -> int:
        return self.coeffs.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "StateVec":
        return StateVec(self.coeffs / self.norm)


class FockRep(NamedTuple):
    """Operators at truncation ``n_max``, each stored as its three diagonals.

    Each operator A is a (3, n_max) array whose row 1 + k holds
    ``np.diagonal(A, k)`` for k = -1, 0, 1, the two off-diagonals padded
    with a zero at the end; A has no entries off these diagonals, and its
    conjugate transpose is ``np.conj(A[::-1])``.
    ``lowering``/``raising`` carry the exact ladder entries, ``h`` is the
    diagonal Hamiltonian, ``h_adj`` its metric adjoint (omega*/omega times
    h), ``q_op``/``p_op`` the non-Hermitian position and momentum,
    ``q_herm``/``p_herm`` their metric-Hermitian rotations and
    ``h_herm``/``h_anti`` the Hermitian/anti-Hermitian split of ``h``.
    """

    params: ModelParams
    n_max: int
    lowering: np.ndarray
    raising: np.ndarray
    h: np.ndarray
    h_adj: np.ndarray
    q_op: np.ndarray
    p_op: np.ndarray
    q_herm: np.ndarray
    p_herm: np.ndarray
    h_herm: np.ndarray
    h_anti: np.ndarray


def build(params: ModelParams, n_max: int) -> FockRep:
    """Assemble all operators.

    Raises NotNormalizableError when |arg(m*omega)| >= pi/2, where the mode
    states stop being normalizable against their duals.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if not params.normalizable:
        raise NotNormalizableError(
            f"|arg(m*omega)| = {abs(params.theta):.6g} >= pi/2")

    roots = np.sqrt(np.arange(1, n_max, dtype=np.float64))
    lowering, raising, h, h_adj = np.zeros((4, 3, n_max), dtype=np.complex128)
    lowering[2, :-1] = raising[0, :-1] = roots

    hbar, mw = params.hbar, params.momega
    levels = np.arange(n_max) + 0.5
    h[1] = hbar * params.omega * levels
    h_adj[1] = hbar * np.conj(params.omega) * levels

    q_op = np.sqrt(hbar / (2 * mw)) * (lowering + raising)
    p_op = -1j * np.sqrt(hbar * mw / 2) * (lowering - raising)
    half_turn = cmath.exp(0.5j * params.theta)
    return FockRep(
        params=params, n_max=n_max,
        lowering=lowering, raising=raising,
        h=h, h_adj=h_adj, q_op=q_op, p_op=p_op,
        q_herm=half_turn * q_op, p_herm=p_op / half_turn,
        h_herm=(h + h_adj) / 2, h_anti=(h - h_adj) / 2,
    )


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Diagonals -2 .. 2 of x @ y for stacks of operators stored as in
    FockRep, as (..., 5, n) with entry (i, i + k) at row 2 + k, column i."""
    rows = y.copy()  # y indexed by row: entry (j, j + t - 1) at [t, j]
    rows[..., 0, 0], rows[..., 0, 1:] = 0, y[..., 0, :-1]
    out = np.zeros(x.shape[:-2] + (5, x.shape[-1]), dtype=np.complex128)
    # x[i, i + s - 1] y[i + s - 1, i + s + t - 2] is on diagonal s + t - 2
    out[..., 0:3, 1:] = x[..., 0:1, :-1] * rows[..., :-1]
    out[..., 1:4, :] += x[..., 1:2, :] * rows
    out[..., 2:5, :-1] += x[..., 2:3, :-1] * rows[..., 1:]
    return out


def _block_max(bands: np.ndarray, stop: int) -> np.ndarray:
    """Largest |entry| of each leading stop x stop block in a stack stored
    as ``_product`` returns it."""
    mags = np.abs(bands[..., :stop])
    mags[..., 3, stop - 1:] = mags[..., 4, max(stop - 2, 0):] = 0
    return mags.max(axis=(-2, -1), initial=0.0)


def commutator_defect(rep: FockRep, full_block: bool = False) -> float:
    """Largest violation of [A, R] = 1 and [q_herm, p_herm] = i*hbar.

    By default the last row and column are excluded, since they carry the
    truncation artifact; ``full_block=True`` includes them.  Every entry of
    the block is checked, the two diagonals of each side included.
    """
    ops = np.array([rep.lowering, rep.raising, rep.q_herm, rep.p_herm])
    products = _product(ops, ops[[1, 0, 3, 2]])
    commutators = products[::2] - products[1::2]
    commutators[0, 2] -= 1
    commutators[1, 2] -= 1j * rep.params.hbar
    stop = rep.n_max if full_block else rep.n_max - 1
    return float(_block_max(commutators, stop).max())


def herm_split_defect(rep: FockRep) -> tuple[float, float, float]:
    """Defects of the Hermitian/anti-Hermitian Hamiltonian split.

    Compares ``h_herm`` against p_herm^2/(2 m_herm) + m_herm*omega_herm^2*
    q_herm^2/2 and ``h_anti`` against the corresponding anti form, on the
    leading (n_max - 2) block (quadratic operators pollute the last two
    rows and columns), all five diagonals of the squares included.  The
    third value is the defect of h_anti = i*tan(arg omega)*h_herm, which
    holds entrywise.
    """
    scales = derived(rep.params)
    coords = np.array([rep.q_herm, rep.p_herm])
    q2, p2 = _product(coords, coords)
    try:
        herm_w2, anti_w2 = scales.omega_herm**2, scales.omega_anti**2
    except OverflowError as exc:
        raise OverflowError(f"omega = {rep.params.omega!r} overflows when "
                            f"squared in the Hamiltonian split") from exc
    direct_h = p2 / (2 * scales.m_herm) + 0.5 * scales.m_herm * herm_w2 * q2
    if scales.m_anti is None:
        direct_a = np.zeros_like(direct_h)
    else:
        direct_a = -1j * (p2 / (2 * scales.m_anti)
                          + 0.5 * scales.m_anti * anti_w2 * q2)
    direct_h[1:4] -= rep.h_herm
    direct_a[1:4] -= rep.h_anti
    h_defect, a_defect = _block_max(np.array([direct_h, direct_a]),
                                    rep.n_max - 2)
    tan_w = math.tan(rep.params.theta_omega)
    return (float(h_defect), float(a_defect),
            float(np.abs(rep.h_anti - 1j * tan_w * rep.h_herm).max()))


def conjugation_defect(rep: FockRep) -> tuple[float, float]:
    """Defects of q_op^† = e^{i theta} q_op and p_op^† = e^{-i theta} p_op.

    The dagger here is the metric adjoint, which in these coordinates is the
    conjugate transpose.  Both identities are exact, truncation included.
    """
    phase = cmath.exp(1j * rep.params.theta)
    return (float(np.abs(np.conj(rep.q_op[::-1]) - phase * rep.q_op).max()),
            float(np.abs(np.conj(rep.p_op[::-1]) - rep.p_op / phase).max()))


def coherent_coeffs(lam: complex, n_max: int) -> StateVec:
    """Coefficients e^{-|lam|^2/2} lam^n / sqrt(n!) of a coherent state.

    Raises ValueError when the kept coefficients have norm 0 in double
    precision, and warns when the mass sum_{n >= n_max} |f(n)|^2 beyond the
    kept levels exceeds COHERENT_TAIL_BOUND, signalling that ``n_max`` is
    too small for this ``lam``.
    """
    f = np.empty(n_max, dtype=np.complex128)
    f[0] = math.exp(-0.5 * abs(lam) ** 2)
    for n in range(1, n_max):
        f[n] = f[n - 1] * lam / math.sqrt(n)
    if np.vdot(f, f) == 0:
        raise ValueError(f"coherent state lam = {lam!r} has no mass in double "
                         f"precision on its n_max = {n_max} kept levels")
    # the terms past the kept levels by the same recurrence (1 - sum would
    # cancel); past the peak at n = |lam|^2 they fall geometrically
    r, tail, term, n = abs(lam), 0.0, float(abs(f[-1])), n_max
    while not (n > r * r and term * term <= 2.0**-53 * tail):
        term *= r / math.sqrt(n)
        tail += term * term
        n += 1
    if tail > COHERENT_TAIL_BOUND:
        warnings.warn(
            f"coherent tail mass {tail:.3e} beyond level {n_max - 1} exceeds "
            f"{COHERENT_TAIL_BOUND:g}; increase n_max",
            CoherentTailWarning)
    return StateVec(f)


def q_inner(u: StateVec, v: StateVec) -> complex:
    """Metric inner product, which is the Euclidean dot product here."""
    if len(u) != len(v):
        raise LengthMismatchError(f"lengths differ: {len(u)} vs {len(v)}")
    return complex(np.vdot(u.coeffs, v.coeffs))

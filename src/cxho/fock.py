"""Truncated matrix representation of the oscillator in its mode basis.

All operators are expressed in the coefficients of the right eigenbasis of
the Hamiltonian, normalized against the dual (left) basis.  In these
coordinates the metric inner product is the plain Euclidean dot product, the
ladder algebra is exact, and conjugation with respect to the metric is the
ordinary conjugate transpose.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoherentTailWarning,
    LengthMismatchError,
    NotNormalizableError,
)
from .params import ModelParams, derived

#: Recommended bound on the last retained coherent coefficient.
COHERENT_TAIL_BOUND = 1e-12


@dataclass(frozen=True)
class StateVec:
    """Immutable coefficient vector in the mode basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "StateVec":
        return StateVec(self.coeffs / self.norm)


@dataclass(frozen=True)
class FockRep:
    """Dense operator matrices at truncation ``n_max``.

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
    """Assemble all operator matrices.

    Raises NotNormalizableError when |arg(m*omega)| >= pi/2, where the mode
    states stop being normalizable against their duals.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if not params.normalizable:
        raise NotNormalizableError(
            f"|arg(m*omega)| = {abs(params.theta):.6g} >= pi/2")

    roots = np.sqrt(np.arange(1, n_max, dtype=np.float64))
    lowering = np.diag(roots, 1).astype(np.complex128)
    raising = np.diag(roots, -1).astype(np.complex128)

    hbar, mw = params.hbar, params.momega
    levels = np.arange(n_max) + 0.5
    h = np.diag(hbar * params.omega * levels)
    h_adj = np.diag(hbar * np.conj(params.omega) * levels)

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


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def commutator_defect(rep: FockRep, full_block: bool = False) -> float:
    """Largest violation of [A, R] = 1 and [q_herm, p_herm] = i*hbar.

    By default the last row and column are excluded, since they carry the
    truncation artifact; ``full_block=True`` includes them.
    """
    n = rep.n_max
    eye = np.eye(n)
    c_ladder = rep.lowering @ rep.raising - rep.raising @ rep.lowering - eye
    c_qp = (rep.q_herm @ rep.p_herm - rep.p_herm @ rep.q_herm
            - 1j * rep.params.hbar * eye)
    stop = n if full_block else n - 1
    return max(_maxabs(c_ladder[:stop, :stop]), _maxabs(c_qp[:stop, :stop]))


def herm_split_defect(rep: FockRep) -> tuple[float, float, float]:
    """Defects of the Hermitian/anti-Hermitian Hamiltonian split.

    Compares ``h_herm`` against p_herm^2/(2 m_herm) + m_herm*omega_herm^2*
    q_herm^2/2 and ``h_anti`` against the corresponding anti form, on the
    leading (n_max - 2) block (quadratic operators pollute the last two
    rows and columns).  The third value is the defect of
    h_anti = i*tan(arg omega)*h_herm, which holds entrywise.
    """
    scales = derived(rep.params)
    q2 = rep.q_herm @ rep.q_herm
    p2 = rep.p_herm @ rep.p_herm
    direct_h = p2 / (2 * scales.m_herm) + 0.5 * scales.m_herm * scales.omega_herm**2 * q2
    if scales.m_anti is None:
        direct_a = np.zeros_like(direct_h)
    else:
        direct_a = -1j * (p2 / (2 * scales.m_anti)
                          + 0.5 * scales.m_anti * scales.omega_anti**2 * q2)
    stop = rep.n_max - 2
    tan_w = math.tan(rep.params.theta_omega)
    return (
        _maxabs((rep.h_herm - direct_h)[:stop, :stop]),
        _maxabs((rep.h_anti - direct_a)[:stop, :stop]),
        _maxabs(rep.h_anti - 1j * tan_w * rep.h_herm),
    )


def conjugation_defect(rep: FockRep) -> tuple[float, float]:
    """Defects of q_op^† = e^{i theta} q_op and p_op^† = e^{-i theta} p_op.

    The dagger here is the metric adjoint, which in these coordinates is the
    conjugate transpose.  Both identities are exact, truncation included.
    """
    phase = cmath.exp(1j * rep.params.theta)
    q_defect = _maxabs(rep.q_op.conj().T - phase * rep.q_op)
    p_defect = _maxabs(rep.p_op.conj().T - rep.p_op / phase)
    return q_defect, p_defect


def coherent_coeffs(lam: complex, n_max: int) -> StateVec:
    """Coefficients e^{-|lam|^2/2} lam^n / sqrt(n!) of a coherent state.

    Warns when the last retained coefficient exceeds the recommended tail
    bound, signalling that ``n_max`` is too small for this ``lam``.
    """
    f = np.empty(n_max, dtype=np.complex128)
    f[0] = math.exp(-0.5 * abs(lam) ** 2)
    for n in range(1, n_max):
        f[n] = f[n - 1] * lam / math.sqrt(n)
    if abs(f[-1]) >= COHERENT_TAIL_BOUND:
        warnings.warn(
            f"coherent tail |f({n_max - 1})| = {abs(f[-1]):.3e} exceeds "
            f"{COHERENT_TAIL_BOUND:g}; increase n_max",
            CoherentTailWarning)
    return StateVec(f)


def q_inner(u: StateVec, v: StateVec) -> complex:
    """Metric inner product, which is the Euclidean dot product here."""
    if len(u) != len(v):
        raise LengthMismatchError(f"lengths differ: {len(u)} vs {len(v)}")
    return complex(np.vdot(u.coeffs, v.coeffs))

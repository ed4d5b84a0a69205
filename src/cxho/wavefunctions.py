"""Position-space wavefunctions and the Gram/metric matrices of the mode basis.

Level wavefunctions, with or without the regulators, are Hermite
polynomials times a complex Gaussian, all evaluated by ``_hermite_level``;
the complex product m*omega enters everywhere a real frequency would in the
textbook oscillator.  Overlaps between the two bases are analytic in
m*omega and are computed on a contour rotated by -arg(m*omega)/2, which
maps the integrand onto a real Gaussian.  Same-basis overlaps involve both
m*omega and its conjugate; they depend on theta = arg(m*omega) alone and,
like their inverse (the metric matrix), follow in closed form from the
Hermite scaling identity, with no quadrature nodes and no factorization:
each parity block is a real symmetric block times the exact phase pattern
i^(b - a), and one real eigvalsh per block of each gives the condition
number of S and the smallest eigenvalue of the metric.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import NamedTuple

import numpy as np

from ._kernels import hermite_table
from .contour import ContourPath, rotated_path
from .errors import (
    ConvergenceViolatedError,
    IllConditionedWarning,
    InvalidPathError,
    NonFiniteSampleError,
    NotNormalizableError,
    ValidityExceededError,
)
from .params import ModelParams, regulated_momega

#: Condition-number threshold beyond which the Gram matrix is reported.
COND_LIMIT = 1e12


def hermite(n: int, z):
    """Physicists' Hermite polynomial H_n at complex z (scalar or array).

    Three-term recurrence; equivalent to the generator
    e^{z^2/2} (z - d/dz)^n e^{-z^2/2}.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
    vals = hermite_table(n + 1, z_arr)[n]
    return complex(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def _hermite_level(n: int, q, pref, mu, alpha, hbar: float):
    """pref/sqrt(2^n n!) * H_n(mu*q) * exp(-alpha*q^2/(2 hbar)) at q, a
    scalar or an array; NonFiniteSampleError where a sample is not finite,
    naming H_n or the Gaussian."""
    pref = pref * math.exp(-0.5 * (math.lgamma(n + 1.0) + n * math.log(2.0)))
    q_arr = np.asarray(q, dtype=np.complex128)
    # an overflow is reported below, not as RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        poly = hermite(n, mu * q_arr)
        vals = pref * poly * np.exp(-0.5 * alpha / hbar * q_arr**2)
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        factor = "H_n" if not np.isfinite(poly).all() else "the Gaussian"
        raise NonFiniteSampleError(
            f"level n = {n} is not finite at {bad} of {vals.size} samples: "
            f"{factor} overflows there")
    return vals if np.ndim(q) else complex(vals)


def _basis_momega(basis: int, params: ModelParams) -> complex:
    if basis == 1:
        return params.momega
    if basis == 2:
        return np.conj(params.momega)
    raise ValueError(f"basis must be 1 or 2, got {basis!r}")


def eigenfunction(basis: int, n: int, q, params: ModelParams):
    """Level-n wavefunction of basis 1 (or its dual partner, basis 2).

    Valid for n < 1/eps, where the regulator corrections to the polynomial
    part stay negligible; beyond that a ValidityExceededError is raised.
    Raises NonFiniteSampleError when a sample is not finite: where H_n
    overflows (n of a few hundred, or the far tails at n ~ 150), or where
    the Gaussian grows off the real axis.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= 1.0 / params.eps:
        raise ValidityExceededError(
            f"n = {n} >= 1/eps = {1.0 / params.eps:.6g}")
    mw = _basis_momega(basis, params)
    hbar = params.hbar
    scale = np.sqrt(mw / hbar)
    try:
        norm = (mw / (math.pi * hbar)) ** 0.25
    except OverflowError as exc:
        raise OverflowError(f"hbar = {hbar!r} overflows the normalization "
                            f"(m omega / (pi hbar))**0.25") from exc
    return _hermite_level(n, q, norm, scale, mw, hbar)


def _regulated_basis(basis: int, params: ModelParams, eps, eps_prime):
    """(alpha, beta, C, m*omega, +-eps', 1 - eps*eps') of a regulated basis:
    basis 1 has alpha, beta = mw1, mw2, and basis 2 is its conjugate partner
    (alpha and beta swapped) with eps' negated."""
    eps = params.eps if eps is None else float(eps)
    eps_prime = params.eps_prime if eps_prime is None else float(eps_prime)
    if eps < 0 or eps_prime < 0 or eps * eps_prime >= 1:
        raise ValueError(f"invalid regulators ({eps!r}, {eps_prime!r})")
    mw = params.momega
    mw1, mw2 = regulated_momega(mw, eps, eps_prime)
    if mw1.real <= 0 or mw2.real <= 0:
        raise ConvergenceViolatedError(
            f"need Re of both shifted m*omega products > 0, got "
            f"{mw1.real:.6g} and {mw2.real:.6g}")
    if mw.real <= eps_prime or (eps > 0 and mw.real >= 1.0 / eps):
        raise ConvergenceViolatedError(
            f"need eps' < Re(m*omega) < 1/eps, got Re = {mw.real:.6g}")
    shrink = 1 - eps * eps_prime
    c = (mw * shrink
         / (math.pi * params.hbar * (1 - mw * mw * eps * eps))) ** 0.25
    if basis == 1:
        return mw1, mw2, c, mw, eps_prime, shrink
    if basis == 2:
        return (np.conj(mw2), np.conj(mw1), np.conj(c), np.conj(mw),
                -eps_prime, shrink)
    raise ValueError(f"basis must be 1 or 2, got {basis!r}")


def ground_regulated(basis: int, q, params: ModelParams,
                     eps: float | None = None, eps_prime: float | None = None):
    """Finite-regulator ground-state wavefunction.

    Basis 1 is C*exp(-mw1*q^2/(2 hbar)); basis 2 is the conjugate-coefficient
    partner with mw2.  The shared constant C makes the dual overlap of the
    two ground states equal one.  Regulators default to the ones stored in
    ``params``; pass 0 explicitly for the regulator-free forms.
    """
    alpha, _, pref, *_ = _regulated_basis(basis, params, eps, eps_prime)
    q_arr = np.asarray(q, dtype=np.complex128)
    vals = pref * np.exp(-0.5 * alpha / params.hbar * q_arr**2)
    return vals if np.ndim(q) else complex(vals)


def excited_regulated(basis: int, n: int, q, params: ModelParams,
                      eps: float | None = None, eps_prime: float | None = None):
    """Finite-regulator level-n wavefunction at q, a scalar or an array.

    The ladder (1 + alpha/beta) q - (hbar/beta) d/dq maps lambda^k H_k(mu q)
    to lambda^(k+1) H_(k+1)(mu q), mu = sqrt((alpha + beta)/(2 hbar)),
    lambda = hbar*mu/beta: the level is H_n(mu q) times the ground state,
    scaled.  Raises NonFiniteSampleError where a sample is not finite.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    alpha, beta, pref, mw, shift, shrink = _regulated_basis(
        basis, params, eps, eps_prime)
    hbar = params.hbar
    step = np.sqrt(mw / (2 * hbar)) * (1 + shift / mw) / math.sqrt(shrink)
    mu = np.sqrt((alpha + beta) / (2 * hbar))
    gain = math.sqrt(2) * step * hbar * mu / beta
    return _hermite_level(n, q, pref * gain**n, mu, alpha, hbar)


def coherent_wavefunction(basis: int, lam: complex, q, params: ModelParams):
    """Displaced-Gaussian form of the coherent state wavefunction."""
    mw = _basis_momega(basis, params)
    if mw.real <= 0:
        raise NotNormalizableError(
            f"coherent states need Re(m*omega) > 0, got {mw.real:.6g}")
    hbar = params.hbar
    pref = (np.exp(0.5 * (lam * lam - abs(lam) ** 2))
            * (mw / (math.pi * hbar)) ** 0.25)
    center = lam * np.sqrt(2 * hbar / mw)
    q_arr = np.asarray(q, dtype=np.complex128)
    vals = pref * np.exp(-0.5 * mw / hbar * (q_arr - center) ** 2)
    return vals if np.ndim(q) else complex(vals)


def _check_path_converges(momega: complex, path: ContourPath) -> None:
    phi = cmath.phase(path.direction)
    if (momega * path.direction**2).real <= 0:
        raise InvalidPathError(
            f"Gaussian integrand grows along a path at angle {phi:.6g} "
            f"for arg(m*omega) = {cmath.phase(momega):.6g}")


def _finite_gram(values: np.ndarray, n_max: int, cause: str) -> np.ndarray:
    """``values`` (a Gram matrix or the table it is built from) if every
    entry is finite, else NonFiniteSampleError naming ``cause``."""
    if not np.isfinite(values).all():
        raise NonFiniteSampleError(
            f"Gram matrix at n_max = {n_max} is not finite: {cause}")
    return values


def parity_blocks(*mats: np.ndarray) -> list[list[np.ndarray]]:
    """Views ``mat[p::2, p::2]`` of each matrix, one list per parity p = 0, 1.

    The levels have parity (-1)^n at every m*omega, so S, the metric matrix
    and the cross matrix vanish wherever m + n is odd and are these two
    blocks; a one-level matrix has no odd block.  Writes to a view reach
    the matrix.
    """
    return [[mat[p::2, p::2] for mat in mats]
            for p in range(min(2, len(mats[0])))]


def _mirrored_half(path: ContourPath) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s >= 0 of a mirror-symmetric rule and their weights, doubled
    except at a middle node s = 0.

    H_k(-x) = (-1)^k H_k(x) holds bit for bit through the recurrence, so on
    such a rule the two nodes of a mirror pair add equal terms where m + n
    is even and cancel where it is odd.  Any other rule raises ValueError.
    """
    nodes, weights = path.nodes, path.weights
    if not ((nodes[::-1] == -nodes).all() and (weights[::-1] == weights).all()):
        raise ValueError(
            f"the {nodes.size}-node rule on the path at angle "
            f"{cmath.phase(path.direction):.6g} out to |q| = "
            f"{np.abs(nodes).max():.6g} is not mirror-symmetric about q = 0")
    half, odd = divmod(nodes.size, 2)
    return nodes[half:], np.concatenate((weights[half:half + odd],
                                         2.0 * weights[half + odd:]))


def cross_gram(params: ModelParams, n_max: int,
               path: ContourPath | None = None) -> np.ndarray:
    """Dual-basis overlap matrix by contour quadrature; contracts to identity.

    Entry (m, n) integrates the analytic-in-m*omega product of the dual
    partner of level m with level n.  The default contour is the ray at
    -arg(m*omega)/2, on which the integrand is a real Gaussian, out to
    12*sqrt(hbar/|m*omega|)*sqrt(n_max) on either side.  The rule must be
    mirror symmetric: the Hermite table is built on its half s >= 0 with
    doubled weights, checked for overflow, normalized row by row in place
    and each parity block is one product on that half; entries at m + n
    odd are exact zeros.
    """
    if not params.normalizable:
        raise NotNormalizableError(
            f"|arg(m*omega)| = {abs(params.theta):.6g} >= pi/2")
    if n_max >= 1.0 / params.eps:
        raise ValidityExceededError(
            f"n_max = {n_max} >= 1/eps = {1.0 / params.eps:.6g}")
    if path is None:
        # sqrt(hbar/r) first: hbar * n_max may overflow where the width does not
        path = rotated_path(-params.theta / 2, 12.0 * math.sqrt(
            params.hbar / params.r) * math.sqrt(n_max))
    mw, hbar = params.momega, params.hbar
    _check_path_converges(mw, path)
    nodes, weights = _mirrored_half(path)
    ratio = mw / hbar
    if not cmath.isfinite(ratio):
        raise OverflowError(f"hbar = {hbar!r} overflows the node scale "
                            f"sqrt(m omega / hbar)")
    x = np.sqrt(ratio) * nodes
    envelope = weights * np.exp(-x * x) * path.direction
    cause = "the Hermite polynomials overflow at the quadrature nodes"
    # an overflow is reported by _finite_gram alone: in the table before
    # any product, and in the products off the default ray, where x is
    # not real and the normalized rows times exp(-x^2/2) need not stay
    # bounded
    with np.errstate(over="ignore", invalid="ignore"):
        table = _finite_gram(hermite_table(n_max, x), n_max, cause)
        # rows times 1/sqrt(2^k k!), through lgamma to survive large k
        lg = np.array([math.lgamma(k + 1.0) for k in range(n_max)])
        table *= np.exp(-0.5 * (lg + np.arange(n_max) * math.log(2.0)))[:, None]
        gram = np.zeros((n_max, n_max), dtype=np.complex128)
        for parity, (block,) in enumerate(parity_blocks(gram)):
            rows = table[parity::2]
            block[...] = (rows * envelope) @ rows.T
        gram *= np.sqrt(ratio / math.pi)  # pi * hbar may overflow
    return _finite_gram(gram, n_max, cause)


class GramMatrices(NamedTuple):
    """Same-basis Gram matrix S, its inverse (the metric matrix), and the
    dual-basis cross matrix, with the condition number of S and the
    smallest eigenvalue of the metric.

    All three matrices are full n_max x n_max with exact zeros at m + n
    odd; each is computed per parity block (``parity_blocks``).  S and the
    metric are exactly Hermitian: each block is the phase pattern
    i^(b - a) times a real symmetric block, whose eigenvalues it shares.
    """

    S: np.ndarray
    Qmat: np.ndarray
    cross: np.ndarray
    condition_number: float
    metric_min_eigenvalue: float


def _triangular_factor(g: complex, h: complex, levels: np.ndarray) -> np.ndarray:
    """Upper-triangular F[a, b] = g^(k+1/2) h^j sqrt(n!/k!)/j! between the
    levels k = levels[a] and n = levels[b] = k + 2j of one parity.

    Each row is a running product along j, seeded by g^(k+1/2) on the
    diagonal, whose step is h sqrt(n (n-1))/j.  The cells below the
    diagonal are steps of 1 and are zeroed after the product, so they
    cannot overflow.
    """
    j = (levels - levels[:, None]) // 2
    steps = np.where(
        j > 0, h * np.sqrt(levels * (levels - 1.0)) / np.maximum(j, 1), 1)
    np.fill_diagonal(steps, g ** (levels + 0.5))
    return np.triu(np.cumprod(steps, axis=1))


def gram_and_metric(params: ModelParams, n_max: int) -> GramMatrices:
    """Gram matrix of the mode basis, the metric matrix, and the cross matrix.

    The cross matrix comes first, so its Hermite overflow (as at n_max 128)
    raises NonFiniteSampleError before S is built.  With gamma =
    e^(i theta/2)/sqrt(cos theta), level n is sum_k R[k, n] e_k over the
    orthonormal Hermite functions e_k of Re(m*omega) (times a chirp), where
    R[k, k+2j] = gamma^(k+1/2) (i tan(theta)/2)^j sqrt((k+2j)!/k!)/j!
    follows from H_n(gamma y) = sum_j n!/(j!(n-2j)!) gamma^(n-2j)
    (gamma^2-1)^j H_(n-2j)(y).  Its inverse is the same identity read
    backwards, with 1/gamma and (gamma^-2 - 1)/2 = -(i/2) sin(theta)
    e^(-i theta).  Both differ from the real ``_triangular_factor`` at
    g = 1/sqrt(cos theta), h = tan(theta)/2 (R~) and at g = sqrt(cos
    theta), h = -sin(theta)/2 (R~^-1) only by phases that cancel in the
    products up to i^(b - a), so per parity block S = P o R~^T R~ and the
    metric is P o R~^-1 R~^-T, with P[a, b] = i^(b - a) taken elementwise,
    exactly.  No quadrature nodes and no factorization: every term of an
    entry has the same sign, so both are accurate entry by entry at any
    conditioning.  An S that overflows raises NonFiniteSampleError.  One
    eigvalsh per real block of each gives cond(S) = lambda_max(S)
    lambda_max(S^-1), the well-conditioned end of both spectra, and the
    metric's smallest eigenvalue; a cond beyond 1e12 is reported through
    IllConditionedWarning, but the result is still returned.
    """
    cross = cross_gram(params, n_max)
    theta = params.theta
    cos = math.cos(theta)
    s_mat = np.zeros((n_max, n_max), dtype=np.complex128)
    q_mat = np.zeros_like(s_mat)
    # P[a, b] = i^(b - a) on the even block; the odd block's is its corner
    index = np.arange((n_max + 1) // 2)
    phase = np.array([1, 1j, -1, -1j])[(index - index[:, None]) % 4]
    s_max = q_max = 0.0
    q_min = math.inf
    for parity, (s_block, q_block) in enumerate(parity_blocks(s_mat, q_mat)):
        levels = np.arange(parity, n_max, 2)
        # each product is one buffer times its transpose, which numpy hands
        # to BLAS's symmetric rank-k update: symmetric bit for bit.  An
        # overflowing S is reported by _finite_gram alone.
        with np.errstate(over="ignore", invalid="ignore"):
            r = _triangular_factor(1 / math.sqrt(cos), 0.5 * math.tan(theta),
                                   levels)
            r_inv = _triangular_factor(math.sqrt(cos), -0.5 * math.sin(theta),
                                       levels)
            s_real = _finite_gram(r.T @ r, n_max, f"S exceeds the double "
                                  f"range at arg(m*omega) = {theta:.6g}")
            q_real = r_inv @ r_inv.T
        s_eig, q_eig = np.linalg.eigvalsh(s_real), np.linalg.eigvalsh(q_real)
        s_max, q_max = max(s_max, s_eig[-1]), max(q_max, q_eig[-1])
        q_min = min(q_min, q_eig[0])
        corner = phase[:len(levels), :len(levels)]
        np.multiply(corner, s_real, out=s_block)
        np.multiply(corner, q_real, out=q_block)
    cond = float(s_max * q_max)
    if cond > COND_LIMIT:
        warnings.warn(f"Gram matrix condition number {cond:.3e} exceeds "
                      f"{COND_LIMIT:g}", IllConditionedWarning)
    return GramMatrices(S=s_mat, Qmat=q_mat, cross=cross, condition_number=cond,
                        metric_min_eigenvalue=float(q_min))

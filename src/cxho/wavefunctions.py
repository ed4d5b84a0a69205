"""Position-space wavefunctions and the Gram/metric matrices of the mode basis.

Level wavefunctions are Hermite polynomials times a complex Gaussian, with
the complex product m*omega entering everywhere a real frequency would in
the textbook oscillator.  Overlaps between the two bases are analytic in
m*omega and are computed on a contour rotated by -arg(m*omega)/2, which
maps the integrand onto a real Gaussian.  Same-basis overlaps involve both
m*omega and its conjugate; they depend on theta = arg(m*omega) alone and
follow exactly from the ladder relations, with no quadrature nodes.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import hermite_table, poly_gauss_eval
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


@dataclass(frozen=True)
class GaussPoly:
    """Polynomial times Gaussian: p(q - shift) * exp(-gauss_scale*(q-shift)^2/2)."""

    poly_coeffs: np.ndarray
    gauss_scale: complex
    shift: complex = 0j

    def __post_init__(self):
        c = np.array(self.poly_coeffs, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "poly_coeffs", c)

    @property
    def degree(self) -> int:
        return self.poly_coeffs.size - 1

    def __call__(self, q):
        q_arr = np.atleast_1d(np.asarray(q, dtype=np.complex128)).ravel()
        vals = poly_gauss_eval(self.poly_coeffs, self.gauss_scale, self.shift, q_arr)
        return complex(vals[0]) if np.ndim(q) == 0 else vals.reshape(np.shape(q))


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
    pref = norm * math.exp(-0.5 * (math.lgamma(n + 1.0) + n * math.log(2.0)))
    q_arr = np.asarray(q, dtype=np.complex128)
    # an overflow is reported below, not as RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        poly = hermite(n, scale * q_arr)
        vals = pref * poly * np.exp(-0.5 * mw / hbar * q_arr**2)
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        factor = "H_n" if not np.isfinite(poly).all() else "the Gaussian"
        raise NonFiniteSampleError(
            f"level n = {n} is not finite at {bad} of {vals.size} samples: "
            f"{factor} overflows there")
    return vals if np.ndim(q) else complex(vals)


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


def excited_regulated(basis: int, n: int, params: ModelParams,
                      eps: float | None = None,
                      eps_prime: float | None = None) -> GaussPoly:
    """Finite-regulator level-n wavefunction as an exact GaussPoly.

    The ladder differential operator (q - (hbar/beta) d/dq) is applied n
    times through a polynomial-coefficient recurrence, never by numerical
    differentiation.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    alpha, beta, pref, mw, shift, shrink = _regulated_basis(
        basis, params, eps, eps_prime)
    hbar = params.hbar
    step = np.sqrt(mw / (2 * hbar)) * (1 + shift / mw) / math.sqrt(shrink)

    # (q - (hbar/beta) d/dq) maps p(q) e^{-alpha q^2/(2 hbar)} to
    # [(1 + alpha/beta) q p - (hbar/beta) p'] e^{-alpha q^2/(2 hbar)}
    poly = np.array([1.0 + 0j])
    grow = 1.0 + alpha / beta
    for _ in range(n):
        shifted = np.concatenate(([0j], grow * poly))
        deriv = poly[1:] * np.arange(1, poly.size)
        shifted[:deriv.size] -= (hbar / beta) * deriv
        poly = shifted
    scale = pref * step**n * math.exp(-0.5 * math.lgamma(n + 1.0))
    return GaussPoly(poly_coeffs=scale * poly, gauss_scale=alpha / hbar)


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


def _hermitian_cond(mat: np.ndarray) -> float:
    """2-norm condition number of a Hermitian matrix whose entries at m + n
    odd are 0, max|lambda| / min|lambda|.

    Its eigenvalues are those of its two parity blocks and its singular
    values are their moduli, so one ``eigvalsh`` per block, a quarter of
    the full-size work in all, does what the SVD in ``np.linalg.cond`` does.
    A zero eigenvalue gives inf.
    """
    moduli = np.abs(np.concatenate(
        [np.linalg.eigvalsh(block) for block, in parity_blocks(mat)]))
    smallest = moduli.min()
    return float(moduli.max() / smallest) if smallest > 0 else math.inf


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


@dataclass(frozen=True)
class GramMatrices:
    """Same-basis Gram matrix S, its inverse (the metric matrix), and the
    dual-basis cross matrix, with the condition number of S.

    All three are full n_max x n_max matrices with exact zeros at m + n
    odd; each is computed per parity block (``parity_blocks``).
    """

    S: np.ndarray
    Qmat: np.ndarray
    cross: np.ndarray
    condition_number: float


def _same_basis_gram(theta: float, n_max: int) -> np.ndarray:
    """Same-basis Gram matrix S[m, n] = <psi_m|psi_n> from the ladder relations.

    S[0, 0] = 1/sqrt(cos theta), S[0, n] = i tan(theta) sqrt((n-1)/n) S[0, n-2]
    and, for n > m, sqrt(m+1) S[m+1, n] = sec(theta) sqrt(n) S[m, n-1]
    - i tan(theta) sqrt(m) S[m-1, n].  The upper triangle is filled one row
    slice at a time and mirrored, so S is Hermitian by construction.
    """
    tan, sec = math.tan(theta), 1.0 / math.cos(theta)
    roots = np.sqrt(np.arange(n_max))
    evens = np.arange(2, n_max, 2)
    # rows[m + 1] holds row m of S; rows[0] is the zero row S[-1]
    rows = np.zeros((n_max + 1, n_max), dtype=np.complex128)
    rows[1, ::2] = np.cumprod(np.r_[1.0 / math.sqrt(math.cos(theta)),
                                    1j * tan * np.sqrt((evens - 1) / evens)])
    for m in range(n_max - 1):
        rows[m + 2, m + 1:] = (sec * roots[m + 1:] * rows[m + 1, m:-1]
                               - 1j * tan * roots[m] * rows[m, m + 1:]) / roots[m + 1]
    upper = np.triu(rows[1:], 1)
    return upper + upper.conj().T + np.diag(rows[1:].diagonal().real)


def gram_and_metric(params: ModelParams, n_max: int) -> GramMatrices:
    """Gram matrix of the mode basis, the metric matrix, and the cross matrix.

    The cross matrix comes first, so its Hermite overflow (as at n_max 128)
    raises NonFiniteSampleError before S is built.  S comes from the ladder
    recurrence, with no quadrature nodes; an S that overflows raises
    NonFiniteSampleError too.  The condition number and the metric matrix
    are computed per parity block, the metric as the inverse of each block
    of S via its Cholesky factorization; a failed factorization warns once
    and falls back to a generic inverse of each block.  Ill conditioning
    beyond 1e12 is reported through IllConditionedWarning but the result is
    still returned.
    """
    cross = cross_gram(params, n_max)
    # an overflowing S is reported by _finite_gram alone
    with np.errstate(over="ignore", invalid="ignore"):
        s_mat = _same_basis_gram(params.theta, n_max)
    s_mat = _finite_gram(s_mat, n_max, f"S exceeds the double range at "
                         f"arg(m*omega) = {params.theta:.6g}")

    cond = _hermitian_cond(s_mat)
    if cond > COND_LIMIT:
        warnings.warn(f"Gram matrix condition number {cond:.3e} exceeds "
                      f"{COND_LIMIT:g}", IllConditionedWarning)
    q_mat = np.zeros_like(s_mat)
    blocks = parity_blocks(s_mat, q_mat)
    try:
        for s_block, q_block in blocks:
            chol_inv = np.linalg.inv(np.linalg.cholesky(s_block))
            q_block[...] = chol_inv.conj().T @ chol_inv
    except np.linalg.LinAlgError:
        warnings.warn("Cholesky failed; falling back to a generic inverse",
                      IllConditionedWarning)
        for s_block, q_block in blocks:
            q_block[...] = np.linalg.inv(s_block)
    q_mat = 0.5 * (q_mat + q_mat.conj().T)

    return GramMatrices(S=s_mat, Qmat=q_mat, cross=cross, condition_number=cond)

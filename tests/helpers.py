"""Shared test helpers: dense matrices of banded operators, the dense
operator construction they are checked against, the all-node cross
matrix, a parameter strategy over the closed parallelogram, the recursive
JSON writer the CLI's one-pass writer is checked against, the former
per-branch forms of the weak-value, amplitude, coherent and regulated
routes, which the merged routes must match bit for bit, the former scalar
phase classifier and phase grid, the former monomial route of the
regulated levels, run in mpmath, the former ladder recurrence of the
same-basis Gram matrix, its former complex closed form, the former
out-of-place Hermite recurrence, and SplitMix64 in Python integers, which
the seeded array draws are checked against."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from cxho._kernels import hermite_table
from cxho.contour import rotated_path
from cxho.dynamics import level_phases
from cxho.errors import ConvergenceViolatedError, OutOfDomainError
from cxho.fock import StateVec, coherent_coeffs
from cxho.maximize import _scaled_kernel
from cxho.params import (
    ANGLE_TOL,
    POTENTIAL_TABLE,
    PhaseClassification,
    Theory,
    regulated_momega,
    validate,
)
from cxho.wavefunctions import _hermite_level, _triangular_factor, parity_blocks

PI = math.pi

#: FockRep's operator fields, in declaration order.
OPERATORS = ("lowering", "raising", "h", "h_adj", "q_op", "p_op", "q_herm",
             "p_herm", "h_herm", "h_anti")


def dense(op):
    """The n x n matrix of an operator stored as in FockRep: row half + k
    holds ``np.diagonal(A, k)``, zero-padded at the end."""
    half, n = op.shape[0] // 2, op.shape[1]
    return sum(np.diag(op[half + k, :n - abs(k)], k)
               for k in range(-half, half + 1))


def bands(matrix):
    """The three diagonals of a tridiagonal matrix, stored as in FockRep."""
    return np.stack([np.r_[np.diagonal(matrix, -1), 0], np.diagonal(matrix),
                     np.r_[np.diagonal(matrix, 1), 0]])


def dense_build(params, n_max):
    """Every FockRep operator as a dense n_max x n_max matrix, built as
    dense matrices from the start; FockRep's diagonals must carry its
    bits."""
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
    return dict(lowering=lowering, raising=raising, h=h, h_adj=h_adj,
                q_op=q_op, p_op=p_op, q_herm=half_turn * q_op,
                p_herm=p_op / half_turn, h_herm=(h + h_adj) / 2,
                h_anti=(h - h_adj) / 2)


def cross_gram_all_nodes(params, n_max):
    """The cross matrix as one product over every node of cross_gram's
    default rule, with no parity split (oracle), and the same sum taken
    over the moduli of its terms, which bounds the rounding of either."""
    path = rotated_path(-params.theta / 2,
                        12.0 * math.sqrt(params.hbar * n_max / params.r))
    mw, hbar = params.momega, params.hbar
    x = np.sqrt(mw / hbar) * path.nodes
    envelope = path.weights * np.exp(-x * x) * path.direction
    lg = np.array([math.lgamma(k + 1.0) for k in range(n_max)])
    norms = np.exp(-0.5 * (lg + np.arange(n_max) * math.log(2.0)))
    scale = np.sqrt(mw / (math.pi * hbar)) * np.outer(norms, norms)
    table = hermite_table(n_max, x)
    gram = scale * ((table * envelope) @ table.T)
    magnitude = np.abs(scale) * ((np.abs(table) * np.abs(envelope))
                                 @ np.abs(table).T)
    return gram, magnitude


def assert_same_outcome(route, oracle):
    """``route()`` raises what ``oracle()`` raises, type and text, or
    returns an array equal to the oracle's."""
    try:
        expected = oracle()
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            route()
        assert str(raised.value) == str(exc)
        return
    np.testing.assert_array_equal(route(), expected)


def amplitudes_matmul(a, b, duration, params):
    """``maximize.amplitudes`` as one explicit stacked matmul (oracle)."""
    weighted = level_phases(params.omega, duration, a.shape[1]) * a
    return np.matmul(np.conj(b)[:, None, :], weighted[:, :, None])[:, 0, 0]


def sandwich(bra, op, ket):
    """bra @ A @ ket for an operator A stored as in FockRep, or one value
    per operator of a stack of them, as one matrix-vector product over the
    stored entries (the former ``fock._sandwich``)."""
    pairs = np.zeros(ket.shape[:-1] + (3, ket.shape[-1]), dtype=np.complex128)
    np.multiply(bra[..., 1:], ket[..., :-1], out=pairs[..., 0, :-1])
    np.multiply(bra, ket, out=pairs[..., 1, :])
    np.multiply(bra[..., :-1], ket[..., 1:], out=pairs[..., 2, :-1])
    columns = pairs.reshape(pairs.shape[:-2] + (-1, 1))
    return np.matmul(op.reshape(op.shape[:-2] + (-1,)), columns)[..., 0]


def max_weak_values_bra(result, rep):
    """``maximize.max_weak_values`` from the transported bra, its overlap
    and one ``sandwich`` (oracle)."""
    kernel = _scaled_kernel(rep.params, result.duration, result.a.coeffs.size)
    bra = np.conj(result.b.coeffs) * kernel
    denom = bra @ result.a.coeffs
    if abs(denom) <= 1e-300:
        raise ZeroDivisionError("maximizer overlap vanished")
    ops = np.array([rep.q_herm, rep.p_herm, rep.h_herm])
    return tuple(map(complex, sandwich(bra, ops, result.a.coeffs) / denom))


def coherent_lambda_branches(lambda0, dt, which, params):
    """``dynamics.coherent_lambda`` with one formula per state (oracle)."""
    if which == "A":
        return lambda0 * np.exp(-1j * params.omega * dt)
    if which == "B":
        return lambda0 * np.exp(-1j * np.conj(params.omega) * dt)
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


def coherent_state_at_branches(lambda0, dt, which, n_max, params):
    """``dynamics.coherent_state_at`` with one formula per state (oracle)."""
    omega_i = params.omega.imag
    lam_t = coherent_lambda_branches(lambda0, dt, which, params)
    if which == "A":
        pref = (np.exp(-0.5j * params.omega * dt) * np.exp(
            -0.5 * abs(lambda0) ** 2 * (1 - np.exp(2 * omega_i * dt))))
    else:
        pref = (np.exp(-0.5j * np.conj(params.omega) * dt) * np.exp(
            -0.5 * abs(lambda0) ** 2 * (1 - np.exp(-2 * omega_i * dt))))
    return StateVec(pref * coherent_coeffs(lam_t, n_max).coeffs)


def regulated_branches(basis, params, eps=None, eps_prime=None):
    """(alpha, beta, C, ladder step) of the regulated forms, one branch per
    basis, basis 2's step with 1 - eps'/conj(m*omega) (oracle)."""
    eps = params.eps if eps is None else float(eps)
    eps_prime = params.eps_prime if eps_prime is None else float(eps_prime)
    if eps < 0 or eps_prime < 0 or eps * eps_prime >= 1:
        raise ValueError(f"invalid regulators ({eps!r}, {eps_prime!r})")
    hbar, mw = params.hbar, params.momega
    mw1, mw2 = regulated_momega(mw, eps, eps_prime)
    if mw1.real <= 0 or mw2.real <= 0:
        raise ConvergenceViolatedError(
            f"need Re of both shifted m*omega products > 0, got "
            f"{mw1.real:.6g} and {mw2.real:.6g}")
    if mw.real <= eps_prime or (eps > 0 and mw.real >= 1.0 / eps):
        raise ConvergenceViolatedError(
            f"need eps' < Re(m*omega) < 1/eps, got Re = {mw.real:.6g}")
    c = (mw * (1 - eps * eps_prime)
         / (math.pi * hbar * (1 - mw * mw * eps * eps))) ** 0.25
    if basis == 1:
        step = (np.sqrt(mw / (2 * hbar)) * (1 + eps_prime / mw)
                / math.sqrt(1 - eps * eps_prime))
        return mw1, mw2, c, step
    if basis == 2:
        mwc = np.conj(mw)
        step = (np.sqrt(mwc / (2 * hbar)) * (1 - eps_prime / mwc)
                / math.sqrt(1 - eps * eps_prime))
        return np.conj(mw2), np.conj(mw1), np.conj(c), step
    raise ValueError(f"basis must be 1 or 2, got {basis!r}")


def excited_regulated_branches(basis, n, q, params, eps=None, eps_prime=None):
    """``wavefunctions.excited_regulated`` on the data of
    ``regulated_branches`` (oracle)."""
    alpha, beta, pref, step = regulated_branches(basis, params, eps, eps_prime)
    hbar = params.hbar
    mu = np.sqrt((alpha + beta) / (2 * hbar))
    gain = math.sqrt(2) * step * hbar * mu / beta
    return _hermite_level(n, q, pref * gain**n, mu, alpha, hbar)


def excited_regulated_ladder(basis, n, q, params, eps, eps_prime, dps=120):
    """The regulated level n at the points q by the former monomial route,
    in mpmath at ``dps`` digits from the doubles of ``params`` (oracle):
    the coefficients of p -> (1 + alpha/beta) q p - (hbar/beta) p',
    applied n times to p = 1, times C step^n/sqrt(n!) exp(-alpha q^2/2 hbar),
    with one branch per basis as in ``regulated_branches``."""
    with mpmath.workdps(dps):
        hbar, mw = mpmath.mpf(params.hbar), mpmath.mpc(params.momega)
        eps, eps_prime = mpmath.mpf(eps), mpmath.mpf(eps_prime)
        shrink = 1 - eps * eps_prime
        mw1 = (mw - eps_prime) / (1 - mw * eps)
        mw2 = (mw + eps_prime) / (1 + mw * eps)
        c = (mw * shrink / (mpmath.pi * hbar * (1 - mw * mw * eps * eps))) ** 0.25
        if basis == 1:
            alpha, beta = mw1, mw2
            step = mpmath.sqrt(mw / (2 * hbar)) * (1 + eps_prime / mw)
        else:
            mw = mpmath.conj(mw)
            alpha, beta, c = mpmath.conj(mw2), mpmath.conj(mw1), mpmath.conj(c)
            step = mpmath.sqrt(mw / (2 * hbar)) * (1 - eps_prime / mw)
        step /= mpmath.sqrt(shrink)
        grow, drift = 1 + alpha / beta, hbar / beta
        poly = [mpmath.mpc(1)]
        for _ in range(n):
            shifted = [mpmath.mpc(0)] + [grow * p for p in poly]
            for k in range(1, len(poly)):
                shifted[k - 1] -= drift * k * poly[k]
            poly = shifted
        scale = c * step**n / mpmath.sqrt(mpmath.factorial(n))
        return np.array([complex(scale * mpmath.polyval(poly[::-1], z)
                                 * mpmath.exp(-alpha * z * z / (2 * hbar)))
                         for z in map(mpmath.mpc, q)])


def classify_phase_scalar(theta_m, theta_omega):
    """The former scalar ``params.classify_phase``, one comparison at a
    time (oracle for ``classify_phase`` and the phase-diagram labels)."""
    # both tests are written so that a NaN angle fails them
    if not -ANGLE_TOL <= theta_m <= math.pi + ANGLE_TOL:
        raise OutOfDomainError(f"theta_m = {theta_m:.6g} outside [0, pi]")
    s = theta_m + 2 * theta_omega
    if not -math.pi - ANGLE_TOL <= s <= ANGLE_TOL:
        raise OutOfDomainError(
            f"theta_m + 2*theta_omega = {s:.6g} outside [-pi, 0]")

    if abs(s) <= ANGLE_TOL:
        region = 1
    elif abs(s + math.pi / 2) <= ANGLE_TOL:
        region = 3
    elif abs(s + math.pi) <= ANGLE_TOL:
        region = 5
    elif s > -math.pi / 2:
        region = 2
    else:
        region = 4

    if abs(theta_m - math.pi / 2) <= ANGLE_TOL:
        theory = Theory.ITT
        frame_factor = -1j
    elif theta_m < math.pi / 2:
        theory = Theory.UTT
        frame_factor = 1 + 0j
    else:
        theory = Theory.FTT
        frame_factor = -1 + 0j

    theta = theta_m + theta_omega
    normalizable = abs(theta) < math.pi / 2 - ANGLE_TOL
    # |theta| reaches pi/2 only at the two corners (0, -pi/2) and (pi, -pi/2).
    excluded_corner = not normalizable

    return PhaseClassification(
        theory=theory, region=region,
        potential=POTENTIAL_TABLE[theory][region],
        excluded_corner=excluded_corner, normalizable=normalizable,
        frame_factor=frame_factor,
    )


def phase_grid_former(resolution: int) -> dict[str, np.ndarray]:
    """The former ``params.phase_grid``, which formed theta_omega as
    lo + (hi - lo)*j/(r - 1) from each row's ends, classified in one numpy
    pass as the former ``params.classify_grid`` did.  Flat columns by
    phase-diagram field, the theory and potential as their labels (oracle
    for the labels and theta_m of the lattice grid)."""
    steps = np.arange(resolution)
    theta_m = math.pi * steps / (resolution - 1)
    hi = -theta_m / 2
    lo = hi - math.pi / 2
    theta_omega = (lo[:, None] + (hi - lo)[:, None] * steps
                   / (resolution - 1)).ravel()
    theta_m = np.repeat(theta_m, resolution)
    s = theta_m + 2 * theta_omega
    region = np.select(
        [np.abs(s) <= ANGLE_TOL, np.abs(s + math.pi / 2) <= ANGLE_TOL,
         np.abs(s + math.pi) <= ANGLE_TOL, s > -math.pi / 2], [1, 3, 5, 2], 4)
    theories = list(Theory)
    theory = np.select([np.abs(theta_m - math.pi / 2) <= ANGLE_TOL,
                        theta_m < math.pi / 2],
                       [theories.index(Theory.ITT), theories.index(Theory.UTT)],
                       theories.index(Theory.FTT))
    potentials = np.array([[""] + [POTENTIAL_TABLE[t][g].value
                                   for g in range(1, 6)] for t in theories])
    normalizable = np.abs(theta_m + theta_omega) < math.pi / 2 - ANGLE_TOL
    return {"theta_m": theta_m,
            "theory": np.array([t.value for t in theories])[theory],
            "region": region, "potential": potentials[theory, region],
            "normalizable": normalizable, "excluded_corner": ~normalizable}


@st.composite
def normalizable_params(draw):
    """Parameters anywhere on the normalizable part of the closed
    parallelogram, the domain edges and region lines weighted up."""
    theta_m = draw(st.one_of(st.floats(0.0, PI), st.sampled_from((0.0, PI / 2, PI))))
    s = draw(st.one_of(st.floats(-PI, 0.0), st.sampled_from((0.0, -PI / 2, -PI))))
    radius = st.floats(0.25, 4.0)
    params = validate(draw(radius) * cmath.exp(1j * theta_m),
                      draw(radius) * cmath.exp(0.5j * (s - theta_m)))
    assume(params.normalizable)
    return params


def json_dumps_recursive(obj, indent=0):
    """The CLI's JSON layout, one recursive call per node (oracle for
    ``cxho.command.json_dumps``)."""
    pad = " " * indent
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {obj!r}")
        return format(float(obj), ".17g")
    if isinstance(obj, (complex, np.complexfloating)):
        return (f'{{"re": {json_dumps_recursive(float(obj.real))}, '
                f'"im": {json_dumps_recursive(float(obj.imag))}}}')
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {json_dumps_recursive(v, indent + 2)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in items):
            return "[" + ", ".join(json_dumps_recursive(v) for v in items) + "]"
        inner = ",\n".join(pad + "  " + json_dumps_recursive(v, indent + 2)
                           for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def same_basis_gram_ladder(theta: float, n_max: int) -> np.ndarray:
    """The former same-basis Gram matrix S[m, n] = <psi_m|psi_n> from the
    ladder relations (oracle for the closed form S = R^H R).

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


def gram_and_metric_complex(theta: float, n_max: int):
    """The former complex route to S and the metric (oracle for the real
    blocks): per parity block, S = R^H R and R^-1 R^-H from the complex
    factors R = F(gamma, i tan(theta)/2) and R^-1 = F(1/gamma,
    -(i/2) sin(theta) e^(-i theta)), F the triangular factor and gamma =
    e^(i theta/2)/sqrt(cos theta), each made Hermitian as (M + M^H)/2."""
    gamma = cmath.exp(0.5j * theta) / math.sqrt(math.cos(theta))
    s_mat = np.zeros((n_max, n_max), dtype=np.complex128)
    q_mat = np.zeros_like(s_mat)
    with np.errstate(over="ignore", invalid="ignore"):
        for parity, (s_block, q_block) in enumerate(parity_blocks(s_mat, q_mat)):
            levels = np.arange(parity, n_max, 2)
            r = _triangular_factor(gamma, 0.5j * math.tan(theta), levels)
            r_inv = _triangular_factor(
                1 / gamma, -0.5j * math.sin(theta) * cmath.exp(-1j * theta),
                levels)
            for block, mat in ((s_block, r.conj().T @ r),
                               (q_block, r_inv @ r_inv.conj().T)):
                block[...] = 0.5 * (mat + mat.conj().T)
    return s_mat, q_mat


def hermite_table_former(n_max: int, z: np.ndarray) -> np.ndarray:
    """The Hermite table by the recurrence written out of place, one new
    row per step (oracle for the in-place kernel)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty((n_max, z.size), dtype=np.complex128)
    out[0] = 1.0
    if n_max > 1:
        out[1] = 2.0 * z
    for k in range(1, n_max - 1):
        out[k + 1] = 2.0 * z * out[k] - 2.0 * k * out[k - 1]
    return out


def splitmix64(seed, count):
    """The first ``count`` outputs of SplitMix64 from the state ``seed``
    (Steele, Lea & Flood, OOPSLA 2014), in Python integers reduced mod
    2^64 at each step."""
    mask, state, out = 2**64 - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def splitmix64_uniform(seed, count):
    """``splitmix64``'s outputs on [-1, 1): the top 53 bits u as
    u/2^52 - 1, each step exact in double precision."""
    return [(z >> 11) / 2**52 - 1 for z in splitmix64(seed, count)]

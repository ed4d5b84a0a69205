"""Shared test helpers: dense matrices of banded operators, the dense
operator construction they are checked against, the all-node cross
matrix, a parameter strategy over the closed parallelogram, the recursive
JSON writer the CLI's one-pass writer is checked against, and the former
per-branch forms of the weak-value, amplitude, coherent and regulated
routes, which the merged routes must match bit for bit."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from cxho._kernels import hermite_table
from cxho.contour import rotated_path
from cxho.dynamics import level_phases
from cxho.errors import ConvergenceViolatedError
from cxho.fock import StateVec, coherent_coeffs
from cxho.maximize import _scaled_kernel
from cxho.params import regulated_momega, validate

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


def excited_regulated_branches(basis, n, params, eps=None, eps_prime=None):
    """Polynomial coefficients and Gaussian scale of
    ``wavefunctions.excited_regulated`` from ``regulated_branches``
    (oracle)."""
    alpha, beta, pref, step = regulated_branches(basis, params, eps, eps_prime)
    hbar = params.hbar
    poly = np.array([1.0 + 0j])
    grow = 1.0 + alpha / beta
    for _ in range(n):
        shifted = np.concatenate(([0j], grow * poly))
        deriv = poly[1:] * np.arange(1, poly.size)
        shifted[:deriv.size] -= (hbar / beta) * deriv
        poly = shifted
    scale = pref * step**n * math.exp(-0.5 * math.lgamma(n + 1.0))
    return scale * poly, alpha / hbar


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
    ``cxho.cli._json_dumps``)."""
    pad = " " * indent
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

"""Shared test helpers: dense matrices of banded operators, the dense
operator construction they are checked against, the all-node cross
matrix, and a parameter strategy over the closed parallelogram."""

import cmath
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from cxho._kernels import hermite_table
from cxho.contour import rotated_path
from cxho.params import validate

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

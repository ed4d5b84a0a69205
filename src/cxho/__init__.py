"""Harmonic oscillator with complex mass and frequency.

Validated parameters and the angle-plane phase classification, truncated
mode-basis operator matrices, position-space wavefunctions checked by
complex-contour quadrature, two-state weak-value dynamics, and the
amplitude-maximization solver.
"""

from . import contour, dynamics, errors, fock, maximize, params, wavefunctions
from ._kernels import BACKEND
from .params import (
    ModelParams,
    DerivedScales,
    PhaseClassification,
    PhaseGrid,
    Potential,
    Theory,
    classify_grid,
    classify_phase,
    derived,
    eigenvalue,
    new_frame,
    phase_grid,
    validate,
)
from .fock import FockRep, StateVec, build, coherent_coeffs, q_inner
from .maximize import MaximizationResult, amplitude, analytic_max, maximize as maximize_amplitude

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ModelParams",
    "DerivedScales",
    "PhaseClassification",
    "PhaseGrid",
    "Potential",
    "Theory",
    "classify_grid",
    "classify_phase",
    "derived",
    "eigenvalue",
    "new_frame",
    "phase_grid",
    "validate",
    "FockRep",
    "StateVec",
    "build",
    "coherent_coeffs",
    "q_inner",
    "MaximizationResult",
    "amplitude",
    "analytic_max",
    "maximize_amplitude",
    "contour",
    "dynamics",
    "errors",
    "fock",
    "maximize",
    "params",
    "wavefunctions",
]

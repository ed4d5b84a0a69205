"""Harmonic oscillator with complex mass and frequency.

The API is the seven submodules, imported by name: ``params`` (validation
and the phase classification), ``contour``, ``fock``, ``wavefunctions``,
``dynamics``, ``maximize`` and ``errors``.  The package itself holds only
``__version__`` and ``BACKEND``.
"""

from . import contour, dynamics, errors, fock, maximize, params, wavefunctions
from ._kernels import BACKEND

__version__ = "0.1.0"

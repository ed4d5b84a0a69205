"""Harmonic oscillator with complex mass and frequency.

The API is the seven submodules, imported by name: ``params`` (validation
and the phase classification), ``contour``, ``fock``, ``wavefunctions``,
``dynamics``, ``maximize`` and ``errors``.  ``import cxho`` binds only
``__version__`` and ``BACKEND`` and loads none of them; ``from cxho import
fock`` loads the one it names (and what that one imports).
"""

from ._kernels import BACKEND

__version__ = "0.1.0"

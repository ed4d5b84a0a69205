"""Hot numeric kernels, vectorized with numpy over the nodes.

No cxho module calls ``poly_gauss_eval``.  The module stays separate
because the benchmark harness in ``perfbench`` reads it: ``kernel_times``
times both kernels through it, and ``tracing.LAYERS`` traces it as the
``kernels`` layer.  ``cxho.BACKEND`` names this implementation.
"""

from __future__ import annotations

import numpy as np


def hermite_table(n_max: int, z: np.ndarray) -> np.ndarray:
    """Values H_k(z_i) of the first ``n_max`` Hermite polynomials.

    Three-term recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}, vectorized over
    the nodes.  Returns an (n_max, z.size) complex array.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty((n_max, z.size), dtype=np.complex128)
    out[0] = 1.0
    if n_max > 1:
        out[1] = 2.0 * z
    for k in range(1, n_max - 1):
        out[k + 1] = 2.0 * z * out[k] - 2.0 * k * out[k - 1]
    return out


def poly_gauss_eval(coeffs: np.ndarray, gauss_scale: complex,
                    shift: complex, z: np.ndarray) -> np.ndarray:
    """Evaluate p(z - shift) * exp(-gauss_scale*(z - shift)^2 / 2).

    ``coeffs`` are ascending polynomial coefficients.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = z - shift
    p = np.zeros_like(w)
    for c in coeffs[::-1]:
        p = p * w + c
    return p * np.exp(-0.5 * gauss_scale * w * w)

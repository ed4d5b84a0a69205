"""``cxho wavefunction``: a level wavefunction sampled along a ray, as CSV."""

from __future__ import annotations

import math

from .command import (MODEL_FLAGS, OUTPUT, Flag, choice, fail_config,
                      integer, real, subcommand, write_output)
from .params import check_length_scale, validate


@subcommand("wavefunction", *MODEL_FLAGS,
            Flag("n", integer, "0", "Level index."),
            Flag("basis", choice("1", "2"), "1"),
            Flag("ray-angle", real, "0.0",
                 "Angle of the sampling ray in the complex plane."),
            Flag("half-width", real, None,
                 "Half-extent of the ray; defaults to a level-scaled value."),
            Flag("points", integer, "401", low=2),
            OUTPUT)
def command(m, omega, hbar, eps, eps_prime, n, basis, ray_angle, half_width,
            points, output):
    """Sample a level wavefunction along a ray (CSV)."""
    import numpy as np

    from . import wavefunctions
    from ._csvcells import csv_table

    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    if n < 0:
        fail_config(f"n must be nonnegative, got {n}")
    if not math.isfinite(ray_angle):
        fail_config(f"ray-angle must be finite, got {ray_angle!r}")
    # written so that a NaN half-width fails it
    if half_width is not None and not 0 < half_width < math.inf:
        fail_config(f"half-width must be finite and positive, got {half_width!r}")
    if half_width is None:
        check_length_scale(params)
        half_width = 12.0 * math.sqrt(params.hbar * (n + 1) / params.r)
    # np.linspace forms the span 2*half-width
    if 2 * half_width == math.inf:
        fail_config(f"half-width must be at most half the largest double, "
                    f"got {half_width!r}")
    qs = np.linspace(-half_width, half_width, points) * np.exp(1j * ray_angle)
    psi = wavefunctions.eigenfunction(int(basis), n, qs, params)
    write_output(output, csv_table(["q_re", "q_im", "psi_re", "psi_im"],
                                   [qs.real, qs.imag, psi.real, psi.imag]))

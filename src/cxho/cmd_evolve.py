"""``cxho evolve``: the weak-value time series of a coherent pair, as CSV.

Its cells are written with numpy integer arithmetic
(``_csvcells.csv_table``), which gives the bytes of ``'%.17g' % x`` for
each value.
"""

from __future__ import annotations

import cmath
import math

import click

from .command import (COMPLEX, at_least, fail_config, g17, model_options,
                      nmax_option, output_option, write_output)
from .params import validate


@click.command("evolve")
@model_options
@click.option("--lambda-a", type=COMPLEX, default="1+0i", show_default=True,
              help="Coherent label of the initial state.")
@click.option("--lambda-b", type=COMPLEX, default="1+0i", show_default=True,
              help="Coherent label of the final state.")
@click.option("--t-a", type=float, default=0.0, show_default=True)
@click.option("--t-b", type=float, default=10.0, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True,
              callback=at_least(1),
              help="Number of grid intervals between t-a and t-b.")
@nmax_option
@output_option
def command(m, omega, hbar, eps, eps_prime, lambda_a, lambda_b, t_a, t_b,
            steps, nmax, output):
    """Weak-value time series for a coherent boundary pair (CSV)."""
    import numpy as np

    from . import dynamics, fock
    from ._csvcells import csv_table

    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    if not (math.isfinite(t_a) and math.isfinite(t_b)):
        fail_config(f"t-a and t-b must be finite, got {t_a!r} and {t_b!r}")
    if t_b <= t_a:
        fail_config("t-b must exceed t-a")
    if t_b - t_a == math.inf:
        fail_config(f"the time window t-b - t-a overflows: t-a = {t_a!r} and "
                    f"t-b = {t_b!r}")
    for name, label in (("lambda-a", lambda_a), ("lambda-b", lambda_b)):
        if not cmath.isfinite(label):
            fail_config(f"{name} must be finite, got {label!r}")
        # coherent_coeffs forms |label|^2
        if abs(label) * abs(label) == math.inf:
            fail_config(f"|{name}|^2 overflows: {name} = {label!r}")
    rep = fock.build(params, nmax)
    system = dynamics.TwoStateSystem(
        fock.coherent_coeffs(lambda_a, nmax).normalized(),
        fock.coherent_coeffs(lambda_b, nmax).normalized(),
        t_a, t_b, params, rep)
    times = np.linspace(t_a, t_b, steps + 1)
    traj = dynamics.trajectory(system, times)
    header = ["t", "amplitude_re", "amplitude_im", "q_op_re", "q_op_im",
              "p_op_re", "p_op_im", "q_herm_re", "q_herm_im", "p_herm_re",
              "p_herm_im", "h_herm_re", "h_herm_im", "status"]
    # trajectory keeps every time or none; a dropped time has blank cells,
    # and a kept one the same amplitude
    if traj.kept.all():
        amplitude = traj.amplitude[0]
        columns = [times, g17(amplitude.real), g17(amplitude.imag)]
        for name in dynamics.WEAK_VALUE_OPERATORS:
            column = getattr(traj, name)
            columns += [column.real, column.imag]
        columns.append("ok")
    else:
        columns = [times, *[""] * 12, "vanishing_overlap"]
    write_output(output, csv_table(header, columns))

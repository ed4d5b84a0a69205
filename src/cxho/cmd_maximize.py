"""``cxho maximize``: the boundary pair maximizing |amplitude|, as JSON."""

from __future__ import annotations

import math

import click

from .command import (at_least, fail_config, json_dumps, model_options,
                      nmax_option, output_option, seed_option, write_output)
from .params import validate


@click.command("maximize")
@model_options
@click.option("--T", "duration", type=float, default=10.0, show_default=True,
              help="Time span between the boundary states.")
@nmax_option
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iters", type=int, default=10000, show_default=True,
              callback=at_least(1))
@seed_option
@output_option
def command(m, omega, hbar, eps, eps_prime, duration, nmax, tol, max_iters,
            seed, output):
    """Maximize the transition amplitude over boundary states."""
    from . import maximize as mx

    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    # each test is written so that a NaN fails it
    if not 0 < duration < math.inf:
        fail_config(f"T must be finite and positive, got {duration!r}")
    if not 0 < tol < math.inf:
        fail_config(f"tol must be finite and positive, got {tol!r}")
    result = mx.maximize(duration, params, nmax, tol=tol, max_iters=max_iters,
                         seed=seed)
    payload = {
        "duration": result.duration,
        "amplitude_abs": result.amplitude_abs,
        "analytic_max": result.analytic_max,
        "ground_overlap": result.ground_overlap,
        "degenerate": result.degenerate,
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": result.seed,
        "a": result.a.coeffs.tolist(),
        "b": result.b.coeffs.tolist(),
    }
    write_output(output, json_dumps(payload) + "\n")

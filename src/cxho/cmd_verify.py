"""``cxho verify``: the cross-module property suite as a JSON report.

numpy and the numeric modules load when the checks run: ``fock``,
``wavefunctions`` and ``contour`` first, and ``dynamics`` and ``maximize``
only once the Gram step has succeeded, so a Gram failure (the Hermite
overflow at nmax 128) compiles neither.
"""

from __future__ import annotations

import math
import sys

from .command import (EXIT_VERIFY, MODEL_FLAGS, NMAX, OUTPUT, SEED, Flag,
                      fail_config, json_dumps, real, subcommand, write_output)
from .errors import CxhoError
from .params import (ModelParams, check_energy_scale, check_length_scale,
                     check_square_scales, validate)


def _verify_checks(params: ModelParams, n_max: int, seed: int,
                   tol_override: float | None) -> list[dict]:
    """Run the cross-module property suite; one record per check."""
    import numpy as np

    from . import fock, wavefunctions
    from .contour import rotated_path

    n_dyn = 40  # levels of the dynamics checks
    check_length_scale(params)  # which every width below is built from
    check_energy_scale(params, n_max, max(n_max, n_dyn))
    check_square_scales(params, n_max, max(n_max, n_dyn))
    checks = []

    def add(name, defect, tolerance):
        tolerance = tol_override if tol_override is not None else tolerance
        checks.append({"name": name, "defect": float(defect),
                       "tolerance": float(tolerance),
                       "passed": bool(defect <= tolerance)})

    # The Gram step runs before the Fock checks, whose records still come
    # first, so that where it fails (the Hermite overflow at nmax 128) the
    # Fock checks, 0.2-0.3 ms at nmax 128, do not run for nothing.
    try:
        gram = wavefunctions.gram_and_metric(params, n_max)
    except (CxhoError, ValueError, ArithmeticError):
        # The Fock checks can fail only in build and in herm_split_defect's
        # scalar scales, at any truncation; a two-level run raises their
        # error, which would have come first, where there is one.
        fock.herm_split_defect(fock.build(params, 2))
        raise
    from . import dynamics, maximize as mx

    rep = fock.build(params, n_max)
    add("ladder_commutator", fock.commutator_defect(rep), 1e-13)
    coords = np.array([rep.q_herm, rep.p_herm])
    add("coordinate_hermiticity",
        np.abs(coords - np.conj(coords[:, ::-1])).max(), 1e-13)
    q_defect, p_defect = fock.conjugation_defect(rep)
    add("conjugation_q", q_defect, 1e-14)
    add("conjugation_p", p_defect, 1e-14)
    add("lowering_adjoint_is_raising",
        np.abs(np.conj(rep.lowering[::-1]) - rep.raising).max(), 0.0)
    h_defect, a_defect, tan_defect = fock.herm_split_defect(rep)
    add("herm_split_h", h_defect, 1e-12)
    add("herm_split_a", a_defect, 1e-12)
    add("herm_split_tan", tan_defect, 1e-12)
    diag_target = (params.hbar * params.r_omega * math.cos(params.theta_omega)
                   * (np.arange(n_max) + 0.5))
    add("h_herm_diagonal", np.abs(rep.h_herm[1] - diag_target).max(), 1e-12)

    eye = np.eye(n_max)
    add("dual_normalization", np.abs(gram.cross - eye).max(), 1e-8)
    # per parity block: the entries at m + n odd are exact zeros
    blocks = wavefunctions.parity_blocks(gram.S, gram.Qmat)
    add("metric_inverse",
        max(np.abs(s @ q - np.eye(len(s))).max() for s, q in blocks), 1e-8)
    add("metric_positivity", max(0.0, -gram.metric_min_eigenvalue), 0.0)
    # Ground overlaps on [-half, half] of the real axis (tail e^-36), in
    # Gauss-Legendre panels: the chirp exp(-i Im(mw) q^2/hbar) reaches
    # 36|tan theta| rad at the ends, and each panel resolves 400 rad of it.
    mw = params.momega
    # 6 sqrt(hbar / Re(m omega)), from the checked length scale hbar/r:
    # hbar / Re(m omega) itself may overflow where cos theta is small
    half = 6.0 * math.sqrt(params.hbar / params.r) / math.sqrt(
        math.cos(params.theta))
    panels = min(64, 1 + int(36 * abs(mw.imag) / mw.real / 400))
    rule = rotated_path(0.0, half / panels)
    centers = half / panels * np.arange(1 - panels, panels, 2)
    q = (rule.nodes.real + centers[:, None]).ravel()
    weights = np.tile(rule.weights, panels)
    head = np.abs(wavefunctions.eigenfunction(1, 0, q, params)) ** 2
    add("gram_head_entry", abs(gram.S[0, 0] - np.dot(weights, head)), 1e-9)
    integrand = (np.conj(wavefunctions.ground_regulated(2, q, params))
                 * wavefunctions.ground_regulated(1, q, params))
    add("ground_dual_overlap", abs(np.dot(weights, integrand) - 1.0), 1e-10)

    rep_dyn = fock.build(params, n_dyn)
    lam_a, lam_b = 1.0, 0.6 + 0.2j
    duration, t = 4.0, 1.25
    system = dynamics.TwoStateSystem(
        fock.coherent_coeffs(lam_a, n_dyn), fock.coherent_coeffs(lam_b, n_dyn),
        0.0, duration, params, rep_dyn)
    # one batch: the amplitude at five times (not from trajectory, whose
    # amplitude is constant), weak values at t and for Ehrenfest at 1 -+ dt
    a, b = system.evolve([*np.linspace(0.0, duration, 5), t,
                          1.0 - 2e-2, 1.0, 1.0 + 2e-2, 1.0 - 1e-2, 1.0, 1.0 + 1e-2])
    amps = dynamics.overlaps(a[:5], b[:5])
    add("amplitude_time_independence",
        np.abs(amps - amps[0]).max() / abs(amps[0]), 1e-12)
    closed = dynamics.coherent_state_at(lam_a, 1.0, "A", n_dyn, params)
    # row 1 is a0 propagated to t = 1.0 from t_a = 0
    add("coherent_two_route", np.abs(closed.coeffs - a[1]).max(), 1e-10)
    qp = dynamics.weak_values(np.array([rep_dyn.q_op, rep_dyn.p_op]), a[5:], b[5:])
    q_closed, p_closed = dynamics.weak_qp_closed(
        dynamics.coherent_lambda(lam_a, t, "A", params),
        dynamics.coherent_lambda(lam_b, t - duration, "B", params), params)
    q_matrix, p_matrix = qp[0]
    add("weak_qp_closed_vs_matrix",
        max(abs(q_matrix - q_closed), abs(p_matrix - p_closed)), 1e-9)
    r_coarse = dynamics.ehrenfest_from_weak_values(qp[1:4], 2e-2, params)
    r_fine = dynamics.ehrenfest_from_weak_values(qp[4:], 1e-2, params)
    ratios = [abs(c) / abs(f) for c, f in zip(r_coarse, r_fine) if abs(f) > 0]
    add("ehrenfest_second_order",
        max(abs(r - 4.0) for r in ratios) if ratios else 0.0, 0.4)

    duration_max = 10.0
    result = mx.maximize(duration_max, params, 8, seed=seed)
    add("maximize_matches_analytic",
        abs(result.amplitude_abs - result.analytic_max), 1e-9)
    units = mx.unit_pairs(seed, 200, 8)
    amps = mx.amplitudes(units[:, 0], units[:, 1], duration_max, params)
    # np.hypot has the bits of abs(complex); np.abs does not
    worst = float((np.hypot(amps.real, amps.imag) - result.analytic_max).max())
    add("amplitude_upper_bound", max(0.0, worst), 1e-12)
    rep8 = fock.build(params, 8)
    q_wv, p_wv, h_wv = mx.max_weak_values(result, rep8)
    if result.degenerate:
        # D is unitary and b is proportional to D a, so the weak value is
        # the expectation in a: real and inside the spectrum of h_herm, its
        # real diagonal
        a, eigs = result.a.coeffs, rep8.h_herm[1].real
        expectation = np.vdot(a, eigs * a) / np.vdot(a, a)
        h_defect = (abs(h_wv - expectation) + abs(h_wv.imag)
                    + max(0.0, eigs.min() - h_wv.real, h_wv.real - eigs.max()))
    else:
        h_defect = abs(h_wv - params.hbar * params.r_omega
                       * math.cos(params.theta_omega) / 2)
    add("h_herm_weak_value", h_defect, 1e-12)
    if not result.degenerate:
        add("maximize_ground_overlap", 1.0 - result.ground_overlap, 1e-6)
        add("classical_solution_q", abs(q_wv), 1e-10)
        add("classical_solution_p", abs(p_wv), 1e-10)
    return checks


@subcommand("verify", *MODEL_FLAGS, NMAX,
            Flag("tol", real, None, "Override every per-check tolerance."),
            SEED, OUTPUT)
def command(m, omega, hbar, eps, eps_prime, nmax, tol, seed, output):
    """Run the cross-module property suite and report defects."""
    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    # written so that a NaN tolerance fails it
    if tol is not None and not 0 <= tol < math.inf:
        fail_config(f"tol must be finite and nonnegative, got {tol!r}")
    checks = _verify_checks(params, nmax, seed, tol)
    report = {
        "m": params.m, "omega": params.omega, "hbar": params.hbar,
        "eps": params.eps, "eps_prime": params.eps_prime,
        "nmax": nmax, "seed": seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    write_output(output, json_dumps(report) + "\n")
    if not report["all_passed"]:
        sys.exit(EXIT_VERIFY)

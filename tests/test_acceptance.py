"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
asserts the named subchecks.
"""

import cmath
import math

import numpy as np
import pytest
from helpers import dense

from cxho.contour import delta_domain_ok, delta_eval, delta_scale_ok, rotated_path, smear
from cxho.dynamics import (
    TwoStateSystem,
    coherent_lambda,
    coherent_state_at,
    ehrenfest_residual,
    evolve_a,
    trajectory,
    weak_qp_closed,
    weak_value,
)
from cxho.fock import StateVec, build, coherent_coeffs, conjugation_defect, herm_split_defect
from cxho.maximize import amplitude, analytic_max, max_weak_values, maximize
from cxho.params import Potential, Theory, classify_phase, validate
from cxho.wavefunctions import (
    cross_gram,
    eigenfunction,
    excited_regulated,
    gram_and_metric,
    ground_regulated,
)

PI = math.pi


def report(number, description, checks):
    ok = all(bool(passed) for _, passed in checks)
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    failed = [name for name, passed in checks if not passed]
    assert not failed, f"criterion {number} failed subchecks: {failed}"


def from_angles(theta_m, theta_omega, r_m=1.0, r_omega=1.0, **kw):
    return validate(r_m * cmath.exp(1j * theta_m),
                    r_omega * cmath.exp(1j * theta_omega), **kw)


def test_c01_dual_normalization():
    points = [(0.0, 0.0), (PI / 6, -PI / 6), (PI / 2, -PI / 2),
              (3 * PI / 4, -PI / 2), (PI, -PI)]
    checks = []
    for theta_m, theta_omega in points:
        params = from_angles(theta_m, theta_omega)
        defect = np.abs(cross_gram(params, 12) - np.eye(12)).max()
        checks.append((f"cross defect {defect:.2e} at "
                       f"({theta_m:.3f},{theta_omega:.3f})", defect <= 1e-8))
    report(1, "dual normalization: cross matrix is the identity", checks)


def test_c02_maximization():
    params = validate(1, 1 - 0.2j)
    target = math.exp(-1.0)
    checks = []
    for seed in range(10):
        res = maximize(10.0, params, 8, seed=seed)
        checks.append((f"seed {seed} ground overlap", res.ground_overlap > 1 - 1e-6))
        checks.append((f"seed {seed} amplitude",
                       abs(res.amplitude_abs - target) <= 1e-9))
    best, _ = analytic_max(10.0, params, 8)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amp = abs(amplitude(StateVec(a / np.linalg.norm(a)),
                            StateVec(b / np.linalg.norm(b)), 10.0, params))
        worst = max(worst, amp - best)
    checks.append(("upper bound on 200 random pairs", worst <= 0.0))
    report(2, "maximization concentrates on the ground state", checks)


def test_c03_classical_solution():
    params = validate(1, 1 - 0.2j)
    rep = build(params, 8)
    res = maximize(10.0, params, 8, seed=0)
    q_wv, p_wv, h_wv = max_weak_values(res, rep)
    h_target = params.hbar * params.r_omega * math.cos(params.theta_omega) / 2
    checks = [
        (f"|<q>| = {abs(q_wv):.2e}", abs(q_wv) <= 1e-10),
        (f"|<p>| = {abs(p_wv):.2e}", abs(p_wv) <= 1e-10),
        ("h value", abs(h_wv - h_target) <= 1e-12),
    ]
    system = TwoStateSystem(res.a, res.b, 0.0, 10.0, params, rep)
    traj = trajectory(system, [0.0, 5.0, 10.0])
    for t, q, p, h in zip(traj.t.tolist(), traj.q_herm, traj.p_herm, traj.h_herm):
        checks.append((f"q constant at t={t}", abs(q - q_wv) <= 1e-12))
        checks.append((f"p constant at t={t}", abs(p - p_wv) <= 1e-12))
        checks.append((f"h constant at t={t}", abs(h - h_wv) <= 1e-12))
    report(3, "classical solution: coordinate weak values vanish", checks)


def test_c04_hermitian_split():
    points = [(1 + 0j, cmath.exp(-1j * PI / 6)),
              (1.2 * cmath.exp(1j * PI / 3), 0.8 * cmath.exp(-1j * PI / 3)),
              (0.9j, cmath.exp(-0.9j))]
    checks = []
    for m, omega in points:
        params = validate(m, omega)
        rep = build(params, 16)
        h_defect, a_defect, tan_defect = herm_split_defect(rep)
        tag = f"(m={m:.3g}, omega={omega:.3g})"
        checks.append((f"h split {tag}", h_defect <= 1e-12))
        checks.append((f"anti split {tag}", a_defect <= 1e-12))
        checks.append((f"tan relation {tag}", tan_defect <= 1e-12))
    report(4, "Hermitian/anti-Hermitian Hamiltonian split", checks)


def test_c05_conjugation_identities():
    params = validate(1, cmath.exp(-1j * PI / 6))
    rep = build(params, 16)
    q_defect, p_defect = conjugation_defect(rep)
    checks = [
        (f"q conjugation {q_defect:.2e}", q_defect <= 1e-14),
        (f"p conjugation {p_defect:.2e}", p_defect <= 1e-14),
        ("lowering adjoint equals raising",
         np.array_equal(dense(rep.lowering).conj().T, dense(rep.raising))),
    ]
    report(5, "metric conjugation identities", checks)


def test_c06_metric_consistency():
    params = from_angles(PI / 3, -PI / 6)
    assert params.theta == pytest.approx(PI / 6)
    gram = gram_and_metric(params, 10)
    inv_defect = np.abs(gram.S @ gram.Qmat - np.eye(10)).max()
    head_target = 1 / math.sqrt(math.cos(PI / 6))
    checks = [
        (f"inverse defect {inv_defect:.2e}", inv_defect <= 1e-8),
        ("head entry", abs(gram.S[0, 0] - head_target) <= 1e-9),
        ("metric positive definite", np.linalg.eigvalsh(gram.Qmat).min() > 0),
    ]
    report(6, "metric matrix consistency", checks)


def test_c07_coherent_dynamics():
    params = validate(1, 1 - 0.2j)
    n_max = 40
    rep = build(params, n_max)
    checks = []
    for lam in (0.5, 1.0, 1.5, 0.9 + 0.8j):
        closed = coherent_state_at(lam, 1.0, "A", n_max, params)
        propagated = evolve_a(coherent_coeffs(lam, n_max), 1.0, params)
        defect = np.abs(closed.coeffs - propagated.coeffs).max()
        checks.append((f"two-route lam={lam}", defect <= 1e-10))
    lam_a, lam_b = 1.0, 0.4 - 0.3j
    system = TwoStateSystem(coherent_coeffs(lam_a, n_max),
                            coherent_coeffs(lam_b, n_max),
                            0.0, 4.0, params, rep)
    t = 1.5
    a_t, b_t = system.states_at(t)
    q_closed, p_closed = weak_qp_closed(
        coherent_lambda(lam_a, t, "A", params),
        coherent_lambda(lam_b, t - 4.0, "B", params), params)
    checks.append(("weak q matrix route",
                   abs(weak_value(rep.q_op, a_t, b_t) - q_closed) <= 1e-9))
    checks.append(("weak p matrix route",
                   abs(weak_value(rep.p_op, a_t, b_t) - p_closed) <= 1e-9))
    r1c, r2c = ehrenfest_residual(system, 1.0, 2e-2)
    r1f, r2f = ehrenfest_residual(system, 1.0, 1e-2)
    for name, ratio in (("dq/dt", abs(r1c) / abs(r1f)),
                        ("dp/dt", abs(r2c) / abs(r2f))):
        checks.append((f"Ehrenfest order {name} ratio {ratio:.3f}",
                       abs(ratio - 4.0) <= 0.4))
    report(7, "coherent dynamics and Ehrenfest relations", checks)


def test_c08_degenerate_real_frequency():
    params = validate(1, 1)
    duration = 7.0
    rng = np.random.default_rng(11)
    profiles = [np.ones(10), np.arange(1.0, 11.0), rng.uniform(0.2, 1.0, 10)]
    checks = []
    for idx, mags in enumerate(profiles):
        mags = mags / np.linalg.norm(mags)
        phases_a = rng.uniform(0, 2 * PI, 10)
        levels = np.arange(10) + 0.5
        phases_b = phases_a - duration * params.omega.real * levels - 0.81
        a = StateVec(mags * np.exp(1j * phases_a))
        b = StateVec(mags * np.exp(1j * phases_b))
        amp = abs(amplitude(a, b, duration, params))
        checks.append((f"profile {idx} amplitude", abs(amp - 1.0) <= 1e-12))
        res = maximize(duration, params, 10, start=a)
        checks.append((f"profile {idx} degenerate flag", res.degenerate))
        checks.append((f"profile {idx} maximized amplitude",
                       abs(res.amplitude_abs - 1.0) <= 1e-12))
    report(8, "degenerate real-frequency maximization", checks)


APPENDIX_TABLE = {
    Theory.UTT: [Potential.HO, Potential.HO, Potential.FREE_IMAG,
                 Potential.IHO, Potential.IHO],
    Theory.ITT: [Potential.FREE_IMAG, Potential.HO, Potential.HO,
                 Potential.HO, Potential.FREE_IMAG],
    Theory.FTT: [Potential.IHO, Potential.IHO, Potential.FREE_IMAG,
                 Potential.HO, Potential.HO],
}


def test_c09_phase_diagram_classification():
    checks = []
    for theory, theta_m in ((Theory.UTT, PI / 4), (Theory.ITT, PI / 2),
                            (Theory.FTT, 3 * PI / 4)):
        for region_idx, offset in enumerate((0.0, PI / 8, PI / 4, 3 * PI / 8,
                                             PI / 2)):
            c = classify_phase(theta_m, -theta_m / 2 - offset)
            expected = APPENDIX_TABLE[theory][region_idx]
            checks.append(
                (f"{theory.value} region {region_idx + 1}",
                 c.theory == theory and c.region == region_idx + 1
                 and c.potential == expected))
    for theta_m in (0.0, PI):
        c = classify_phase(theta_m, -PI / 2)
        checks.append((f"corner ({theta_m:.2f}, -pi/2) excluded",
                       c.excluded_corner and not c.normalizable))
    report(9, "phase diagram labels and excluded corners", checks)


def test_c10_regulated_wavefunctions():
    params = validate(1, cmath.exp(-1j * PI / 6))
    checks = []
    for eps in (1e-3, 1e-2):
        path = rotated_path(0.0, 8.0, 400)
        vals2 = ground_regulated(2, path.nodes.real, params,
                                 eps=eps, eps_prime=eps)
        vals1 = ground_regulated(1, path.nodes.real, params,
                                 eps=eps, eps_prime=eps)
        overlap = np.dot(path.weights, np.conj(vals2) * vals1)
        checks.append((f"dual overlap at eps={eps:g}",
                       abs(overlap - 1.0) <= 1e-10))
    qs = np.array([0.2, 0.8, 1.5])
    for n in (0, 3):
        errs = []
        for eps in (1e-2, 1e-3):
            gp = excited_regulated(1, n, params, eps=eps, eps_prime=eps)
            errs.append(np.abs(gp(qs) - eigenfunction(1, n, qs, params)).max())
        ratio = errs[0] / errs[1]
        checks.append((f"level {n} linear regulator rate (ratio {ratio:.2f})",
                       5 < ratio < 20))
    rng = np.random.default_rng(13)
    sample = rng.normal(size=20) + 0.05j * rng.normal(size=20)
    for n in range(6):
        gp = excited_regulated(1, n, params, eps=0, eps_prime=0)
        rel = (np.abs(gp(sample) - eigenfunction(1, n, sample, params))
               / np.abs(eigenfunction(1, n, sample, params)))
        checks.append((f"regulator-free level {n}", rel.max() <= 1e-12))
    report(10, "regulated ground and excited wavefunctions", checks)


def test_c11_delta_machinery():
    checks = []
    errors = []
    for eps in (1e-3, 1e-4, 1e-5):
        path = rotated_path(0.0, 13 * math.sqrt(eps), 400)
        val = smear(lambda q: (q + 1.0) ** 2, 0.0, eps, path)
        errors.append(abs(val - 1.0))
        checks.append((f"smear error {errors[-1]:.2e} <= 3*eps at eps={eps:g}",
                       errors[-1] <= 3 * eps))
    checks.append(("linear scaling 1e-3/1e-4",
                   abs(errors[0] / errors[1] - 10) <= 0.5))
    checks.append(("linear scaling 1e-4/1e-5",
                   abs(errors[1] / errors[2] - 10) <= 0.5))
    rng = np.random.default_rng(17)
    worst = 0.0
    inside = 0
    for _ in range(300):
        theta_a = rng.uniform(-1.3, 1.3)
        a = rng.uniform(0.4, 2.0) * cmath.exp(1j * theta_a)
        if abs(a.real) < 1e-3:
            continue
        eps = rng.uniform(0.005, 0.1)
        q = rng.uniform(0.2, 1.5) * cmath.exp(1j * (-theta_a + rng.uniform(-0.6, 0.6)))
        ok, residual = delta_scale_ok(a, q, eps)
        if ok:
            inside += 1
            worst = max(worst, residual / abs(delta_eval(a * q, eps)))
    checks.append((f"scaling residual {worst:.2e} on {inside} window samples",
                   inside > 200 and worst <= 1e-12))
    boundary_sample = [
        (1 + 0.5j, True), (0.5 + 1j, False), (1 + 1j, False),
        (1.0001 + 1j, True), (0.9999 + 1j, False), (-2 + 1.9j, True),
        (3j, False), (2.0, True),
    ]
    for q, expected in boundary_sample:
        checks.append((f"domain predicate at {q}",
                       delta_domain_ok(complex(q)) is expected))
    report(11, "smeared delta machinery", checks)

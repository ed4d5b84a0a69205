"""Tests of the benchmark itself: generator, oracles and a minimal run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from cxho import cli, params  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _argvs(blocks):
    return [r.argv for block in blocks for r in block]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_deterministic_per_seed(workload):
    first, again = workloads.plan(workload, 7), workloads.plan(workload, 7)
    assert _argvs(first) == _argvs(again)
    assert workloads.argv_hash(first) == workloads.argv_hash(again)
    assert workloads.argv_hash(first) != workloads.argv_hash(workloads.plan(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_the_same_composition(workload):
    blocks = workloads.plan(workload, 3)
    shapes = {tuple(sorted(collections.Counter(r.stratum for r in b).items()))
              for b in blocks}
    assert len(shapes) == 1


def test_drawn_points_are_valid_and_cover_edges_and_real_line():
    reqs = [r for b in workloads.plan("verify_sweep", 5)[:40] for r in b]
    for req in reqs:
        assert params.validate(req.spec["m"], req.spec["omega"]).normalizable
    assert {r.spec["where"] for r in reqs} == {"real", "edge", "interior"}
    mix = [r for b in workloads.plan("two_state_mix", 5)[:10] for r in b]
    for req in mix:
        params.validate(req.spec["m"], req.spec["omega"])
    assert any(r.spec["omega"].imag == 0 for r in mix if r.command == "maximize")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cold_sample_has_the_same_strata_on_every_seed(workload):
    strata = workloads.COLD_STRATA[workload]
    for seed in (1, 2):
        sample = workloads.cold_sample(workloads.plan(workload, seed), strata, 2)
        assert tuple(r.stratum for r in sample) == tuple(s for s in strata
                                                         for _ in range(2))
        assert len({r.argv for r in sample}) == len(sample) or workload == "phase_scan"


CLIENT = worker.Client(cli.main)


def _call(argv):
    resp = CLIENT.call(argv)
    return resp.code, resp.out, resp.err


def _request(command, argv, **spec):
    return workloads.Request(command, tuple(argv), "test", spec)


@pytest.mark.parametrize("fmt,old,new", [("csv", ",UTT,", ",FTT,"),
                                         ("json", '"HO"', '"IHO"')])
def test_phase_oracle_rejects_a_flipped_classification(fmt, old, new):
    req = _request("phase-diagram", ["phase-diagram", "--grid", "33", "--format", fmt],
                   grid=33, fmt=fmt)
    code, out, err = _call(req.argv)
    assert oracles.check(req, code, out, err).status == "ok"
    assert old in out
    flipped = oracles.check(req, code, out.replace(old, new, 1), err)
    assert flipped.status == "wrong" and flipped.checks_failed >= 1


def test_evolve_oracle_rejects_a_perturbed_weak_value():
    lam_a, lam_b, omega = 1 + 0.5j, -0.3 + 1j, 0.9 - 0.3j
    argv = ["evolve", "--omega", workloads.complex_literal(omega),
            "--lambda-a", workloads.complex_literal(lam_a),
            "--lambda-b", workloads.complex_literal(lam_b), "--steps", "40"]
    req = _request("evolve", argv, m=1 + 0j, omega=omega, lambda_a=lam_a,
                   lambda_b=lam_b, nmax=32, steps=40, t_a=0.0, t_b=10.0)
    code, out, err = _call(argv)
    assert oracles.check(req, code, out, err).status == "ok"
    lines = out.splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-6))  # q_op real part
    lines[5] = ",".join(cells)
    bad = oracles.check(req, code, "\n".join(lines) + "\n", err)
    assert bad.status == "wrong" and bad.checks_failed == 1


def test_maximize_oracle_rejects_an_unconverged_or_wrong_result():
    omega = 1 - 0.2j
    argv = ["maximize", "--omega", workloads.complex_literal(omega), "--T", "10"]
    req = _request("maximize", argv, m=1 + 0j, omega=omega, duration=10.0, nmax=32)
    code, out, err = _call(argv)
    assert oracles.check(req, code, out, err).status == "ok"
    unconverged = out.replace('"converged": true', '"converged": false')
    assert oracles.check(req, code, unconverged, err).status == "defect"
    payload = json.loads(out)
    payload["amplitude_abs"] *= 1 + 1e-6
    assert oracles.check(req, code, json.dumps(payload), err).status == "wrong"


def test_maximize_near_real_frequency_fails_at_the_seed_defaults():
    omega = complex(1.0, -1e-6)
    argv = ["maximize", "--omega", workloads.complex_literal(omega), "--T", "10"]
    req = _request("maximize", argv, m=1 + 0j, omega=omega, duration=10.0, nmax=32)
    assert oracles.check(req, *_call(argv)).status != "ok"


def test_verify_oracle_rejects_a_missing_or_inconsistent_check():
    omega = 0.866 - 0.5j
    argv = ["verify", "--omega", workloads.complex_literal(omega), "--nmax", "12"]
    req = _request("verify", argv, m=1 + 0j, omega=omega, nmax=12)
    code, out, err = _call(argv)
    assert oracles.check(req, code, out, err).status == "ok"
    report = json.loads(out)
    dropped = dict(report, checks=report["checks"][1:])
    assert oracles.check(req, code, json.dumps(dropped), err).status == "wrong"
    report["checks"][0]["passed"] = False
    report["all_passed"] = False
    assert oracles.check(req, code, json.dumps(report), err).status == "wrong"
    assert oracles.check(req, 3, json.dumps(report), err).status == "wrong"


def test_verify_oracle_reports_a_loud_failure_as_defect():
    omega = 0.866 - 0.5j
    argv = ["verify", "--omega", workloads.complex_literal(omega), "--nmax", "32"]
    req = _request("verify", argv, m=1 + 0j, omega=omega, nmax=32)
    code, out, err = _call(argv)
    outcome = oracles.check(req, code, out, err)
    assert code == 3 and outcome.status == "defect"
    assert "dual_normalization" in outcome.reason


def test_expected_phase_matches_the_paper_corners():
    import numpy as np

    got = oracles.expected_phase(np.array([0.0, np.pi / 2, np.pi, 0.0]),
                                 np.array([0.0, -np.pi / 2, -np.pi, -np.pi / 2]))
    assert list(got["theory"]) == ["UTT", "ITT", "FTT", "UTT"]
    assert list(got["region"]) == [1, 3, 5, 5]
    assert list(got["potential"]) == ["HO", "HO", "HO", "IHO"]
    assert list(got["normalizable"]) == [True, True, True, False]


def test_metric_tables_match_benchmark_json():
    assert list(run.END_TO_END_UNITS.items()) == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert list(run.PER_LAYER_UNITS.items()) == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


MINIMAL = run.Plan(setup_spawns=1, importtime_spawns=1, min_requests=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_minimal_run_emits_every_metric(workload, trace):
    record = run.measure(workload, seed=1, seconds=0, trace=trace, plan=MINIMAL)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(record["metrics"]) == names
    for name in names:
        value = record["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert record["provenance"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_scaled_time_is_wall_time_at_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scaled(0.3, ref, ref) == pytest.approx(0.3)
    # on a machine running at half speed the same work reads as before
    assert speed.scaled(0.6, 2 * ref, 2 * ref) == pytest.approx(0.3)
    assert speed.scaled(0.3, ref, 3 * ref) == pytest.approx(0.15)
    for workload in workloads.WORKLOADS:
        assert 0 < speed.calibrate(workload) < 1

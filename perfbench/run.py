#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``cxho`` command line.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  Workloads (see ``workloads.py``): ``verify_sweep``,
``phase_scan`` and ``two_state_mix``.

With ``--trace 0`` it measures, in order:

* ``setup_s``: median wall time of fresh ``python -c "import cxho.cli"``
  processes;
* ``cold_call_s``: median wall time of fresh ``python -m cxho.cli <argv>``
  processes over a fixed-composition sample of the workload's requests;
* the closed loop in a fresh worker process (``worker.py``): call latency
  percentiles, oracle-passing calls per second, the share of requests and
  of sub-checks that pass their oracle, and the worker's peak RSS.

Every time is reported at reference speed (``speed.py``): its wall time
scaled by a calibration kernel, or for a fresh process by a probe process,
timed right before and after it, on the one CPU the whole run is pinned
to.  This keeps the spells in which other tenants slow a shared machine
down out of the figures; the wall times are kept in the full result.
Fresh processes run in two rounds, one before the worker and one after it,
and their figures are medians over both.

With ``--trace 1`` it reports the per-layer metrics instead: import time per
package from ``-X importtime``, and spans and counters of a traced replay of
the same requests.  Every child process gets BLAS pinned to one thread.

The full result, with provenance, the executed argv list and its hash, goes
to ``perfbench/out/``; the last stdout line is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracles
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Every run must finish well inside the 180 s a run is allowed.
DEADLINE_S = 165.0

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_call_s": "s",
    "call_s.p50": "s",
    "call_s.p90": "s",
    "ok_calls_per_s": "1/s",
    "ok_ratio": "ratio",
    "check_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.click_s": "s",
    "setup.cxho_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "params.calls": "count", "params.self_s": "s",
    "contour.calls": "count", "contour.self_s": "s",
    "contour.rule_builds": "count", "contour.rule_nodes": "count",
    "kernels.calls": "count", "kernels.self_s": "s", "kernels.cells": "count",
    "kernels.bytes_computed": "B", "kernels.hermite_table_s": "s",
    "kernels.poly_gauss_eval_s": "s",
    "fock.calls": "count", "fock.self_s": "s",
    "wavefunctions.calls": "count", "wavefunctions.self_s": "s",
    "wavefunctions.cond_max": "1", "wavefunctions.cross_defect_max": "1",
    "wavefunctions.warnings": "count",
    "dynamics.calls": "count", "dynamics.self_s": "s", "dynamics.samples": "count",
    "maximize.calls": "count", "maximize.self_s": "s",
    "maximize.iterations": "count", "maximize.converged_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

SETUP_PACKAGES = ("numpy", "scipy", "click", "cxho")


@dataclass(frozen=True)
class Plan:
    """How much each run does besides the timed loop."""

    #: bare-import processes per round (two rounds)
    setup_spawns: int = 2
    importtime_spawns: int = 5
    #: a p90 with at least ten samples beyond it
    min_requests: int = 100


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(BLAS_PIN)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    return left


def spawn(args, deadline: float, capture: bool = False):
    """Run a child Python to completion; return (seconds, exit code, stdout, stderr)."""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              stdout=pipe, stderr=subprocess.PIPE, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {args[:4]}") from exc
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def probe(deadline: float) -> float:
    seconds, code, _, err = spawn(speed.PROBE_ARGS, deadline)
    if code != 0:
        raise BenchError(f"probe process failed:\n{err}")
    return seconds


def fresh_round(sample, plan: Plan, deadline: float) -> dict:
    """One round of fresh processes: bare imports, then the cold sample.

    A probe process runs before the first and after every one of them.
    Times are (seconds at reference speed, wall seconds).  Each cold call's
    response is checked by its oracle after the probe that follows it.
    """
    round_ = {"setup": [], "cold": [], "cold_argv": [], "cold_outcomes": [],
              "probes": [probe(deadline)]}
    for req in [None] * plan.setup_spawns + list(sample):
        args = ["-c", "import cxho.cli"] if req is None else ["-m", "cxho.cli", *req.argv]
        seconds, code, out, err = spawn(args, deadline, capture=req is not None)
        before, after = round_["probes"][-1], probe(deadline)
        round_["probes"].append(after)
        times = (speed.scaled(seconds, before, after, speed.PROBE_REFERENCE_S), seconds)
        if req is None:
            if code != 0:
                raise BenchError(f"import cxho.cli failed:\n{err}")
            round_["setup"].append(times)
        else:
            outcome = oracles.check(req, code, out, err)
            round_["cold"].append((times, code))
            round_["cold_argv"].append(list(req.argv))
            round_["cold_outcomes"].append({"status": outcome.status,
                                            "reason": outcome.reason})
    return round_


def fresh_process_times(rounds: list[dict]) -> dict:
    """Medians over every process of both rounds."""
    return {
        "setup_s": statistics.median(t for r in rounds for t, _ in r["setup"]),
        "cold_call_s": statistics.median(t for r in rounds for (t, _), _ in r["cold"]),
        "fresh_rounds": rounds,
    }


def import_times(plan: Plan, deadline: float) -> tuple[dict, list[dict]]:
    """Median self import time per package, from ``-X importtime``."""
    samples = []
    for _ in range(plan.importtime_spawns):
        _, code, _, err = spawn(["-X", "importtime", "-c", "import cxho.cli"],
                                deadline)
        if code != 0:
            raise BenchError(f"import cxho.cli failed:\n{err}")
        per_package = dict.fromkeys(SETUP_PACKAGES, 0.0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            if package in per_package:
                per_package[package] += int(self_us) * 1e-6
        samples.append(per_package)
    return ({f"setup.{p}_s": statistics.median(s[p] for s in samples)
             for p in SETUP_PACKAGES}, samples)


def run_worker(workload: str, seed: int, seconds: float, trace: int, plan: Plan,
               deadline: float) -> dict:
    spans = OUT / f"{workload}-seed{seed}-spans.npz"
    _, code, out, err = spawn(
        [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--min-requests", str(plan.min_requests), "--src", str(SRC),
         "--spans", str(spans)], deadline, capture=True)
    if code != 0 or not out.strip():
        raise BenchError(f"worker exited {code}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: int,
            plan: Plan = Plan()) -> dict:
    """One benchmark run; returns the full result record."""
    if not (SRC / "cxho" / "cli.py").is_file():
        raise BenchError(f"no cxho sources under {SRC}; run from a checkout root")
    deadline = time.monotonic() + DEADLINE_S
    blocks = workloads.plan(workload, seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "git_commit": git_commit(),
              "argv_sha256": workloads.argv_hash(blocks)}
    if trace:
        setup_layers, record["importtime"] = import_times(plan, deadline)
        worker = run_worker(workload, seed, seconds, trace, plan, deadline)
    else:
        # fresh-process timings are taken in two rounds, one on each side
        # of the worker, after one untimed import that warms the file cache;
        # each round sends its own request of every stratum
        sample = workloads.cold_sample(blocks, workloads.COLD_STRATA[workload], 2)
        spawn(["-c", "import cxho.cli"], deadline)
        first = fresh_round(sample[0::2], plan, deadline)
        worker = run_worker(workload, seed, seconds, trace, plan, deadline)
        record.update(fresh_process_times(
            [first, fresh_round(sample[1::2], plan, deadline)]))
    record["provenance"] = worker["provenance"]
    record["records"] = worker["records"]
    e2e = worker["end_to_end"]
    record["end_to_end"] = e2e
    record["attempted"] = e2e["requests"]
    record["failed"] = e2e["wrong"]
    if trace:
        layers = dict(setup_layers, **worker["per_layer"])
        metrics = {k: layers[k] for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        record["per_layer"] = layers
    else:
        cold_wrong = [dict(outcome, argv=argv)
                      for rnd in record["fresh_rounds"]
                      for argv, outcome in zip(rnd["cold_argv"], rnd["cold_outcomes"])
                      if outcome["status"] == "wrong"]
        record["cold_wrong"] = cold_wrong
        record["attempted"] += sum(len(r["cold"]) for r in record["fresh_rounds"])
        record["failed"] += len(cold_wrong)
        values = dict(e2e, setup_s=record["setup_s"], cold_call_s=record["cold_call_s"])
        metrics = {k: values[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def summary_lines(record: dict) -> list[str]:
    prov = record["provenance"]
    e2e = record["end_to_end"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  requests {record['attempted']}  "
        f"argv sha256 {record['argv_sha256'][:16]}",
        f"cxho {prov['cxho_version']} ({prov['cxho_backend']}) at {record['git_commit']}; "
        f"python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
        f"click {prov['click']}; {prov['blas']} threads {prov['blas_threads']}; "
        f"nproc {prov['nproc']}",
        f"outcomes: ok {e2e['ok']}  defect {e2e['defect']}  wrong {e2e['wrong']}  "
        f"fail_ratio {e2e['fail_ratio']:.4f}  check_fail_ratio {e2e['check_fail_ratio']:.6f}",
    ]
    lines += [f"  {name:32s} {m['value']:.6g} {m['unit']}"
              for name, m in record["metrics"].items()]
    if not record["trace"]:
        lines.append(f"  wall time: call p50 {e2e['wall_s.p50']:.6g} s, "
                     f"p90 {e2e['wall_s.p90']:.6g} s (times above are at "
                     f"reference speed, calibration {speed.REFERENCE_S} s)")
    reasons = sorted({r["reason"] for r in record["records"] if r["status"] == "wrong"})
    reasons += [f"fresh process: {w['reason']}: {' '.join(w['argv'])}"
                for w in record.get("cold_wrong", [])]
    lines += [f"  wrong: {r}" for r in reasons[:5]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    speed.pin_to_one_cpu()
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("\n".join(summary_lines(record)))
    print(f"full result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run workloads repeatedly and compare each end-to-end metric's spread
with the bound ``BENCHMARK.json`` gives it.

    python3 perfbench/steady.py --runs 10 --first-seed 100
    python3 perfbench/steady.py --workload two_state_mix --runs 5

Each run uses its own seed.  For every metric the spread is the distance
between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median.
A metric is ``steady`` below a third of its bound, ``within`` below the
bound, ``WIDE`` otherwise; ``setup_s`` is held only to the second test of
the acceptance rule (medians of two batches), so it is shown but not judged.
Use ``--first-seed`` to draw a second, disjoint batch and compare medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(spec: dict, workload: str, seed: int) -> tuple[dict, float]:
    """One untraced run; returns its result line and its wall time."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - t0


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("need at least 3 runs for quartiles")

    summary = {}
    all_steady = True
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            result, wall = one_run(spec, workload, args.first_seed + i)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"in {wall:.1f} s", flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = metric["bound"]
            if name == "setup_s":
                verdict = "(not judged)"
            elif rel < bound / 3:
                verdict = "steady"
            else:
                verdict = "within" if rel <= bound else "WIDE"
                all_steady = False
            print(f"  {name:18s} {med:12.6g} {rel:8.4f} {bound:6.3f}  {verdict} "
                  f"{metric['unit']}")
            summary[workload][name] = {"median": med, "spread": rel, "values": values}
        print(flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-seed{args.first_seed}.json").write_text(json.dumps(summary, indent=1))
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())

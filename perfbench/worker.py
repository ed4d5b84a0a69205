"""One workload as one closed-loop client, in a fresh process.

Started by ``run.py`` with BLAS threads pinned to 1 and the checkout's
``src`` on ``PYTHONPATH``.  It drives the CLI in-process through
``cxho.cli.main(argv, standalone_mode=False)`` with stdout, stderr and
warnings captured, sends the next request only after the previous one has
returned, and times each call alone, with the workload's calibration
kernel from ``speed.py`` timed right before and after it, so each latency
is also reported at reference speed.  Each response is checked by its
oracle right after its call, outside the timed region.  The loop stops at
the first block boundary once the timed calls add up to ``--seconds`` and
at least ``--min-requests`` requests were made.

With ``--trace 1`` the loop gets half of ``--seconds``; the same requests
are then replayed once with every layer wrapped (see ``tracing.py``), and
the per-layer totals are reported instead of the end-to-end ones.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import speed
import tracing
import workloads

BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Inputs of the two kernels timed for the ``kernels.*`` layer, as in the
#: old kernel micro-benchmark: 48 Hermite rows, 20000 complex nodes and a
#: degree-24 polynomial, median of ``KERNEL_REPEATS`` calls.
KERNEL_ROWS, KERNEL_NODES, KERNEL_DEGREE, KERNEL_REPEATS = 48, 20000, 24, 15


@dataclass
class Response:
    seconds: float
    code: object        # exit code, or a description of an escaped exception
    out: str
    err: str
    warnings: list


class Client:
    """Calls ``cxho.cli.main`` in-process with output and warnings captured.

    The same two buffers serve every call: click caches a wrapper per
    stdout object for the life of the process, so a fresh buffer per call
    would keep every response alive.
    """

    def __init__(self, main):
        self.main = main
        self._out, self._err = io.StringIO(), io.StringIO()

    def call(self, argv, tracer=None) -> Response:
        for buf in (self._out, self._err):
            buf.seek(0)
            buf.truncate()
        # start each call from a collected heap, as a fresh CLI process
        # would, rather than paying for the previous oracle's garbage
        gc.collect()
        with contextlib.redirect_stdout(self._out), \
                contextlib.redirect_stderr(self._err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rv = self.main(list(argv), standalone_mode=False)
                else:
                    rv = tracer.span("cli.main", self.main, list(argv),
                                     standalone_mode=False)
                code = rv if isinstance(rv, int) else 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an escape is a wrong response, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        return Response(seconds, code, self._out.getvalue(), self._err.getvalue(),
                        caught)


def _digest(resp: Response) -> str:
    return hashlib.sha256(f"{resp.code}\0{resp.out}\0{resp.err}".encode()).hexdigest()


def _wavefunction_warnings(caught) -> int:
    return sum(Path(w.filename).name == "wavefunctions.py" for w in caught)


def run_loop(client: Client, workload: str, blocks, seconds: float,
             min_requests: int):
    """Timed closed loop with per-response oracle checks.

    Runs whole blocks until the timed calls add up to ``seconds`` and at
    least ``min_requests`` requests were made.
    """
    records = []
    verdicts = {}  # a repeated request with the same response needs one check
    busy = 0.0
    for block in blocks:
        for req in block:
            before = speed.calibrate(workload)
            resp = client.call(req.argv)
            after = speed.calibrate(workload)
            busy += resp.seconds
            key = (req.argv, _digest(resp))
            if key not in verdicts:
                verdicts[key] = oracles.check(req, resp.code, resp.out, resp.err)
            records.append({"request": req, "wall_s": resp.seconds,
                            "latency_s": speed.scaled(resp.seconds, before, after),
                            "calibration_s": (before, after),
                            "code": resp.code, "outcome": verdicts[key]})
        if busy >= seconds and len(records) >= min_requests:
            break
    return records


def end_to_end(records) -> dict:
    lat = np.array([r["latency_s"] for r in records])
    wall = np.array([r["wall_s"] for r in records])
    status = [r["outcome"].status for r in records]
    n = len(records)
    n_ok = status.count("ok")
    checks = sum(r["outcome"].checks for r in records)
    checks_failed = sum(r["outcome"].checks_failed for r in records)
    p50, p90 = np.percentile(lat, [50, 90])
    wall_p50, wall_p90 = np.percentile(wall, [50, 90])
    return {
        "call_s.p50": float(p50),
        "call_s.p90": float(p90),
        "ok_calls_per_s": n_ok / float(lat.sum()),
        "ok_ratio": n_ok / n,
        "check_ok_ratio": 1 - checks_failed / checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": 1 - n_ok / n,
        "check_fail_ratio": checks_failed / checks,
        "wall_s.p50": float(wall_p50),
        "wall_s.p90": float(wall_p90),
        "busy_s": float(wall.sum()),
        "requests": n,
        "ok": n_ok,
        "defect": status.count("defect"),
        "wrong": status.count("wrong"),
    }


def _median_time(fn, *args) -> float:
    fn(*args)
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_times(seed: int) -> dict:
    from cxho import _kernels

    rng = np.random.default_rng(seed)
    z = rng.standard_normal(KERNEL_NODES) + 1j * rng.standard_normal(KERNEL_NODES)
    coeffs = (rng.standard_normal(KERNEL_DEGREE + 1)
              + 1j * rng.standard_normal(KERNEL_DEGREE + 1))
    return {
        "kernels.hermite_table_s": _median_time(_kernels.hermite_table, KERNEL_ROWS, z),
        "kernels.poly_gauss_eval_s": _median_time(
            _kernels.poly_gauss_eval, coeffs, 0.8 - 0.2j, 0.1j, z),
    }


def traced_pass(client: Client, requests, untraced_busy: float,
                spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    busy = 0.0
    warned = bytes_out = 0
    try:
        for i, req in enumerate(requests):
            tracer.current_request = i
            resp = client.call(req.argv, tracer)
            busy += resp.seconds
            warned += _wavefunction_warnings(resp.warnings)
            bytes_out += len(resp.out)
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(spans_path, **tracer.arrays())

    n = len(requests)
    layers = tracer.layer_totals()
    c = tracer.counts
    metrics = {"cli.self_s": layers["cli"]["self_s"] / n, "cli.bytes_out": bytes_out / n}
    for name in tracing.LAYERS:
        metrics[f"{name}.calls"] = layers[name]["calls"] / n
        metrics[f"{name}.self_s"] = layers[name]["self_s"] / n
    metrics.update({
        "contour.rule_builds": c["rule_builds"] / n,
        "contour.rule_nodes": c["rule_nodes"] / n,
        "kernels.cells": c["cells"] / n,
        "kernels.bytes_computed": tracing.CELL_BYTES * c["cells"] / n,
        "wavefunctions.cond_max": tracer.cond_max,
        "wavefunctions.cross_defect_max": tracer.cross_defect_max,
        "wavefunctions.warnings": warned / n,
        "dynamics.samples": c["samples"] / n,
        "maximize.iterations": c["iterations"] / n,
        # vacuously 1 when the workload never maximizes
        "maximize.converged_ratio": (c["converged"] / c["maximize_calls"]
                                     if c["maximize_calls"] else 1.0),
        "trace.overhead_ratio": busy / untraced_busy - 1,
        "trace.spans": len(tracer.start),
    })
    return metrics


def provenance() -> dict:
    import cxho

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cxho_version": cxho.__version__,
        "cxho_backend": cxho.BACKEND,
        "cxho_path": str(Path(cxho.__file__).parent),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_PIN_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "calibration_reference_s": speed.REFERENCE_S,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--min-requests", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    import cxho.cli

    if Path(cxho.cli.__file__).resolve().parent != (args.src / "cxho").resolve():
        print(f"cxho imported from {cxho.cli.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    client = Client(cxho.cli.main)
    for argv in workloads.WARMUP[args.workload]:
        client.call(argv)

    blocks = workloads.plan(args.workload, args.seed)
    # a traced run gives half its time to the plain loop, half to the replay
    seconds = args.seconds / 2 if args.trace else args.seconds
    records = run_loop(client, args.workload, blocks, seconds, args.min_requests)
    result = {
        "provenance": provenance(),
        "end_to_end": end_to_end(records),
        "records": [{"argv": list(r["request"].argv), "stratum": r["request"].stratum,
                     "latency_s": r["latency_s"], "wall_s": r["wall_s"],
                     "calibration_s": r["calibration_s"], "code": r["code"],
                     "status": r["outcome"].status, "checks": r["outcome"].checks,
                     "checks_failed": r["outcome"].checks_failed,
                     "reason": r["outcome"].reason} for r in records],
    }
    if args.trace:
        layers = kernel_times(args.seed)
        layers.update(traced_pass(client, [r["request"] for r in records],
                                  result["end_to_end"]["busy_s"], args.spans))
        result["per_layer"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

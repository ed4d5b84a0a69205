"""Machine-speed calibration for timings taken on a shared host.

On a few vCPUs of a shared machine the speed of the CPU drifts: other
tenants slow it 1.3-2x for spells of seconds, and CPU time drifts with wall
time, so neither clock alone gives a run-to-run steady figure.  A fixed
calibration kernel, timed right before and right after each measured call
on the same CPU, tracks that drift.  Each timing is reported *at reference
speed*: its wall time times ``REFERENCE_S`` over the calibration's mean
time around it.  On a machine where the calibration takes ``REFERENCE_S``
the two agree; a program that gets slower or faster moves the scaled time
just as much as the wall time.

Each workload has its own kernel, made of the parts of a fixed menu that
track its calls best: a pure Python loop and small dense solves for
``verify_sweep``, float formatting for ``phase_scan``, float formatting and
elementwise complex array arithmetic for ``two_state_mix``.  On the
machine the benchmark was built on, a slow spell slows these kinds of work
by different factors (formatting more than a Python loop, say), so one
kernel for all workloads left scaled times 6-8% off in such spells, in
opposite directions on ``verify_sweep`` and ``phase_scan``.  The kernels
depend on nothing in ``cxho``.

A fresh process spends its time differently (process creation, loading
shared libraries, page faults, unmarshalling modules), and the kernels
track that poorly.  Fresh processes are scaled instead by a probe process,
``python -c "import numpy"``, started right before and right after each
one: ``PROBE_REFERENCE_S`` over the probe's mean time around it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Wall time of the probe process on the machine the benchmark was built on
#: (a shared 2-vCPU Intel Xeon) at its usual speed; the unit of the scaled
#: fresh-process timings.
PROBE_ARGS = ("-c", "import numpy")
PROBE_REFERENCE_S = 0.15

#: A calibration is the median of this many kernel runs, so one run that is
#: interrupted does not distort the calls it scales.
CALIBRATION_RUNS = 5

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((100, 100))
_Z = _rng.standard_normal(2000) + 1j
_FLOATS = [i * 0.37 for i in range(320)]


def _python_loop() -> None:
    s = 0
    for i in range(6000):
        s += i * i


def _dense_solves() -> None:
    for _ in range(2):
        np.linalg.solve(_MATRIX, _MATRIX[:, 0])


def _float_formatting() -> None:
    ",".join(f"{x:.6g}" for x in _FLOATS)


def _complex_arrays() -> None:
    for _ in range(4):
        np.abs(np.exp(_Z * 0.3) * _Z).sum()


#: Each workload's calibration kernel, as (part, repetitions).
KERNELS = {
    "verify_sweep": ((_python_loop, 2), (_dense_solves, 1)),
    "phase_scan": ((_float_formatting, 9),),
    "two_state_mix": ((_float_formatting, 5), (_complex_arrays, 2)),
}

#: Time of every kernel on the machine the benchmark was built on at its
#: usual speed; the unit of the scaled in-process timings.
REFERENCE_S = 0.001


def _run(kernel) -> None:
    for part, repetitions in kernel:
        for _ in range(repetitions):
            part()


def calibrate(workload: str) -> float:
    """Median wall time of ``CALIBRATION_RUNS`` runs of the workload's kernel."""
    kernel = KERNELS[workload]
    times = []
    for _ in range(CALIBRATION_RUNS):
        t0 = time.perf_counter()
        _run(kernel)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float,
           reference: float = REFERENCE_S) -> float:
    """``seconds`` at reference speed, given the calibrations around it."""
    return seconds * reference / ((before + after) / 2)


def pin_to_one_cpu() -> int:
    """Keep this process and every child it starts on one CPU.

    The calibration then runs on the CPU whose speed it is meant to track.
    Returns the CPU chosen.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


for _workload in KERNELS:  # first-call set-up stays out of every calibration
    _run(KERNELS[_workload])

"""Independent checks of each CLI response, run outside the timed region.

Each oracle recomputes what the response must contain from the request's
own drawn values and the paper's rules, never from the package's code, and
returns an :class:`Outcome`:

``ok``
    every sub-check passed.
``defect``
    the program itself reported the failure: a documented exit code (2 or
    3) with its reason, a verification report whose own records fail, or a
    maximization that says it did not converge.  These count against the
    ``ok`` metrics but the output is a truthful account of what happened.
``wrong``
    the output is wrong and the program did not say so: an exception
    escaped, an undocumented exit code, an unparsable or incomplete
    output, or values that contradict the oracle.  Any ``wrong`` response
    makes the run incorrect.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

#: Documented CLI exit codes for failures that state their reason.
LOUD_EXIT_CODES = (2, 3)

#: Angle tolerance for boundary lines of the phase plane (radians).
ANGLE_TOL = 1e-9

#: Relative tolerance of the coherent-pair weak values and the amplitude's
#: time independence.  The truncation tail at |lambda| <= 1.5 and nmax 32
#: is below 1e-11, rounding is near 1e-14.
EVOLVE_RTOL = 1e-9

#: Relative tolerance of the maximized amplitude against exp(T Im w / 2),
#: and the allowed ground-overlap deficit, for a converged maximization.
MAXIMIZE_RTOL = 1e-8
GROUND_OVERLAP_TOL = 1e-6

#: |Im w| below this share of |w| counts as real frequency (documented).
DEGENERACY_RTOL = 1e-12

VERIFY_CHECKS = (
    "ladder_commutator", "coordinate_hermiticity", "conjugation_q",
    "conjugation_p", "lowering_adjoint_is_raising", "herm_split_h",
    "herm_split_a", "herm_split_tan", "h_herm_diagonal", "dual_normalization",
    "metric_inverse", "metric_positivity", "gram_head_entry",
    "ground_dual_overlap", "amplitude_time_independence", "coherent_two_route",
    "weak_qp_closed_vs_matrix", "ehrenfest_second_order",
    "maximize_matches_analytic", "amplitude_upper_bound", "h_herm_weak_value",
)
#: Checks that only apply when the frequency is not real.
VERIFY_NONDEGENERATE_CHECKS = (
    "maximize_ground_overlap", "classical_solution_q", "classical_solution_p",
)


@dataclass
class Outcome:
    status: str                 # "ok", "defect" or "wrong"
    checks: int                 # sub-checks attempted
    checks_failed: int
    reason: str = ""


def _is_real(omega: complex) -> bool:
    return abs(omega.imag) < DEGENERACY_RTOL * abs(omega)


def _loud_failure(code, out: str, err: str, checks: int) -> Outcome | None:
    """Classify a response that did not exit 0 with output on stdout.

    A fresh process also prints the package's warnings to stderr, ahead of
    its ``error:`` line.
    """
    if code == 0:
        return None
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code in LOUD_EXIT_CODES and errors and not out:
        return Outcome("defect", checks, checks, f"exit {code}: {' '.join(errors)}")
    return Outcome("wrong", checks, checks,
                   f"exit {code!r} with stderr {err.strip()[:200]!r}")


def check_verify(spec: dict, code, out: str, err: str) -> Outcome:
    expected = set(VERIFY_CHECKS)
    if not _is_real(spec["omega"]):
        expected |= set(VERIFY_NONDEGENERATE_CHECKS)
    if code not in (0, 3):
        return _loud_failure(code, out, err, len(expected))
    try:
        report = json.loads(out)
        records = report["checks"]
        names = [r["name"] for r in records]
        passed = [r["passed"] for r in records]
        consistent = all(
            p is (r["defect"] <= r["tolerance"]) for p, r in zip(passed, records))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome("wrong", len(expected), len(expected),
                       f"unreadable report: {exc}")
    failed = sum(not p for p in passed) + len(expected - set(names))
    if set(names) != expected or len(names) != len(expected):
        return Outcome("wrong", len(expected), failed,
                       f"check names differ: missing {sorted(expected - set(names))}, "
                       f"extra {sorted(set(names) - expected)}")
    if not consistent or report["all_passed"] is not all(passed) \
            or (code == 3) is report["all_passed"]:
        return Outcome("wrong", len(expected), failed,
                       "report flags contradict its own records or exit code")
    if failed:
        bad = [r["name"] for r in records if not r["passed"]]
        return Outcome("defect", len(expected), failed, f"failed checks {bad}")
    return Outcome("ok", len(expected), 0)


def _parse_phase(fmt: str, out: str) -> dict[str, np.ndarray]:
    keys = ("theta_m", "theta_omega", "theory", "region", "potential",
            "normalizable", "excluded_corner")
    if fmt == "json":
        rows = json.loads(out)
        cols = {k: [r[k] for r in rows] for k in keys}
    else:
        reader = csv.reader(io.StringIO(out))
        if tuple(next(reader)) != keys:
            raise ValueError("unexpected CSV header")
        cols = dict(zip(keys, map(list, zip(*reader))))
        for k in ("normalizable", "excluded_corner"):
            cols[k] = [{"true": True, "false": False}[v] for v in cols[k]]
    return {
        "theta_m": np.array(cols["theta_m"], dtype=float),
        "theta_omega": np.array(cols["theta_omega"], dtype=float),
        "theory": np.array(cols["theory"], dtype=str),
        "region": np.array(cols["region"], dtype=int),
        "potential": np.array(cols["potential"], dtype=str),
        "normalizable": np.array(cols["normalizable"], dtype=bool),
        "excluded_corner": np.array(cols["excluded_corner"], dtype=bool),
    }


def _signs(x: np.ndarray) -> np.ndarray:
    return np.where(x > ANGLE_TOL, 1, np.where(x < -ANGLE_TOL, -1, 0))


def expected_phase(theta_m: np.ndarray, theta_omega: np.ndarray
                   ) -> dict[str, np.ndarray]:
    """The paper's classification of angle-plane points, vectorized.

    Theory follows the sign of Re m (usual, imaginary, flipped time).  The
    region follows the sign pattern of the quadratic potential coefficient
    m w^2 ~ e^{i s}, s = theta_m + 2 theta_w: (+, 0), (+, -), (0, -), (-, -),
    (-, 0) for regions 1..5.  The potential label is the sign of the real
    part of that coefficient after the frame change m -> a m, w -> w / a,
    a = 1, -i, -1 for the three theories: positive HO, zero FREE_IMAG,
    negative IHO.  Modes are normalizable iff |theta_m + theta_w| < pi/2.
    """
    re_m = _signs(np.cos(theta_m))
    theory = np.select([re_m > 0, re_m == 0], ["UTT", "ITT"], "FTT")
    s = theta_m + 2 * theta_omega
    re_v, im_v = _signs(np.cos(s)), _signs(np.sin(s))
    region = np.select(
        [(re_v > 0) & (im_v == 0), (re_v > 0) & (im_v < 0), re_v == 0,
         (re_v < 0) & (im_v < 0), (re_v < 0) & (im_v == 0)],
        [1, 2, 3, 4, 5], 0)
    frame_arg = np.select([re_m > 0, re_m == 0], [0.0, -math.pi / 2], math.pi)
    frame_re = _signs(np.cos(s - frame_arg))
    potential = np.select([frame_re > 0, frame_re == 0], ["HO", "FREE_IMAG"], "IHO")
    normalizable = np.abs(theta_m + theta_omega) < math.pi / 2 - ANGLE_TOL
    return {"theory": theory, "region": region, "potential": potential,
            "normalizable": normalizable}


def check_phase(spec: dict, code, out: str, err: str) -> Outcome:
    grid = spec["grid"]
    per_row = 5
    if code != 0:
        return _loud_failure(code, out, err, per_row * grid * grid)
    try:
        got = _parse_phase(spec["fmt"], out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome("wrong", per_row * grid * grid, per_row * grid * grid,
                       f"unreadable output: {exc}")
    if got["theta_m"].size != grid * grid:
        return Outcome("wrong", per_row * grid * grid, per_row * grid * grid,
                       f"{got['theta_m'].size} rows, expected {grid * grid}")
    i, j = np.divmod(np.arange(grid * grid), grid)
    theta_m = math.pi * i / (grid - 1)
    theta_w = -theta_m / 2 - math.pi / 2 + math.pi / 2 * j / (grid - 1)
    want = expected_phase(got["theta_m"], got["theta_omega"])
    bad = [
        (np.abs(got["theta_m"] - theta_m) > 1e-12)
        | (np.abs(got["theta_omega"] - theta_w) > 1e-12),
        got["theory"] != want["theory"],
        got["region"] != want["region"],
        got["potential"] != want["potential"],
        (got["normalizable"] != want["normalizable"])
        | (got["excluded_corner"] == want["normalizable"]),
    ]
    failed = int(sum(b.sum() for b in bad))
    if failed:
        names = ("grid", "theory", "region", "potential", "normalizable")
        first = {n: int(np.argmax(b)) for n, b in zip(names, bad) if b.any()}
        return Outcome("wrong", per_row * grid * grid, failed,
                       f"rows disagree with the oracle (first bad row per field: {first})")
    return Outcome("ok", per_row * grid * grid, 0)


def _coherent_weak_qp(spec: dict, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form weak q and p of a coherent boundary pair at times t.

    The forward label moves as lambda_a e^{-i w (t - t_a)}, the backward one
    as lambda_b e^{-i conj(w) (t - t_b)}; q = sqrt(hbar/2mw) (la + conj lb),
    p = -i sqrt(hbar mw/2) (la - conj lb), hbar = 1.
    """
    m, omega = spec["m"], spec["omega"]
    la = spec["lambda_a"] * np.exp(-1j * omega * (t - spec["t_a"]))
    lb = spec["lambda_b"] * np.exp(-1j * np.conj(omega) * (t - spec["t_b"]))
    mw = m * omega
    q = cmath.sqrt(1 / (2 * mw)) * (la + np.conj(lb))
    p = -1j * cmath.sqrt(mw / 2) * (la - np.conj(lb))
    return q, p


def check_evolve(spec: dict, code, out: str, err: str) -> Outcome:
    n_rows = spec["steps"] + 1
    per_row = 3
    if code != 0:
        return _loud_failure(code, out, err, per_row * n_rows)
    try:
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        rows = [r for r in reader]
        ok_rows = [r for r in rows if r[-1] == "ok"]
        if len(rows) != n_rows or header[-1] != "status" or any(
                r[-1] not in ("ok", "vanishing_overlap") for r in rows):
            raise ValueError(f"{len(rows)} rows or bad status column")
        data = np.array([r[:7] for r in ok_rows], dtype=float).reshape(-1, 7)
    except (ValueError, IndexError, StopIteration) as exc:
        return Outcome("wrong", per_row * n_rows, per_row * n_rows,
                       f"unreadable output: {exc}")
    times = np.linspace(spec["t_a"], spec["t_b"], n_rows)
    if data.shape[0] == 0 or not np.array_equal(
            np.array([float(r[0]) for r in rows]), times):
        return Outcome("wrong", per_row * n_rows, per_row * n_rows,
                       "time grid differs or no sample survived")
    t = data[:, 0]
    amp = data[:, 1] + 1j * data[:, 2]
    q = data[:, 3] + 1j * data[:, 4]
    p = data[:, 5] + 1j * data[:, 6]
    q_want, p_want = _coherent_weak_qp(spec, t)
    bad = [
        np.abs(amp - amp[0]) > EVOLVE_RTOL * np.abs(amp[0]),
        np.abs(q - q_want) > EVOLVE_RTOL * (1 + np.abs(q_want)),
        np.abs(p - p_want) > EVOLVE_RTOL * (1 + np.abs(p_want)),
    ]
    failed = int(sum(b.sum() for b in bad)) + per_row * (n_rows - data.shape[0])
    if any(b.any() for b in bad):
        return Outcome("wrong", per_row * n_rows, failed,
                       "amplitude drifts or weak values miss the closed form")
    if failed:
        return Outcome("defect", per_row * n_rows, failed,
                       "rows with vanishing overlap")
    return Outcome("ok", per_row * n_rows, 0)


def check_maximize(spec: dict, code, out: str, err: str) -> Outcome:
    real = _is_real(spec["omega"])
    n_checks = 2 if real else 3
    if code != 0:
        return _loud_failure(code, out, err, n_checks)
    try:
        result = json.loads(out)
        converged = result["converged"]
        amp = float(result["amplitude_abs"])
        overlap = float(result["ground_overlap"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome("wrong", n_checks, n_checks, f"unreadable output: {exc}")
    best = math.exp(spec["duration"] * spec["omega"].imag / 2)
    amp_ok = abs(amp - best) <= MAXIMIZE_RTOL * best
    overlap_ok = real or 1.0 - overlap <= GROUND_OVERLAP_TOL
    failed = (converged is not True) + (not amp_ok) + (not overlap_ok)
    if converged is False:
        return Outcome("defect", n_checks, failed,
                       f"not converged after {result.get('iterations')} iterations "
                       f"(ground overlap {overlap:.3g})")
    if failed:
        return Outcome("wrong", n_checks, failed,
                       f"converged={converged!r} but |amplitude| = {amp!r} vs "
                       f"{best!r}, ground overlap {overlap!r}")
    return Outcome("ok", n_checks, 0)


ORACLES = {"verify": check_verify, "phase-diagram": check_phase,
           "evolve": check_evolve, "maximize": check_maximize}


def check(request, code, out: str, err: str) -> Outcome:
    return ORACLES[request.command](request.spec, code, out, err)

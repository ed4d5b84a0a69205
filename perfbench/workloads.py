"""Seeded request generators for the three benchmark workloads.

A request is one ``cxho`` CLI invocation.  The program sees only its argv;
the drawn values the argv was made from travel with it in ``spec`` so the
oracles can recompute the expected answer independently.

Every workload is a list of blocks.  A block has a fixed composition (which
cost class, or *stratum*, each of its requests belongs to) in a seeded
order, and the timed loop only ever stops at a block boundary.  Continuous
draws come from randomly shifted Kronecker (R_d) sequences, one per stratum,
so any prefix of a run covers the parameter plane evenly.  Together these
keep the share of slow and of failing draws the same from seed to seed,
which is what makes the percentiles and ratios steady, while the seed still
changes every drawn value.  Draws that hit the package's known defects are
kept on purpose.

Only the standard library is used, so the orchestrating process stays light.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify_sweep", "phase_scan", "two_state_mix")

#: Truncations drawn by ``verify_sweep``: README sizes plus the defaults
#: at which the Gram layer is known to break (32, 64) or overflow (128).
VERIFY_NMAX = (12, 16, 32, 64, 128)

#: ``phase_scan`` block: requests per grid size, each once as CSV and once
#: as JSON.  Weighted towards small grids so a hundred requests take about
#: ten seconds.  Sorted by cost, the median falls two thirds of the way
#: into the 64-grid CSV calls and the 90th percentile 40% of the way into
#: the 201-grid CSV calls, so both sit inside a cluster, away from its
#: edges.
PHASE_GRIDS = {33: 3, 64: 3, 101: 1, 201: 1}

#: ``two_state_mix`` block: evolve requests per truncation, and maximize
#: requests with a log-uniform |Im w|/|w| plus exactly-real ones.
EVOLVE_NMAX = {32: 4, 64: 4}
MAXIMIZE_NEAR_REAL = 7
MAXIMIZE_REAL = 1
#: Range of the ``evolve`` step counts.
STEPS_MIN, STEPS_MAX = 500, 2000

#: Planned blocks per run; a run stops earlier, once its time is up.
PLANNED_BLOCKS = {"verify_sweep": 40, "phase_scan": 50, "two_state_mix": 60}

#: Strata of the fresh-process sample, three per workload, so the median
#: falls among middle-cost calls: ``verify_sweep`` spans
#: its truncations, ``phase_scan`` takes the CSV grids up to 101 (the loop
#: measures the rest), and ``two_state_mix`` leaves out the near-real
#: maximize, whose cost ranges over a factor of 100.
COLD_STRATA = {
    "verify_sweep": ("nmax12", "nmax32", "nmax128"),
    "phase_scan": ("33-csv", "64-csv", "101-csv"),
    "two_state_mix": ("evolve32", "evolve64", "maximize_real"),
}

#: Cheap requests run once, untimed, before the loop so lazy imports and
#: first-call set-up inside numpy are not charged to the first request.
WARMUP = {
    "verify_sweep": [["verify", "--omega", "0.866-0.5i", "--nmax", "12"]],
    "phase_scan": [["phase-diagram", "--grid", "33", "--format", "csv"],
                   ["phase-diagram", "--grid", "33", "--format", "json"]],
    "two_state_mix": [["evolve", "--omega", "1-0.1i", "--steps", "50"],
                      ["maximize", "--omega", "1-0.2i", "--T", "10"]],
}


@dataclass(frozen=True)
class Request:
    command: str
    argv: tuple[str, ...]
    stratum: str
    spec: dict


def complex_literal(z: complex) -> str:
    """The CLI's '<re>[+/-]<im>i' form, exact to the last bit."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


class Kronecker:
    """Randomly shifted R_d low-discrepancy sequence on [0, 1)^dim.

    alpha_j = g^-(j+1) with g the positive root of x^(dim+1) = x + 1
    (Roberts, 2018); the shift (Cranley-Patterson rotation) comes from the
    seed.
    """

    def __init__(self, dim: int, rng: random.Random):
        g = 2.0
        for _ in range(64):
            g = (1.0 + g) ** (1.0 / (dim + 1))
        self.alpha = [(1.0 / g) ** (j + 1) for j in range(dim)]
        self.shift = [rng.random() for _ in range(dim)]
        self.k = 0

    def next(self) -> list[float]:
        self.k += 1
        return [(s + self.k * a) % 1.0 for s, a in zip(self.shift, self.alpha)]


def _log_uniform(x: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** x


def _plane_point(u: float, v: float, mag_m: float, mag_w: float
                 ) -> tuple[complex, complex]:
    """(m, w) at parallelogram coordinates u, v in [0, 1].

    theta_m = pi*u and theta_w runs from the lower edge (arg m + 2 arg w =
    -pi) at v = 0 to the upper edge (= 0) at v = 1.
    """
    theta_m = math.pi * u
    theta_w = -theta_m / 2 - math.pi / 2 + math.pi / 2 * v
    m = cmath.rect(mag_m, theta_m)
    if u == 0.0:
        m = complex(mag_m, 0.0)
    return m, cmath.rect(mag_w, theta_w)


#: Where the ``verify_sweep`` points lie: each block sends every truncation
#: once per place, i.e. one point on the real-w line (the two allowed
#: corners where w is real), one on an edge and three inside.
VERIFY_PLACES = ("real", "edge", "interior", "interior", "interior")


class _VerifyPoints:
    """Seeded points of the closed parallelogram minus its excluded corners.

    Each place has its own sequence over every coordinate it draws, so the
    points of a run cover the place's (angle, |m|, |w|) space jointly.
    """

    def __init__(self, rng: random.Random):
        self.seqs = {"real": Kronecker(3, rng), "edge": Kronecker(3, rng),
                     "interior": Kronecker(4, rng)}
        self.edges = 0

    def draw(self, place: str) -> tuple[complex, complex]:
        *x, a, b = self.seqs[place].next()
        mag_m, mag_w = _log_uniform(a, 0.5, 2.0), _log_uniform(b, 0.5, 2.0)
        if place == "real":
            sign = 1.0 if x[0] < 0.5 else -1.0
            return complex(sign * mag_m, 0.0), complex(sign * mag_w, 0.0)
        if place == "edge":
            t = 0.02 + 0.96 * x[0]
            u, v = [(0.0, t), (1.0, t), (t, 0.0), (t, 1.0)][self.edges % 4]
            self.edges += 1
        else:
            u, v = (0.02 + 0.96 * c for c in x)
        return _plane_point(u, v, mag_m, mag_w)


def _verify_blocks(rng: random.Random, n_blocks: int) -> list[list[Request]]:
    points = {n: _VerifyPoints(rng) for n in VERIFY_NMAX}
    blocks = []
    for _ in range(n_blocks):
        block = []
        for nmax in VERIFY_NMAX:
            for place in VERIFY_PLACES:
                m, omega = points[nmax].draw(place)
                argv = ("verify", "--m", complex_literal(m),
                        "--omega", complex_literal(omega), "--nmax", str(nmax))
                block.append(Request("verify", argv, f"nmax{nmax}",
                                     {"m": m, "omega": omega, "nmax": nmax,
                                      "where": place}))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _phase_blocks(rng: random.Random, n_blocks: int) -> list[list[Request]]:
    blocks = []
    for _ in range(n_blocks):
        block = []
        for grid, count in PHASE_GRIDS.items():
            for fmt in ("csv", "json"):
                argv = ("phase-diagram", "--grid", str(grid), "--format", fmt)
                block += [Request("phase-diagram", argv, f"{grid}-{fmt}",
                                  {"grid": grid, "fmt": fmt})] * count
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _evolve_request(x: list[float], nmax: int) -> Request:
    u, v, a, b, ra, pa, rb, pb, st = x
    m, omega = _plane_point(0.02 + 0.96 * u, 0.02 + 0.96 * v,
                            _log_uniform(a, 0.5, 2.0), _log_uniform(b, 0.5, 2.0))
    lam_a = cmath.rect(1.5 * math.sqrt(ra), 2 * math.pi * pa)
    lam_b = cmath.rect(1.5 * math.sqrt(rb), 2 * math.pi * pb)
    steps = STEPS_MIN + int((STEPS_MAX - STEPS_MIN + 1) * st)
    argv = ("evolve", "--m", complex_literal(m), "--omega", complex_literal(omega),
            "--lambda-a", complex_literal(lam_a), "--lambda-b", complex_literal(lam_b),
            "--nmax", str(nmax), "--steps", str(steps))
    return Request("evolve", argv, f"evolve{nmax}",
                   {"m": m, "omega": omega, "lambda_a": lam_a, "lambda_b": lam_b,
                    "nmax": nmax, "steps": steps, "t_a": 0.0, "t_b": 10.0})


def _maximize_request(x: list[float] | None, mag_w: float) -> Request:
    """T in [1, 20]; |Im w|/|w| log-uniform in [1e-8, 1], or exactly 0."""
    if x is None:
        m, omega, duration = 1 + 0j, complex(mag_w, 0.0), 10.0
        stratum = "maximize_real"
    else:
        r, t, z = x
        ratio = _log_uniform(r, 1e-8, 1.0)
        theta_w = -math.asin(ratio)
        # any arg m in [0, -2 theta_w] keeps arg m + 2 arg w inside [-pi, 0]
        m = cmath.rect(1.0, -2 * theta_w * z)
        omega = cmath.rect(mag_w, theta_w)
        duration = 1.0 + 19.0 * t
        stratum = "maximize"
    argv = ("maximize", "--m", complex_literal(m), "--omega", complex_literal(omega),
            "--T", format(duration, ".17g"), "--nmax", "32")
    return Request("maximize", argv, stratum,
                   {"m": m, "omega": omega, "duration": duration, "nmax": 32})


def _mix_blocks(rng: random.Random, n_blocks: int) -> list[list[Request]]:
    evolve_seqs = {n: Kronecker(9, rng) for n in EVOLVE_NMAX}
    near_real = Kronecker(3, rng)
    magnitude = Kronecker(1, rng)
    blocks = []
    for _ in range(n_blocks):
        block = [_evolve_request(evolve_seqs[n].next(), n)
                 for n, count in EVOLVE_NMAX.items() for _ in range(count)]
        block += [_maximize_request(near_real.next(),
                                    _log_uniform(magnitude.next()[0], 0.5, 2.0))
                  for _ in range(MAXIMIZE_NEAR_REAL)]
        block += [_maximize_request(None, _log_uniform(magnitude.next()[0], 0.5, 2.0))
                  for _ in range(MAXIMIZE_REAL)]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


_GENERATORS = {"verify_sweep": _verify_blocks, "phase_scan": _phase_blocks,
             "two_state_mix": _mix_blocks}


def plan(workload: str, seed: int) -> list[list[Request]]:
    """The seeded blocks of requests for one run of a workload."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, PLANNED_BLOCKS[workload])


def argv_hash(blocks: list[list[Request]]) -> str:
    """sha256 over every planned argv, in order."""
    argvs = [list(r.argv) for block in blocks for r in block]
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()


#: Candidates per stratum the fresh-process sample is picked from.
COLD_CANDIDATES = 16


def cold_sample(blocks: list[list[Request]], strata: tuple[str, ...],
                per_stratum: int) -> list[Request]:
    """``per_stratum`` requests of each listed stratum.

    They are picked from the stratum's first ``COLD_CANDIDATES`` requests in
    plan order, those whose step count lies nearest the middle of its range
    first, so an ``evolve`` sample costs the same on every seed; requests
    without a step count are taken in plan order.  The fresh-process sample
    then has the same composition and cost on every seed.
    """
    middle = (STEPS_MIN + STEPS_MAX) / 2
    candidates: dict[str, list[Request]] = {s: [] for s in strata}
    for block in blocks:
        for req in block:
            found = candidates.get(req.stratum)
            if found is not None and len(found) < COLD_CANDIDATES:
                found.append(req)
    return [req for s in strata
            for req in sorted(candidates[s],
                              key=lambda r: abs(r.spec.get("steps", middle) - middle)
                              )[:per_stratum]]

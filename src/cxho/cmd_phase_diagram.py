"""``cxho phase-diagram``: the phase classification over the angle lattice.

It formats the exact lattice with the stdlib alone and loads neither numpy
nor any numeric module.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .command import (OUTPUT, Flag, choice, g17, integer, json_dumps,
                      subcommand, write_output)
from .params import POTENTIAL_TABLE, is_normalizable, region_of, theory_of

PHASE_HEADER = ["theta_m", "theta_omega", "theory", "region", "potential",
                "normalizable", "excluded_corner"]


def _theta_m(i: int, last: int) -> float:
    """theta_m = pi*i/(r - 1) of grid row i, with ``last`` = r - 1."""
    return math.pi * i / last


def _theta_omega(d: int, last: int) -> float:
    """theta_omega = (pi/2)*(-d/(r - 1)) of grid diagonal d = i - j + r - 1;
    -d is an integer, so d = 0 gives +0.0, and d = r - 1 and 2(r - 1) give
    -pi/2 and -pi exactly."""
    return math.pi / 2 * (-d / last)


def _column_region(j: int, last: int) -> int:
    """The region of grid column j: that of its row-0 cell, where
    theta_m = 0 and s = 2*theta_omega."""
    return region_of(2 * _theta_omega(last - j, last))


def _phase_text(resolution: int, fmt: str) -> Iterator[str]:
    """Phase-diagram rows over the r x r angle lattice as CSV or JSON text,
    one piece per grid row.

    Points are ordered by theta_m (grid row i), then theta_omega ascending
    (grid column j).  On the lattice s = theta_m + 2*theta_omega is
    pi*(j - (r - 1))/(r - 1) and theta_m + theta_omega is
    (pi/2)*(i + j - (r - 1))/(r - 1), so the theory depends on the row
    alone, the region on the column alone (``_column_region``), and
    |theta_m + theta_omega| reaches pi/2 only at the corners (0, 0) and
    (r - 1, r - 1).  That holds while the lattice spacing pi/(2(r - 1))
    exceeds ANGLE_TOL plus the rounding of the angles, for r below ~1.5e9,
    far beyond any grid whose text fits in memory.  So the predicates of
    the phase rule run on the r rows, the r columns and the two corners.

    A row of the output is two pieces: a head for its grid row, which holds
    theta_m, and a cell, which holds theta_omega and the five labels.  Each
    (theory, region) class has one column of cells, indexed by
    e = j - i + r - 1 (the diagonal reversed), so the cells of a grid row
    are one slice of a column per run of equal regions.  Every value is
    formatted once, and the text of a grid row is one join of its cells
    with its head.  Every classification runs before the first row is
    made, so an error leaves before any output.
    """
    last = resolution - 1

    def tail(theory, region, normalizable) -> str:
        labels = {"theory": theory.value, "region": region,
                  "potential": POTENTIAL_TABLE[theory][region].value,
                  "normalizable": normalizable,
                  "excluded_corner": not normalizable}
        if fmt == "csv":
            # CSV cells are the JSON scalars without string quotes
            return "," + ",".join(json_dumps(v).strip('"')
                                  for v in labels.values()) + "\n"
        # the record after its two angles, in json_dumps' layout for a
        # record nested one level deep
        return ",\n" + json_dumps(labels, indent=2)[2:]

    if fmt == "csv":
        first, sep, end = ",".join(PHASE_HEADER) + "\n", "", ""
        head = "{},".format
    else:
        first, sep, end = "[\n", ",\n", "\n]\n"
        head = '  {{\n    "theta_m": {},\n    "theta_omega": '.format
    theta_m = [_theta_m(i, last) for i in range(resolution)]
    theories = list(map(theory_of, theta_m))
    regions = [_column_region(j, last) for j in range(resolution)]
    runs, j1 = [], 0  # (first column, end column, region)
    for region, group in itertools.groupby(regions):
        j0, j1 = j1, j1 + len(list(group))
        runs.append((j0, j1, region))
    omega_text = [g17(_theta_omega(d, last)) for d in range(2 * last, -1, -1)]
    columns = {}
    for theory in dict.fromkeys(theories):
        for region in dict.fromkeys(regions):
            labels = tail(theory, region, True)
            columns[theory, region] = [w + labels for w in omega_text]

    # the corners, both on the diagonal d = e = r - 1
    corners = [omega_text[last] + tail(
        theories[i], regions[i],
        is_normalizable(theta_m[i] + _theta_omega(last, last)))
        for i in (0, last)]

    def rows() -> Iterator[str]:
        for i, (text, theory) in enumerate(zip(map(g17, theta_m), theories)):
            cells = []
            for j0, j1, region in runs:
                cells += columns[theory, region][j0 - i + last:j1 - i + last]
            if i == 0:
                cells[0] = corners[0]
            if i == last:
                cells[-1] = corners[1] + end
            head_text = sep + head(text)
            # no separator before the first row
            yield (first + head(text) if i == 0 else head_text) \
                + head_text.join(cells)

    return rows()


@subcommand("phase-diagram",
            Flag("grid", integer, "64", "Points per angle direction (>= 2).",
                 low=2),
            Flag("format", choice("csv", "json"), "csv", dest="fmt"),
            OUTPUT)
def command(grid, fmt, output):
    """Classify a uniform grid over the allowed angle parallelogram."""
    write_output(output, _phase_text(grid, fmt))

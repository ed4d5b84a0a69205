import cmath
import contextlib
import enum
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from helpers import (classify_phase_scalar, invoke, json_dumps_recursive,
                     phase_grid_former, splitmix64_uniform)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cxho
from cxho import (cmd_phase_diagram, dynamics, fock, maximize as mx,
                  wavefunctions)
from cxho.contour import rotated_path
from cxho._csvcells import csv_table
from cxho.cli import COMMANDS, get_command, main
from cxho.cmd_phase_diagram import PHASE_HEADER, _phase_text
from cxho.command import json_dumps, parse_complex
from cxho.errors import CoherentTailWarning, IllConditionedWarning
from cxho.params import is_normalizable, theory_of, validate

PI = math.pi


def _fresh_process(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process that imports cxho from this tree."""
    src = os.path.dirname(os.path.dirname(cxho.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_cli_import_does_not_load_scipy():
    out = _fresh_process(
        "-c", "import cxho.cli; import sys; print('scipy' in sys.modules)")
    assert out.returncode == 0
    assert out.stdout.strip() == b"False"


# sha256 of stdout, recorded from the per-point phase classifier, the
# per-time trajectory loop, the per-pair verify upper-bound loop and the
# per-cell CSV/JSON formatting; the vectorized code must reproduce them byte
# for byte.  The evolve, verify and wavefunction digests also depend on
# numpy's floating-point results, so a different numpy build may change
# them.  Of the evolve runs, omega 1-200i has a vanishing overlap at every
# time, and omega 1-137.955...i one just below the overlap guard
# (|amplitude| = 9.99999999999966e-301 by mpmath).  The other three evolve
# runs were recorded again when trajectory moved to the Heisenberg picture
# (one amplitude and three band sums per call): their t columns stayed byte
# for byte; every amplitude and weak-value cell moved by at most 1.8e-14
# relative, and differs from the per-time route by at most 0.003 of its
# rounding bound; 1-137.955...i now blanks all 401 rows, where the
# per-time route kept 39 by rounding.  The three verify runs were recorded again when S moved
# from a real-axis quadrature to the ladder recurrence and verify's ground
# overlaps to a narrower rule: only the metric_inverse, gram_head_entry and
# ground_dual_overlap defects moved, each staying below 3e-14.  They were
# recorded once more when the Fock operators moved to three stored
# diagonals: only ladder_commutator, herm_split_h, herm_split_a,
# weak_qp_closed_vs_matrix, h_herm_weak_value, classical_solution_q and
# ehrenfest_second_order moved, the first five by at most 4.3e-16,
# classical_solution_q (~1e-31) by one unit in the last place and
# ehrenfest_second_order by at most 4.5e-9 of its tolerance 0.4.  They were
# recorded again when the cross matrix moved to half of its mirror-symmetric
# rule, one product per parity block: only dual_normalization moved, by at
# most 4.4e-16.
REFERENCE_DIGESTS = {
    "phase-diagram --grid 2":
        "c8f18257021e552b3fc898a5ebd09f7711ba05500f000ce4918e1a43a51e9434",
    "phase-diagram --grid 2 --format json":
        "d22e0e5e721ca0136c383c5123086696e090bbb3124c8c8cfb06efd55f0c6cd8",
    "phase-diagram --grid 3":
        "b3b2a960de07febf65dd4332a9db2ed2523673a2eb56c9badfa81ffddc1b40de",
    "phase-diagram --grid 3 --format json":
        "920856ca228398a50fadb61782eaef6ef0f4af38fc2b12299c2699d3e8a45341",
    # grids 33 and up re-recorded when theta_omega moved to the exact angle
    # lattice, one value per grid diagonal: every label and theta_m cell
    # stayed byte for byte (grids 2 and 3 did not change at all)
    "phase-diagram --grid 33":
        "af95f2d9205ff089d99e047786bbfb5b8607dddccdbd063c839e1ce6c15a8244",
    "phase-diagram --grid 33 --format json":
        "c68886ea9c3b4b7f170adb810636953bab34e699b1d310c2eb28278825fefbb6",
    "phase-diagram --grid 64":
        "a71183463f60ce55f438c707476a109a9a1ff23668092885752151700e7fb810",
    "phase-diagram --grid 64 --format json":
        "3d31f8b49b532c3e975c53ec6bad068d8293a620995c4e251d66d4cea4dc703b",
    "phase-diagram --grid 201":
        "94f56973a09b73079519be064993be3da4469587904c5f0691e25241b675b783",
    "phase-diagram --grid 201 --format json":
        "8611a8e0ddea1862e01e42032af8eba689eacd74d6dc77fa700bf07f673c9b35",
    "evolve --lambda-a 1+0i --lambda-b 1+0i --omega 1-0.1i --steps 200":
        "d01ceaec51840da2f6e7919b9015efb193c98fb34ee99d7658f823dc01bac7a0",
    "evolve --m 0.9+0.3i --omega 1.1-0.3i --lambda-a 1+0.5i --lambda-b 0.3-0.7i "
    "--nmax 64 --steps 2000":
        "80a020175c44b5ea4fcf404bb34677bd518500db64b62af827b256c1fff2f8a2",
    "evolve --omega 1-200i --steps 4":
        "7827439fa728222a86f4428a4773f0b25b8e35065db6270db515df3760636ebe",
    "evolve --omega 1-137.95510557964275i --steps 400":
        "4f2dd518657e409e323a5866f2deda43cbdf05b85c978c2fc39f5c8afa2187d4",
    # shaped like the benchmark's evolve requests (complex m, omega and
    # labels, nmax 32 and 64, about 2000 steps); recorded while h_herm was
    # still one float cell per row
    "evolve --m -0.65+0.24i --omega -0.27-1.18i --lambda-a -0.97-0.53i "
    "--lambda-b 0.7-1.2i --nmax 32 --steps 1840":
        "e280d2d0414e2380ca3dcadee419fc8e34d7f3f611fc48118afd1288f3a16a61",
    "evolve --m 0.25+0.55i --omega 0.34-1.05i --lambda-a 1+0.1i "
    "--lambda-b -0.23-1.05i --nmax 64 --steps 1797":
        "af4b87a6a516d8a8d8b0af5b93c5894f60837907338f80a8ce1ef274fd318e46",
    "evolve --m -0.3+1.34i --omega 0.46-0.65i --lambda-a 0.8+0.44i "
    "--lambda-b 1.22+0.34i --nmax 64 --steps 2000":
        "bd2e60438e0546402c5e2763de405f4b2d8cdc57530ae0ce308f1ced14563f6f",
    "wavefunction --n 3 --omega 0.9-0.3i --points 801":
        "99319b74cd35bb6bef3c2141ea24c471acd07c933c1dbed9c8fe2d76a68e4c9f",
    # re-recorded for cxho's own Gauss-Legendre rule and the in-place cross
    # matrix: only dual_normalization, gram_head_entry and
    # ground_dual_overlap moved, and none changed between passed and failed.
    # Re-recorded when S and the metric moved to the closed-form triangular
    # factor: only metric_inverse moved (2.842e-14 to 2.923e-14 at
    # 0.866-0.5i, 3.3e-16 to 6.7e-16 at seed 7); at omega 1, S = I
    # exactly in both routes.  Re-recorded when S and the metric moved to
    # real blocks under the phase pattern i^(b - a): metric_inverse moved
    # (2.923e-14 to 3.367e-14 at 0.866-0.5i, 6.7e-16 to 8.9e-16 at seed 7),
    # and at seed 7 gram_head_entry too (4.4e-16 to 6.7e-16: S[0,0] =
    # (1/sqrt(cos theta))^(1/2) squared, in real arithmetic).  Re-recorded
    # when the seeded draws moved from numpy's default_rng to SplitMix64:
    # only the checks reading the maximizers moved, all passing in both,
    # classical_solution_q and _p from 5.003e-31 and 5.003e-31 to 2.794e-31
    # and 2.794e-31 at 0.866-0.5i, from 9.018e-40 and 7.287e-40 to
    # 8.260e-40 and 6.715e-40 at seed 7, and h_herm_weak_value from
    # 1.776e-15 to 7.054e-16 at omega 1.
    "verify --m 1+0i --omega 0.866-0.5i --nmax 12":
        "b0a67cae697883cf8aeab3bfdb9a78d9e7cce8c51b7a60b45d33f8bca4864e96",
    "verify --omega 1 --nmax 12":
        "8bbf26169e1a129680517bf2e00bc43f78d69f157461bad422b00d3c59790792",
    "verify --m 0.8+0.3i --omega 0.9-0.3i --nmax 16 --seed 7":
        "136dda8cc2a17a64c75c95c07f4faa848b4b585854e031cc59679ee624a75a5d",
    # recorded from the one-f-string-per-cell formatter, and again for the
    # angle lattice like the grids above
    "phase-diagram --grid 401":
        "01412ab88140ba7d8a6ecb8de79a9b48a018ff26033845d2bbe0a5c8976f18fd",
    "phase-diagram --grid 101 --format json":
        "eadaf7a36f084eb1587805d62fd557d8ea54076775a633b0fca304665bff85c8",
    # recorded from the per-row join of three zipped columns, and again for
    # the angle lattice
    "phase-diagram --grid 101":
        "e15328907a74d9e94be0537be3df90b3280968099edbcf956793f0fa7a3a2c29",
    # recorded from the recursive JSON writer: a damped, a real (degenerate),
    # a near-real (25 sweeps) and an underflowing (amplitude 0) omega.  The
    # first three were re-recorded when the seeded start moved from numpy's
    # default_rng to SplitMix64: a and b moved, by at most 3.1e-26 at
    # 1-0.2i and 2.6e-29 at 1-1e-7i, sweep counts (4, 25) and amplitudes
    # unchanged; at the real omega 1.2 the start is kept, so a, b and
    # ground_overlap moved (0.027733623062576943 to 0.23958171687116273).
    "maximize --omega 1-0.2i --T 10":
        "d70ca07c5b62ab20eeff9e72b035a72d5aa32793a1dce4138a48cde7b43fb011",
    "maximize --omega 1.2 --T 10":
        "9c869e9cf6af6210a7860a48e9610001fe2a2a753c11ff875f55bc18b8743f68",
    "maximize --omega 1-1e-7i --T 10":
        "29ffa39aa976f22ff7e7fc0f18a379d37f6fab292fb2aed4d0b1048825f2a3f4",
    "maximize --omega 1-200i --T 10":
        "7b861903c12d2e6ad3699753afb1425ecb443d4672cb6ee5c502d4feed7f5df8",
}

#: Reports of runs that exit 3, recorded like REFERENCE_DIGESTS; plain
#: ``verify`` fails dual_normalization at its default nmax 32 (re-recorded
#: like the verify entries above; for the closed-form metric only
#: metric_inverse moved, from 2.2e-16 to 0: omega 1 gives S = I exactly;
#: for the SplitMix64 draws only h_herm_weak_value moved, from 1.776e-15 to
#: 7.054e-16, passing in both).
FAILING_REPORT_DIGESTS = {
    "verify":
        "1ff10241e5a61f3d267204bc7d3105691bfcd73b136b824c99b533b3d6073e69",
}


@pytest.mark.parametrize("command", sorted(REFERENCE_DIGESTS))
def test_output_matches_reference_digest(command):
    result = invoke(command.split())
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert digest == REFERENCE_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(FAILING_REPORT_DIGESTS))
def test_failing_report_matches_reference_digest(command):
    result = invoke(command.split())
    assert result.exit_code == 3
    digest = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert digest == FAILING_REPORT_DIGESTS[command]


#: sha256 of b"<exit code>\0<stdout>\0<stderr>" of ``cxho <args>`` at an
#: 80-column terminal: the help of the group and of each command, an
#: unknown command, and a misspelt one, which is answered with the closest
#: command name.  Recorded again when the flags moved from click to
#: argparse, whose help and usage errors read differently.
CLI_SURFACE_DIGESTS = {
    "--help":
        "7dadaa608e4fc9eb3d209af4c4b3e606517ad20df1af121878117c2e4ef1f346",
    "phase-diagram --help":
        "6bec25060b663b4532f0cf2677501c7b56cf19dcd3ce33784920d673e3d940c1",
    "verify --help":
        "c8d0873a11a906d01e8c8db5b0f37e66833a80bb0691c5cb0aa2cf6bc04b8c2d",
    "maximize --help":
        "9edbe6a406d11d8ac83721103687ee9b4d7a9a0825da16a6929a330b71a00d2f",
    "evolve --help":
        "081556c789d514d4bc5a70ed8bf2c0c6af5c2b5687ad98c0554b47b2c08673ff",
    "wavefunction --help":
        "0bf113e186fc06bb5f564b3786276ee36a3f4b1a8748b3f1ff9e50a6b3721a17",
    "nosuch":
        "ee540f05aa6aa24c56dd8e465fb1a263c4bfdaa80502c4a1a6024dce15040d88",
    "verfy":
        "b0406046b9f8f220b5daa76d0ddce3de61bb09d25fcf97cd35ab06e57a8ba55a",
}


@pytest.mark.parametrize("args", sorted(CLI_SURFACE_DIGESTS))
def test_cli_surface_matches_reference_digest(monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")  # argparse's help width
    result = invoke(args.split())
    text = b"%d\0%s\0%s" % (result.exit_code, result.stdout_bytes,
                            result.stderr_bytes)
    assert hashlib.sha256(text).hexdigest() == CLI_SURFACE_DIGESTS[args]


# signed zeros, infinities, NaNs with other payloads and subnormals, which
# a formatter keyed on float values rather than bits would merge or split
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  *np.array([0x7FF0_0000_0000_0001, -1], dtype=np.int64)
                  .view(np.float64).tolist(),
                  5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -1.0]


class _Level(enum.IntEnum):
    TOP = 7


# text that a %-format, a JSON escape or an ASCII encoder would change
JSON_TEXT = st.text(st.sampled_from(["%", "s", '"', "\\", "\n", "é", "λ",
                                     "\U0001d53b", "a", " "]), max_size=6)
JSON_LEAVES = (
    st.sampled_from(SPECIAL_FLOATS) | st.floats() | st.integers() | st.booleans()
    | st.none() | JSON_TEXT | st.complex_numbers()
    | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.complex_numbers().map(np.complex128) | st.booleans().map(np.bool_)
    | JSON_TEXT.map(np.str_) | st.just(_Level.TOP)
    | st.sampled_from([set(), object()]))


@st.composite
def json_records(draw, values):
    """A list of dicts whose keys are one list of names, or (mixed) that
    list permuted, cut short or extended by a name in some of them."""
    names = draw(st.lists(JSON_TEXT, min_size=1, max_size=4, unique=True))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        keys = list(names)
        if records and draw(st.booleans()):
            keys = draw(st.permutations(keys))[:draw(st.integers(0, len(keys)))]
            keys += draw(st.lists(JSON_TEXT, max_size=1))
        records.append({k: draw(values) for k in keys})
    return records


JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(JSON_TEXT | st.integers(), children,
                                        max_size=4)
                      | json_records(children)),
    max_leaves=24)


@example(tree=[{"%s": 1.0}, {"%s": 2.0}])
@example(tree=[{"a": 1, "b": 2}, {"b": 3, "a": 4}])
@example(tree=[{"a": 1, "b": 2}, {"a": 3}])
@example(tree=[{1: None}, {"1": None}, {1.0: None}])
@example(tree={"x": [], "y": {}, "z": [[], {}], "w": [0.5, 1 - 2j]})
@given(tree=JSON_TREES)
def testjson_dumps_matches_recursive_writer(tree):
    try:
        expected = json_dumps_recursive(tree)
    except (TypeError, ValueError) as exc:
        # an unserializable leaf, or a nan or infinity
        with pytest.raises(type(exc)):
            json_dumps(tree)
        return
    assert json_dumps(tree) == expected
    for indent in (2, 6):
        assert json_dumps(tree, indent) == json_dumps_recursive(tree, indent)


# text cells: a constant, an empty one, ones a %-format would read, evolve's
# status for a vanishing overlap and one that is not ASCII
CSV_TEXT_CELLS = ["ok", "", "100%", "%s%%d", "vanishing_overlap",
                  "\u03bb\u00e9\U0001d53b"]

# 1000000000000000.25 is a decimal tie at 17 digits (half to even gives
# ...0.2); 1e-07 is 9.99...95e-08, below the power of ten its log10 names
FORMAT_EDGES = [1000000000000000.25, 1e-07, 0.01, -2.5e-05, 0.0, 3.14]


# rows in several chunks, every column kind, the edges in every chunk
@example(pool=FORMAT_EDGES, picks=list(range(6)) * 160, step=1,
         kinds=list(range(5 + len(CSV_TEXT_CELLS))))
# evolve's rows where the overlap vanishes: one float column, the rest text
@example(pool=FORMAT_EDGES[:2], picks=[0, 1, 1], step=1,
         kinds=[6] * 12 + [9])
@given(pool=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                     min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=60),
       step=st.integers(1, 3),
       kinds=st.lists(st.integers(0, 4 + len(CSV_TEXT_CELLS)),
                      min_size=1, max_size=8))
def test_csv_table_matches_per_row_join(pool, picks, step, kinds):
    x = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64)
    z = np.empty(x.size, dtype=np.complex128)
    z.real, z.imag = x, x[::-1]
    # equal-length columns: strided views, a reversed one and a copy
    floats = [x[::step], z.real[::step], z.imag[::step], x[::-step],
              np.ascontiguousarray(z.imag[::step])]
    choices = floats + CSV_TEXT_CELLS
    columns = [floats[0], *(choices[k] for k in kinds)]
    header = [f"c{i}%" for i in range(len(columns))]
    cells = [[c] * floats[0].size if isinstance(c, str)
             else [f"{v:.17g}" for v in c.tolist()] for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells)), ""]
    # lines, so that a failure is reported without a diff of the texts
    assert "".join(csv_table(header, columns)).split("\n") == lines


def _float_of_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@st.composite
def decimal_ties(draw):
    """x with x*10^s exactly halfway between two 17-digit integers:
    q/2^(s + 1) with q odd, q*5^s in [2*10^16, 2*10^17) and q < 2^53."""
    s = draw(st.integers(1, 23))
    low = -(-2 * 10 ** 16 // 5 ** s)
    high = min((2 * 10 ** 17 - 1) // 5 ** s, 2 ** 53 - 1)
    q = 2 * draw(st.integers(low // 2, (high - 1) // 2)) + 1
    return draw(st.sampled_from([1, -1])) * q / 2 ** (s + 1)


@st.composite
def next_to_powers_of_ten(draw):
    """10^k, 1e-12 <= 10^k <= 1e17, or one ulp either side of it."""
    x = float(f"1e{draw(st.integers(-12, 17))}")
    return draw(st.sampled_from([x, math.nextafter(x, 0.0),
                                 math.nextafter(x, math.inf)]))


FORMAT_CASES = (
    st.integers(0, 2 ** 64 - 1).map(_float_of_bits)
    | decimal_ties()
    # the doubles nearest 18-digit decimals that end in 5
    | st.builds(lambda digits, k: float(f"{digits}5e-{k}"),
                st.integers(10 ** 16, 10 ** 17 - 1), st.integers(1, 40))
    | next_to_powers_of_ten()
    # 2^51 <= x < 2^52 needs no shift, and the formatter stops at 2^52
    | st.integers(2 ** 52, 2 ** 54).map(lambda i: i / 2)
    | st.sampled_from(SPECIAL_FLOATS))


@example(values=FORMAT_EDGES + [1e-11, math.nextafter(1e-11, 1.0),
                                2.0 ** 52, math.nextafter(2.0 ** 52, 0.0)])
@given(values=st.lists(FORMAT_CASES, min_size=1, max_size=30))
def test_csv_cells_match_per_value_format(values):
    lines = "".join(csv_table(["x"], [np.array(values)])).splitlines()
    assert lines[1:] == [f"{v:.17g}" for v in values]


def _lattice_point(resolution: int, i: int, j: int) -> tuple[float, float]:
    """(theta_m, theta_omega) of cell (i, j) of the phase-diagram lattice."""
    d = i - j + resolution - 1
    return math.pi * i / (resolution - 1), math.pi / 2 * (-d / (resolution - 1))


def _phase_text_per_row(resolution: int, fmt: str) -> str:
    """Phase-diagram text built record by record from each lattice point's
    labels under the scalar classifier.

    Every float goes through ``json_dumps``' one-value formatter and the
    JSON layout is ``json_dumps``' own for a list of records.
    """
    records = []
    for i in range(resolution):
        for j in range(resolution):
            theta_m, theta_omega = _lattice_point(resolution, i, j)
            c = classify_phase_scalar(theta_m, theta_omega)
            records.append({"theta_m": theta_m, "theta_omega": theta_omega,
                            "theory": c.theory.value, "region": c.region,
                            "potential": c.potential.value,
                            "normalizable": c.normalizable,
                            "excluded_corner": c.excluded_corner})
    if fmt == "json":
        return json_dumps(records) + "\n"
    rows = [",".join(json_dumps(v).strip('"') for v in record.values())
            for record in records]
    return "\n".join([",".join(PHASE_HEADER), *rows]) + "\n"


# Hand enumeration of the 3x3 grid: regions follow s = theta_m+2*theta_omega
# through {-pi, -pi/2, 0} in each row, theory follows theta_m, potential from
# the per-theory interpretation tables.
GRID3_EXPECTED = [
    (0.0, -PI / 2, "UTT", 5, "IHO", True),
    (0.0, -PI / 4, "UTT", 3, "FREE_IMAG", False),
    (0.0, 0.0, "UTT", 1, "HO", False),
    (PI / 2, -3 * PI / 4, "ITT", 5, "FREE_IMAG", False),
    (PI / 2, -PI / 2, "ITT", 3, "HO", False),
    (PI / 2, -PI / 4, "ITT", 1, "FREE_IMAG", False),
    (PI, -PI, "FTT", 5, "HO", False),
    (PI, -3 * PI / 4, "FTT", 3, "FREE_IMAG", False),
    (PI, -PI / 2, "FTT", 1, "IHO", True),
]


@st.composite
def lattice_cells(draw):
    """A grid size r up to 1e6 and cells (i, j) of its lattice, weighted to
    the corners and to the edge and middle rows and columns, where the
    labels change."""
    resolution = draw(st.integers(2, 10 ** 6)
                      | st.sampled_from((2, 3, 4, 5, 10 ** 6 - 1, 10 ** 6)))
    last = resolution - 1
    near_line = st.builds(lambda line, k: min(max(line + k, 0), last),
                          st.sampled_from((0, last // 2, (last + 1) // 2, last)),
                          st.integers(-2, 2))
    index = st.integers(0, last) | near_line
    cells = draw(st.lists(st.tuples(index, index)
                          | st.sampled_from(((0, 0), (last, last))),
                          min_size=1, max_size=20))
    return resolution, cells


class TestPhaseText:
    # the smallest grids hold only corners and edges, where one class may
    # occupy a single point
    @example(resolution=2, fmt="csv")
    @example(resolution=2, fmt="json")
    @example(resolution=3, fmt="json")
    @settings(max_examples=25)
    @given(resolution=st.integers(2, 120), fmt=st.sampled_from(["csv", "json"]))
    def test_matches_per_row_text(self, resolution, fmt):
        assert ("".join(_phase_text(resolution, fmt))
                == _phase_text_per_row(resolution, fmt))

    @pytest.mark.parametrize("resolution", [2, 5, 17, 33])
    def test_json_records(self, resolution):
        records = json.loads("".join(_phase_text(resolution, "json")))
        assert len(records) == resolution ** 2
        assert all(list(record) == PHASE_HEADER for record in records)
        assert [(r["theta_m"], r["theta_omega"]) for r in records] == [
            _lattice_point(resolution, i, j)
            for i in range(resolution) for j in range(resolution)]

    def test_grid_two_gives_corners(self):
        records = json.loads("".join(_phase_text(2, "json")))
        assert [(r["theta_m"], r["theta_omega"]) for r in records
                if r["excluded_corner"]] == [(0.0, -PI / 2), (PI, -PI / 2)]

    def test_grid_three_matches_hand_enumeration(self):
        records = json.loads("".join(_phase_text(3, "json")))
        assert len(records) == 9
        for record, (etm, etw, etheory, eregion, epot, eexcl) in zip(
                records, GRID3_EXPECTED):
            assert record["theta_m"] == pytest.approx(etm, abs=1e-15)
            assert record["theta_omega"] == pytest.approx(etw, abs=1e-15)
            assert (record["theory"], record["region"], record["potential"],
                    record["excluded_corner"]) == (etheory, eregion, epot, eexcl)

    def test_angles_on_the_exact_lattice(self):
        for resolution in range(2, 402):
            last = resolution - 1
            # theta_m is the former grid's, bit for bit
            theta_m = [cmd_phase_diagram._theta_m(i, last) for i in range(resolution)]
            assert theta_m == (math.pi * np.arange(resolution) / last).tolist()
            theta_omega = [cmd_phase_diagram._theta_omega(d, last) for d in range(2 * last + 1)]
            ends = [theta_omega[0], theta_omega[last], theta_omega[-1]]
            assert ends == [0.0, -PI / 2, -PI]
            assert math.copysign(1.0, ends[0]) == 1.0
            with mpmath.workdps(40):
                errors = [float(abs(x + mpmath.pi / 2 * d / last))
                          for d, x in enumerate(theta_omega)]
            assert (np.array(errors)
                    <= 2 * np.spacing(np.abs(theta_omega))).all(), resolution

    def test_labels_are_the_former_grids(self):
        # theta_m and every label cell are those of the former grid, whose
        # theta_omega was formed from each row's ends and classified in one
        # numpy pass
        for resolution in [*range(2, 140), 201, 257, 401]:
            text = "".join(_phase_text(resolution, "csv"))
            body = text[text.index("\n") + 1:-1].replace("\n", ",")
            cells = np.array(body.split(",")).reshape(-1, 7).T
            former = phase_grid_former(resolution)
            assert np.array_equal(cells[0].astype(float), former["theta_m"])
            for k, name in enumerate(PHASE_HEADER[2:], start=2):
                expected = former[name]
                if expected.dtype == bool:
                    expected = np.where(expected, "true", "false")
                assert np.array_equal(cells[k], expected.astype(str)), (
                    resolution, name)

    @given(lattice_cells())
    def test_lattice_labels_match_each_cell(self, grid):
        # the row, column and corner labels _phase_text builds the text
        # from, against the scalar classifier at each cell's own floats
        resolution, cells = grid
        last = resolution - 1
        corners = {(i, i): is_normalizable(cmd_phase_diagram._theta_m(i, last)
                                           + cmd_phase_diagram._theta_omega(last, last))
                   for i in (0, last)}
        for i, j in cells:
            expected = classify_phase_scalar(*_lattice_point(resolution, i, j))
            assert theory_of(cmd_phase_diagram._theta_m(i, last)) == expected.theory
            assert cmd_phase_diagram._column_region(j, last) == expected.region
            assert corners.get((i, j), True) == expected.normalizable

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_theta_omega_text_per_diagonal(self, fmt):
        # theta_omega has one text per grid diagonal
        result = invoke(["phase-diagram", "--grid", "201",
                                      "--format", fmt])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        if fmt == "csv":
            texts = [line.split(",")[1] for line in lines[1:]]
        else:
            texts = [line for line in lines
                     if line.startswith('    "theta_omega": ')]
        assert len(texts) == 201 ** 2
        assert len(set(texts)) == 2 * 201 - 1

    def test_json_text_peak_memory(self):
        # the columns of cells and one row at a time, never the whole text
        # (0.16 of it at grid 201)
        tracemalloc.start()
        try:
            size = sum(map(len, _phase_text(201, "json")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 4


class TestParseComplex:
    def test_full_literals(self):
        assert parse_complex("1+0i") == 1 + 0j
        assert parse_complex("0.866-0.5i") == 0.866 - 0.5j
        assert parse_complex("-1.2-0.5i") == -1.2 - 0.5j
        assert parse_complex("1e-3+2.5i") == 1e-3 + 2.5j
        assert parse_complex("2.5e2-1e-1i") == 250 - 0.1j

    def test_bare_real(self):
        assert parse_complex("2") == 2 + 0j
        assert parse_complex("-3.5e1") == -35 + 0j

    def test_rejects_malformed(self):
        for bad in ("", "abc", "i", "1+i", "1?2i"):
            with pytest.raises(ValueError):
                parse_complex(bad)


class TestPhaseDiagram:
    def test_grid_two_csv(self):
        result = invoke(["phase-diagram", "--grid", "2"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == ("theta_m,theta_omega,theory,region,potential,"
                            "normalizable,excluded_corner")
        assert len(lines) == 5
        assert sum("true" == line.split(",")[-1] for line in lines[1:]) == 2

    def test_json_record_count(self):
        result = invoke(["phase-diagram", "--grid", "11",
                                      "--format", "json"])
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert len(records) == 121
        assert records[0]["theory"] == "UTT"

    def test_invalid_grid(self):
        result = invoke(["phase-diagram", "--grid", "1"])
        assert result.exit_code == 2
        assert result.output == "error: grid must be >= 2, got 1\n"

    def test_byte_identical_reruns(self):
        args = ["phase-diagram", "--grid", "7", "--format", "json"]
        first = invoke(args)
        second = invoke(args)
        assert first.output == second.output

    def test_file_output(self, tmp_path):
        target = tmp_path / "grid.csv"
        result = invoke(["phase-diagram", "--grid", "3",
                                      "--output", str(target)])
        assert result.exit_code == 0
        assert target.read_text().count("\n") == 10

    def test_stdout_matches_file_output(self, tmp_path):
        target = tmp_path / "grid.json"
        args = ["-m", "cxho.cli", "phase-diagram", "--grid", "64", "--format",
                "json"]
        to_file = _fresh_process(*args, "--output", str(target))
        to_stdout = _fresh_process(*args)
        assert to_file.returncode == to_stdout.returncode == 0
        assert to_file.stdout == b""
        assert to_stdout.stdout == target.read_bytes()

    def test_io_error(self, tmp_path):
        target = tmp_path / "missing" / "grid.csv"
        result = invoke(["phase-diagram", "--grid", "2",
                                      "--output", str(target)])
        assert result.exit_code == 1


class TestVerify:
    def test_all_pass(self):
        result = invoke(["verify", "--m", "1+0i", "--omega",
                                      "0.866-0.5i", "--nmax", "10"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])
        assert {"name", "defect", "tolerance", "passed"} <= set(
            report["checks"][0])

    @pytest.mark.parametrize("omega", ["1+0i", "0.5+0i", "2+0i"])
    def test_real_frequency_passes(self, omega):
        # the degenerate maximizer's h_herm weak value is its expectation
        result = invoke(["verify", "--omega", omega, "--nmax", "12"])
        assert result.exit_code == 0, result.output
        [check] = [c for c in json.loads(result.stdout)["checks"]
                   if c["name"] == "h_herm_weak_value"]
        assert check["passed"] and check["tolerance"] == 1e-12

    @pytest.mark.parametrize("hbar", ["100", "1e-3"])
    def test_commutator_relative_to_hbar(self, hbar):
        # [q_herm, p_herm] - i*hbar carries rounding of size hbar; compared
        # relative to hbar, it passes at the default tolerance
        result = invoke(["verify", "--hbar", hbar, "--nmax", "12"])
        assert result.exit_code == 0, result.output
        [check] = [c for c in json.loads(result.stdout)["checks"]
                   if c["name"] == "ladder_commutator"]
        assert check["passed"] and check["tolerance"] == 1e-13

    def test_corner_rejected(self):
        result = invoke(["verify", "--omega", "0-1i"])
        assert result.exit_code == 2

    def test_unreachable_tolerance(self, tmp_path):
        target = tmp_path / "report.json"
        result = invoke([
            "verify", "--m", "1+0i", "--omega", "0.866-0.5i", "--nmax", "10",
            "--tol", "1e-30", "--output", str(target)])
        assert result.exit_code == 3
        report = json.loads(target.read_text())
        assert report["all_passed"] is False

    def test_hermite_overflow_named(self):
        result = invoke(["verify", "--m", "0.8+0.3i", "--omega",
                                      "0.9-0.3i", "--nmax", "128"])
        assert result.exit_code == 2
        assert result.stdout == ""
        [line] = [s for s in result.stderr.splitlines()
                  if s.startswith("error:")]
        assert "n_max = 128" in line and "Hermite" in line
        assert "overflow" in line and "SVD" not in line

    def test_ill_conditioned_gram_is_one_warning_line(self):
        # cond(S) at 60 degrees, nmax 64 is 3.9503e42 (mpmath); the metric
        # needs no factorization, so the warning is the one line
        out = _fresh_process("-m", "cxho.cli", "verify", "--omega",
                             "0.5-0.86602540378443865i", "--nmax", "64")
        assert out.returncode == 3
        assert out.stderr.decode().splitlines() == [
            "warning: Gram matrix condition number 3.950e+42 exceeds 1e+12"]
        failed = {c["name"] for c in json.loads(out.stdout)["checks"]
                  if not c["passed"]}
        assert {"metric_inverse", "metric_positivity"} <= failed

    def test_gram_step_factorizes_parity_blocks(self, monkeypatch):
        # S, the metric and the cross matrix split into even and odd levels:
        # at nmax 64 the Gram step makes one eigvalsh per real 32 x 32 block
        # of S and of the metric, and verify's metric_positivity reads the
        # smallest metric eigenvalue from it, with no decomposition of its
        # own; the metric needs no Cholesky factor, inverse or solve, and
        # the cross matrix's Hermite table is built on half of the 400-node
        # rule
        calls = {}

        def recorded(module, name):
            original = getattr(module, name)

            def record(*args, **kwargs):
                caller = sys._getframe(1).f_code.co_filename
                calls.setdefault(name, []).append(
                    (Path(caller).name,
                     [(np.shape(a), a.dtype) if isinstance(a, np.ndarray)
                      else a for a in args]))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

        rotated_path(0.0, 1.0)  # the shared 400-node rule, built once per process
        for name in ("eigvalsh", "cholesky", "solve", "inv"):
            recorded(np.linalg, name)
        recorded(cxho._kernels, "hermite_table")
        # wavefunctions binds the kernel by name at import
        monkeypatch.setattr(wavefunctions, "hermite_table",
                            cxho._kernels.hermite_table)
        result = invoke(["verify", "--m", "0.8+0.3i", "--omega",
                                      "0.9-0.3i", "--nmax", "64"])
        # exit 3: the default cross rule does not resolve level 63
        assert result.exit_code in (0, 3), result.output
        assert set(calls) == {"eigvalsh", "hermite_table"}
        assert calls["eigvalsh"] == [
            ("wavefunctions.py", [((32, 32), np.dtype(np.float64))])] * 4
        # the other table is gram_head_entry's level 0 on its own rule
        assert [args for _, args in calls["hermite_table"] if args[0] == 64] == [
            [64, ((200,), np.dtype(np.complex128))]]

    def test_dynamics_checks_build_few_state_vectors(self, monkeypatch):
        # the coherent pair is evolved to all twelve times as two arrays;
        # the boundary states, the closed form and the maximizers are
        # StateVecs (32 when every time built its own pair)
        built = []
        init = fock.StateVec.__init__

        def counted(self, coeffs):
            init(self, coeffs)
            built.append(np.shape(self.coeffs))

        monkeypatch.setattr(fock.StateVec, "__init__", counted)
        result = invoke(["verify", "--m", "1+0i", "--omega",
                                      "0.866-0.5i", "--nmax", "12"])
        assert result.exit_code == 0, result.output
        assert len(built) <= 8, built

    @pytest.mark.parametrize("args, stderr", [
        # the overlap underflows below the guard at t = 1.25
        (["--m", "0.3+0.9i", "--omega",
          "-166.45873461885697-363.7189707302727i", "--nmax", "4"],
         "error: |overlap| = 5.939e-317\n"),
        # it is 0 at t = 1.25, and amplitude_time_independence divides by
        # its value 0 at t = 0 first
        (["--omega", "1-800i", "--nmax", "2"],
         "warning: invalid value encountered in scalar divide\n"
         "error: |overlap| = 0.000e+00\n"),
        # Im(omega) > 0 inside the angle tolerance: the backward phases
        # overflow at t = 0 (two numpy warning lines came first before the
        # states were evolved as one batch)
        (["--omega", "1e12+400i", "--nmax", "2", "--eps", "1e-14",
          "--eps-prime", "1e-14"],
         "error: coeffs must be finite\n"),
    ])
    def test_dynamics_errors_keep_their_order(self, args, stderr):
        if "--eps" not in args:
            args = [*args, "--eps", "1e-9", "--eps-prime", "1e-9"]
        out = _fresh_process("-m", "cxho.cli", "verify", *args)
        assert out.returncode == 2
        assert out.stdout == b""
        assert out.stderr.decode() == stderr

    def test_gram_failure_builds_no_dense_fock_matrices(self, monkeypatch):
        sizes = []
        build = fock.build

        def recorded(params, n_max):
            sizes.append(n_max)
            return build(params, n_max)

        monkeypatch.setattr(fock, "build", recorded)
        result = invoke(["verify", "--m", "0.8+0.3i", "--omega",
                                      "0.9-0.3i", "--nmax", "128"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: Gram matrix at n_max = 128 is not finite: the Hermite "
            "polynomials overflow at the quadrature nodes\n")
        assert sizes == [2]  # the two-level run that looks for a Fock error

    @pytest.mark.parametrize("args", [
        ["--nmax", "128"],                 # the Gram step overflows
        ["--eps", "0.5", "--nmax", "2"],   # the Gram step needs nmax < 1/eps
    ])
    def test_fock_error_comes_before_a_gram_failure(self, args):
        # at cos(arg omega) = 0 the Fock checks fail, as they did when they
        # ran first
        result = invoke(["verify", "--m", "0+1i",
                                      "--omega", "0-1i", *args])
        assert result.exit_code == 2
        assert result.stderr == ("error: cos(arg omega) = 0: Hermitian-part "
                                 "scales undefined at the corners\n")

    def test_hermite_overflow_is_one_line(self):
        # a fresh process shows every warning once; the overflow is reported
        # by the error line alone
        out = _fresh_process("-m", "cxho.cli", "verify", "--m", "0.8+0.3i",
                             "--omega", "0.9-0.3i", "--nmax", "128")
        assert out.returncode == 2
        assert out.stdout == b""
        [line] = out.stderr.decode().splitlines()
        assert line.startswith("error:")

    @pytest.mark.filterwarnings("ignore::cxho.errors.IllConditionedWarning")
    @pytest.mark.parametrize("theta", [1.45, 1.5, 1.52, 1.539, -1.539, -1.45, -1.56])
    @pytest.mark.parametrize("r_m, r_omega", [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0)])
    def test_ground_overlaps_pass_at_edge_points(self, theta, r_m, r_omega):
        # the dual overlap's chirp exp(-i Im(m*omega) q^2/hbar) needs more
        # quadrature panels as |arg(m*omega)| nears pi/2
        m = r_m * cmath.exp(1j * max(2 * theta, 0.0))
        omega = r_omega * cmath.exp(-1j * abs(theta))
        literal = "{0.real:.17g}{0.imag:+.17g}i".format
        result = invoke(["verify", "--m", literal(m),
                                      "--omega", literal(omega), "--nmax", "8"])
        assert result.exit_code in (0, 3), result.output
        checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
        assert checks["ground_dual_overlap"]["passed"]
        assert checks["gram_head_entry"]["passed"]

    def test_gram_head_entry_is_independent_of_s(self, monkeypatch):
        # S[0, 0] is |R[0, 0]|^2; the check integrates |psi_0|^2
        triangular_factor = wavefunctions._triangular_factor

        def perturbed(g, h, levels):
            factor = triangular_factor(g, h, levels)
            factor[0, 0] *= 1 + 1e-6
            return factor

        monkeypatch.setattr(wavefunctions, "_triangular_factor", perturbed)
        result = invoke(["verify", "--m", "1+0i", "--omega",
                                      "0.866-0.5i", "--nmax", "10"])
        assert result.exit_code == 3
        [check] = [c for c in json.loads(result.stdout)["checks"]
                   if c["name"] == "gram_head_entry"]
        assert not check["passed"] and check["defect"] > 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_unit_pairs_match_per_pair_draws(self, seed):
        # 4 * 200 runs of 8 SplitMix64 draws, each vector over np.linalg.norm
        draws = iter(splitmix64_uniform(seed, 200 * 4 * 8))
        units = mx.unit_pairs(seed, 200, 8)
        for a, b in units:
            for unit in (a, b):
                re, im = ([next(draws) for _ in range(8)] for _ in range(2))
                v = np.array(re) + 1j * np.array(im)
                assert np.array_equal(unit, v / np.linalg.norm(v))

    def test_upper_bound_bites(self, monkeypatch):
        # real omega: random pairs reach well past half the maximum 1
        maximize = mx.maximize

        def halved(*args, **kwargs):
            result = maximize(*args, **kwargs)
            return result._replace(analytic_max=result.analytic_max / 2)

        monkeypatch.setattr(mx, "maximize", halved)
        result = invoke(["verify", "--omega", "1", "--nmax", "8"])
        assert result.exit_code == 3
        [check] = [c for c in json.loads(result.stdout)["checks"]
                   if c["name"] == "amplitude_upper_bound"]
        assert not check["passed"] and check["defect"] > 0.1

    def test_upper_bound_in_one_batch(self, monkeypatch):
        calls = []
        amplitudes = mx.amplitudes

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return amplitudes(*args, **kwargs)

        monkeypatch.setattr(mx, "amplitudes", counted)
        result = invoke(["verify", "--m", "1+0i", "--omega",
                                      "0.866-0.5i", "--nmax", "10"])
        assert result.exit_code == 0
        assert calls == [(200, 8)]

    def test_strongly_damped_maximize_checks(self):
        # the Gram checks fail this far out (exit 3); the maximizer's do not
        with pytest.warns(IllConditionedWarning, match="condition number"):
            result = invoke(["verify", "--omega", "1-200i", "--eps",
                                          "1e-6", "--eps-prime", "1e-6"])
        assert result.exit_code == 3, result.output
        passed = {c["name"]: c["passed"]
                  for c in json.loads(result.stdout)["checks"]}
        assert all(passed[name] for name in (
            "maximize_matches_analytic", "amplitude_upper_bound",
            "h_herm_weak_value", "maximize_ground_overlap",
            "classical_solution_q", "classical_solution_p"))


class TestMaximize:
    def test_damped_run(self):
        result = invoke(["maximize", "--omega", "1-0.2i",
                                      "--T", "10", "--nmax", "8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["amplitude_abs"] == pytest.approx(math.exp(-1), abs=1e-9)
        assert payload["ground_overlap"] > 1 - 1e-6
        assert payload["converged"] is True
        assert len(payload["a"]) == 8 and len(payload["b"]) == 8

    def test_reruns_identical(self):
        args = ["maximize", "--omega", "1-0.2i", "--T", "10", "--nmax", "8",
                "--seed", "4"]
        assert invoke(args).output == invoke(args).output

    @pytest.mark.parametrize("omega", ["1-1e-5i", "1-1e-7i"])
    def test_near_real_run(self, omega):
        result = invoke(["maximize", "--omega", omega])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert payload["converged"] is True
        assert payload["degenerate"] is False
        assert 1 - payload["ground_overlap"] <= 1e-6
        assert payload["amplitude_abs"] == pytest.approx(
            payload["analytic_max"], rel=1e-8, abs=0)

    @pytest.mark.parametrize("omega", ["1-80i", "1-200i"])
    def test_strongly_damped_run(self, omega):
        # exp(-i omega (n + 1/2) T) underflows at every level for 1-200i
        result = invoke(["maximize", "--omega", omega, "--T", "10",
                                      "--nmax", "8"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert payload["converged"] is True
        assert payload["ground_overlap"] == pytest.approx(1.0, abs=1e-12)
        assert payload["analytic_max"] == math.exp(5 * parse_complex(omega).imag)
        assert payload["amplitude_abs"] == pytest.approx(
            payload["analytic_max"], rel=1e-12, abs=0)


class TestEvolve:
    def test_amplitude_column_constant(self):
        result = invoke([
            "evolve", "--lambda-a", "1+0i", "--lambda-b", "1+0i",
            "--omega", "1+0i", "--m", "1+0i", "--steps", "100"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 102
        header = lines[0].split(",")
        i_re, i_im = header.index("amplitude_re"), header.index("amplitude_im")
        first = complex(float(lines[1].split(",")[i_re]),
                        float(lines[1].split(",")[i_im]))
        for line in lines[2:]:
            cells = line.split(",")
            amp = complex(float(cells[i_re]), float(cells[i_im]))
            assert abs(amp - first) <= 1e-12
            assert cells[-1] == "ok"

    def test_h_herm_cells_constant(self):
        # h_herm is diagonal, so its weak value is one text on every row
        result = invoke([
            "evolve", "--m", "0.25+0.55i", "--omega", "0.34-1.05i",
            "--lambda-a", "1+0.1i", "--lambda-b", "-0.23-1.05i",
            "--nmax", "64", "--steps", "50"])
        assert result.exit_code == 0
        header, *rows = [line.split(",")
                         for line in result.stdout.splitlines()]
        i_re, i_im = header.index("h_herm_re"), header.index("h_herm_im")
        assert len(rows) == 51
        assert {(row[i_re], row[i_im], row[-1]) for row in rows} == {
            (rows[0][i_re], rows[0][i_im], "ok")}
        assert float(rows[0][i_re]) != 0

    def test_tail_warning_is_one_line(self):
        out = _fresh_process("-m", "cxho.cli", "evolve", "--lambda-a", "8",
                             "--steps", "2", "--nmax", "32")
        assert out.returncode == 0
        assert out.stdout.count(b"\n") == 4
        assert out.stderr.decode().splitlines() == [
            "warning: coherent tail mass 1.000e+00 beyond level 31 exceeds "
            "1e-12; increase n_max to 129"]

    def test_tail_mass_warns_past_a_tiny_last_coefficient(self):
        # |f(31)| = 1.2e-64 is far below the bound, yet levels 0 .. 31 keep
        # a mass of only 1.2e-127
        out = _fresh_process("-m", "cxho.cli", "evolve", "--lambda-a", "20",
                             "--steps", "2")
        assert out.returncode == 0
        assert out.stderr.decode().splitlines() == [
            "warning: coherent tail mass 1.000e+00 beyond level 31 exceeds "
            "1e-12; increase n_max to 550"]

    def test_zero_kept_mass_is_one_line(self):
        # exp(-|lambda|^2 / 2) underflows, so every kept coefficient is 0
        out = _fresh_process("-m", "cxho.cli", "evolve", "--lambda-a", "40",
                             "--steps", "2")
        assert out.returncode == 2
        assert out.stdout == b""
        assert out.stderr.decode().splitlines() == [
            "error: coherent state lam = (40+0j) has no mass in double "
            "precision on its n_max = 32 kept levels"]

    def test_tail_warning_still_recorded(self):
        # the one-line text changes only how a warning is shown
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(["evolve", "--lambda-a", "8",
                                          "--steps", "2", "--nmax", "32"])
        assert result.exit_code == 0
        assert [w.category for w in caught] == [CoherentTailWarning]

    def test_config_error(self):
        result = invoke(["evolve", "--steps", "0"])
        assert result.exit_code == 2

    def test_nan_time_rejected(self):
        result = invoke(["evolve", "--t-a", "nan", "--steps", "3"])
        assert result.exit_code == 2
        assert "t-a and t-b must be finite, got nan and 10.0" in result.output

    @pytest.mark.parametrize("window", [["--t-b", "inf"], ["--t-a", "nan"]])
    def test_non_finite_window_is_one_line(self, window):
        # a fresh process shows every warning once
        out = _fresh_process("-m", "cxho.cli", "evolve", "--steps", "2", *window)
        assert out.returncode == 2
        assert out.stdout == b""
        [line] = out.stderr.decode().splitlines()
        assert line.startswith("error: t-a and t-b must be finite")

    def test_overflowing_phases_are_one_line(self):
        # a finite window whose level phases overflow; the finiteness check
        # reports it, not numpy's RuntimeWarnings
        out = _fresh_process("-m", "cxho.cli", "evolve", "--steps", "2",
                             "--t-a", "0", "--t-b", "1e308")
        assert out.returncode == 2
        assert out.stdout == b""
        assert out.stderr.decode().splitlines() == [
            "error: evolved states must be finite"]

    @pytest.mark.parametrize("args", [
        ["--m", "0.9+0.3i", "--omega", "1.1-0.3i", "--lambda-a", "1+0.5i",
         "--lambda-b", "0.3-0.7i", "--nmax", "64", "--steps", "5000"],
        # the overlap vanishes at every time
        ["--omega", "1-200i", "--steps", "400"],
    ], ids=" ".join)
    def test_matches_per_cell_text(self, args):
        result = invoke(["evolve", *args])
        assert result.exit_code == 0
        # lines, so that a failure is reported without a diff of the texts
        assert (result.stdout.split("\n")
                == _evolve_text_per_cell(args).split("\n"))


def _evolve_text_per_cell(args: list[str]) -> str:
    """evolve's CSV rebuilt from ``dynamics.trajectory``, one f-string per
    cell; ``args`` are evolve flags, the others at their defaults."""
    flags = {"--m": "1+0i", "--omega": "1+0i", "--lambda-a": "1+0i",
             "--lambda-b": "1+0i", "--nmax": "32", "--steps": "100",
             **dict(zip(args[::2], args[1::2]))}
    params = validate(parse_complex(flags["--m"]),
                      parse_complex(flags["--omega"]))
    nmax, steps = int(flags["--nmax"]), int(flags["--steps"])
    system = dynamics.TwoStateSystem(
        *(fock.coherent_coeffs(parse_complex(flags[name]), nmax).normalized()
          for name in ("--lambda-a", "--lambda-b")),
        0.0, 10.0, params, fock.build(params, nmax))
    times = np.linspace(0.0, 10.0, steps + 1)
    traj = dynamics.trajectory(system, times)
    fields = ("amplitude",) + dynamics.WEAK_VALUE_OPERATORS
    lines = [",".join(["t", *(f"{name}_{part}" for name in fields
                              for part in ("re", "im")), "status"])]
    kept = iter(range(len(traj)))
    for t, keep in zip(times.tolist(), traj.kept.tolist()):
        cells = [f"{t:.17g}"]
        if keep:
            i = next(kept)
            for name in fields:
                value = complex(getattr(traj, name)[i])
                cells += [f"{value.real:.17g}", f"{value.imag:.17g}"]
            cells.append("ok")
        else:
            cells += [""] * 12 + ["vanishing_overlap"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _no_unique(*args, **kwargs):
    raise AssertionError("np.unique: a sort of every cell")


def test_csv_commands_format_in_one_pass(monkeypatch):
    # evolve and wavefunction never sort their cells to format each
    # distinct value once
    monkeypatch.setattr(np, "unique", _no_unique)
    for args in (["evolve", "--steps", "3"],
                 ["evolve", "--omega", "1-200i", "--steps", "3"],
                 ["wavefunction", "--points", "3"]):
        result = invoke(args)
        assert result.exit_code == 0, result.output


class TestWavefunction:
    def test_ground_peak(self):
        result = invoke([
            "wavefunction", "--n", "0", "--m", "1+0i", "--omega", "1+0i",
            "--points", "3", "--half-width", "2"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        mid = lines[2].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[2]) == pytest.approx(math.pi ** -0.25, rel=1e-12)

    def test_validity_error(self):
        result = invoke([
            "wavefunction", "--n", "40", "--eps", "0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--n", "300", "--eps", "1e-4", "--points", "5"],
        ["--n", "150", "--points", "3"],
    ])
    def test_hermite_overflow_is_one_line(self, args):
        # H_n overflows at every sample (n 300) or at the two ends (n 150);
        # a fresh process shows every warning once
        out = _fresh_process("-m", "cxho.cli", "wavefunction", *args)
        assert out.returncode == 2
        assert out.stdout == b""
        [line] = out.stderr.decode().splitlines()
        assert line.startswith(f"error: level n = {args[1]} is not finite")
        assert "H_n overflows" in line

    @pytest.mark.parametrize("extra", [[], ["--half-width", "2"]])
    def test_negative_level(self, extra):
        result = invoke(["wavefunction", "--n", "-5", *extra])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: n must be nonnegative, got -5\n"


# a non-finite or out-of-range flag leaves as one error line naming it, and
# the flag's name ends the argument list
LOUD_FLAGS = [
    ["maximize", "--T", "nan"],
    ["maximize", "--T", "inf"],
    ["maximize", "--tol", "nan"],
    ["maximize", "--tol", "-1"],
    ["maximize", "--max-iters", "-5"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "-1"],
    ["wavefunction", "--half-width", "nan"],
    ["wavefunction", "--ray-angle", "nan"],
    ["wavefunction", "--n", "2", "--half-width", "inf"],
    ["wavefunction", "--half-width", "0"],
    ["wavefunction", "--half-width", "-1"],
    ["evolve", "--lambda-b", "inf+0i"],
    ["phase-diagram", "--grid", "1"],
    ["verify", "--nmax", "1"],
    ["maximize", "--nmax", "1"],
    ["evolve", "--nmax", "1"],
    ["verify", "--seed", "-1"],
    ["maximize", "--seed", "-1"],
    # a seed is one 64-bit SplitMix64 state
    ["verify", "--seed", str(2**64)],
    ["maximize", "--seed", str(2**64)],
]


@pytest.mark.parametrize("args", LOUD_FLAGS, ids=" ".join)
def test_bad_flag_is_one_error_line(args):
    # a fresh process shows every warning once
    out = _fresh_process("-m", "cxho.cli", *args)
    assert out.returncode == 2
    assert out.stdout == b""
    [line] = out.stderr.decode().splitlines()
    assert line.startswith(f"error: {args[-2][2:]}")


@pytest.mark.parametrize("args", [
    # (m omega / (pi hbar)) ** 0.25 in eigenfunction's prefactor
    ["wavefunction", "--hbar", "1e-320", "--points", "2"],
    # omega_herm ** 2 in fock.herm_split_defect
    ["verify", "--omega", "1e300", "--nmax", "4"],
    # m omega / hbar, which scales the cross matrix's quadrature nodes
    ["verify", "--hbar", "1e-320", "--nmax", "4"],
], ids=" ".join)
def test_numeric_overflow_is_one_error_line(args):
    out = _fresh_process("-m", "cxho.cli", *args)
    assert out.returncode == 2
    assert out.stdout == b""
    [line] = out.stderr.decode().splitlines()
    assert line.startswith("error: OverflowError: ")
    # the line names the parameter the overflow comes from, and its value
    assert f" {args[1][2:]} = " in line


#: sqrt of the largest double: the largest |label| whose square is finite
_LABEL_MAX = math.sqrt(sys.float_info.max)


OVERFLOWING_SPANS = [
    # t-b - t-a overflows, which linspace would turn into nan times
    (["evolve", "--steps", "3", "--t-a", "-1e308", "--t-b", "1e308"],
     "error: the time window t-b - t-a overflows: t-a = -1e+308 and "
     "t-b = 1e+308"),
    # abs(label) ** 2 in fock.coherent_coeffs
    (["evolve", "--steps", "3", "--lambda-a", "1e200+0i"],
     "error: |lambda-a|^2 overflows: lambda-a = (1e+200+0j)"),
    (["evolve", "--steps", "3", "--lambda-b",
      f"0-{math.nextafter(_LABEL_MAX, math.inf)!r}i"],
     "error: |lambda-b|^2 overflows: lambda-b = -1.3407807929942597e+154j"),
    # np.linspace forms 2*half-width
    (["wavefunction", "--points", "2", "--half-width", "1e308"],
     "error: half-width must be at most half the largest double, got 1e+308"),
    # the default half-width 12*sqrt(hbar*(n + 1)/|m*omega|)
    (["wavefunction", "--hbar", "1e308", "--n", "10", "--points", "3"],
     "error: half-width must be at most half the largest double, got inf"),
]


@pytest.mark.parametrize("args, line", OVERFLOWING_SPANS,
                         ids=[" ".join(args) for args, _ in OVERFLOWING_SPANS])
def test_overflowing_span_is_one_error_line(args, line):
    # -W error turns a warning before the line into a traceback
    out = _fresh_process("-W", "error", "-m", "cxho.cli", *args)
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr.decode().splitlines() == [line]


def test_largest_spans_still_run():
    half = sys.float_info.max / 2
    result = invoke(["wavefunction", "--points", "2",
                                  "--half-width", repr(half)])
    assert result.exit_code == 0, result.output
    # the largest label with a finite square passes the check and has no
    # mass in double precision, as the coherent state says
    result = invoke(["evolve", "--steps", "3", "--lambda-a",
                                  repr(_LABEL_MAX)])
    assert result.exit_code == 2
    assert "coherent state lam = " in result.output
    # the check is the overflow of abs(label) ** 2 itself
    assert _LABEL_MAX ** 2 < math.inf
    with pytest.raises(OverflowError):
        math.nextafter(_LABEL_MAX, math.inf) ** 2


@pytest.mark.parametrize("args", [
    # hbar/|m*omega| underflows to 0
    ["verify", "--m", "1e100+1e99i", "--hbar", "1e-100", "--omega",
     "5.403023058681397e+149-8.4147098480789648e+149i", "--nmax", "2",
     "--eps", "1e-9", "--eps-prime", "1e-9"],
    # hbar/|m*omega| overflows to inf
    ["verify", "--hbar", "1e300", "--m", "1e-10+0i", "--omega", "1e-10",
     "--nmax", "2"],
    ["wavefunction", "--hbar", "1e300", "--m", "1e-10+0i", "--omega",
     "1e-10", "--points", "3"],
], ids=" ".join)
def test_extreme_length_scale_is_one_error_line(args):
    # -W error turns a warning before the line into a traceback
    out = _fresh_process("-W", "error", "-m", "cxho.cli", *args)
    assert out.returncode == 2
    assert out.stdout == b""
    [line] = out.stderr.decode().splitlines()
    assert line.startswith("error: the length scale hbar/|m*omega| leaves "
                           "the double range: hbar = ")
    assert " and |m*omega| = " in line


@pytest.mark.parametrize("nmax", [12, None, 128])
def test_extreme_energy_scale_is_one_error_line(nmax):
    # hbar*|omega| is in range, h + h^dagger on verify's levels is not; the
    # run must stop before any array work, which would write nan and inf
    args = ["verify", "--hbar", "1e307"] + (["--nmax", str(nmax)] if nmax else [])
    out = _fresh_process("-W", "error", "-m", "cxho.cli", *args)
    assert out.returncode == 2
    assert out.stdout == b""
    [line] = out.stderr.decode().splitlines()
    assert line.startswith("error: the energy scale hbar*|omega| leaves the "
                           f"double range at nmax = {nmax or 32}: hbar = 1e+307 "
                           "and |omega| = 1.0 give ")


@pytest.mark.parametrize("args", [
    ["--T", "1e307", "--nmax", "32"],
    ["--omega", "1-0.1i", "--T", "1e308", "--nmax", "32"],
], ids=" ".join)
def test_extreme_kernel_exponent_is_one_error_line(args):
    # -W error turns a warning before the line into a traceback
    out = _fresh_process("-W", "error", "-m", "cxho.cli", "maximize", *args)
    assert out.returncode == 2
    assert out.stdout == b""
    [line] = out.stderr.decode().splitlines()
    assert line.startswith("error: the kernel exponent omega*(nmax - 1/2)*T "
                           "leaves the double range: T = ")
    assert " omega = " in line and " and nmax = 32 give " in line


def test_overflowing_log_weights_are_weight_zero_without_warnings():
    # 2T*Im(omega)*n overflows to -inf from n = 18 on, which is weight 0;
    # the kernel exponent itself is in range
    out = _fresh_process("-W", "error", "-m", "cxho.cli", "maximize",
                         "--omega", "1-1i", "--T", "5e306", "--nmax", "32")
    assert out.returncode == 0, out.stderr
    assert out.stderr == b""
    report = json.loads(out.stdout)
    assert report["converged"] and report["ground_overlap"] == 1


@pytest.mark.parametrize("args, square", [
    # p_herm^2 ~ hbar*|m*omega|*(n + 1/2) in herm_split_defect
    (["--m", "100", "--hbar", "3e305", "--nmax", "12"],
     "hbar*|m*omega|*(2n + 1) = inf on n = 40 levels"),
    # q^2 at the ground overlaps' half-width 6*sqrt(hbar/Re(m*omega))
    (["--m", "0.01", "--hbar", "1e305", "--nmax", "2"],
     "36*hbar/Re(m*omega) = inf"),
], ids=["momentum", "length"])
def test_extreme_square_scale_is_one_error_line(args, square):
    # -W error turns a warning before the line into a traceback
    out = _fresh_process("-W", "error", "-m", "cxho.cli", "verify", *args)
    assert out.returncode == 2
    assert out.stdout == b""
    [line] = out.stderr.decode().splitlines()
    assert line.startswith("error: the momentum and length squares leave the "
                           f"double range at nmax = {args[-1]}: hbar = "
                           f"{float(args[3])!r} and m*omega = "
                           f"{complex(float(args[1]))!r} give ")
    assert square in line


@pytest.mark.parametrize("value", [
    math.nan, -math.inf, np.float64(math.inf), np.float32(math.nan),
    complex(1.0, math.inf), np.complex128(complex(math.nan, 0.0))])
def testjson_dumps_rejects_non_finite_numbers(value):
    # JSON has no nan or inf token; a report never holds one bare
    for tree in (value, [value], {"checks": [{"defect": value}]}):
        with pytest.raises(ValueError, match="non-finite number"):
            json_dumps(tree)


@pytest.mark.parametrize("value, text", [
    (np.int64(-3), "-3"), (np.float32(0.1), "0.10000000149011612"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.complex128(1 - 2j), '{"re": 1, "im": -2}'),
    (np.bool_(True), "true"), (np.bool_(False), "false")])
def testjson_dumps_writes_numpy_scalars_as_python_values(value, text):
    # command imports no numpy and its leaf table has no numpy type: a numpy
    # scalar is written as the Python value it holds
    assert json_dumps(value) == json_dumps(value.item()) == text
    assert json_dumps({"x": [value]}) == '{\n  "x": [%s]\n}' % text


def test_explicit_width_needs_no_length_scale():
    # the scale is checked where a default width is built from it
    result = invoke(["wavefunction", "--hbar", "1e300", "--m",
                                  "1e-10+0i", "--omega", "1e-10", "--points",
                                  "3", "--half-width", "1"])
    assert result.exit_code == 0, result.output
    assert len(result.stdout.splitlines()) == 4


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: MemoryError\n"),
    (MemoryError("grid too large"), "error: MemoryError: grid too large\n"),
])
def test_memory_error_is_one_error_line(monkeypatch, error, line):
    def exhausted(resolution, fmt):
        raise error

    monkeypatch.setattr(cmd_phase_diagram, "_phase_text", exhausted)
    result = invoke(["phase-diagram", "--grid", "2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == line


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2, "format": "csv"}))
        result = invoke(["phase-diagram", "--config", str(cfg)])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 5

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2}))
        result = invoke(["phase-diagram", "--grid", "3",
                                      "--config", str(cfg)])
        assert len(result.output.strip().split("\n")) == 10

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2, "bogus": 1}))
        result = invoke(["phase-diagram", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_complex_values_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": "1-0.2i", "T": 10.0, "nmax": 8}))
        result = invoke(["maximize", "--config", str(cfg)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["amplitude_abs"] == pytest.approx(math.exp(-1), abs=1e-9)

    def test_null_leaves_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"half_width": None, "points": 5}))
        result = invoke(["wavefunction", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert result.stdout == invoke(["wavefunction", "--points", "5"]).stdout

    @pytest.mark.parametrize("command, config", [
        ("maximize", {"T": 10, "duration": 5}),
        ("verify", {"eps_prime": 1e-3, "eps-prime": 1e-3}),
        ("phase-diagram", {"fmt": "csv", "format": "json"}),
    ], ids=lambda x: x if isinstance(x, str) else "-".join(x))
    def test_two_spellings_rejected(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = invoke([command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error:")
        assert all(repr(key) in line for key in config)


def readme_commands() -> list[list[str]]:
    """Argument lists of the ``cxho`` lines in README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("\n```", 1)[0].splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cxho ")]


README_COMMANDS = readme_commands()


def test_readme_covers_every_subcommand():
    assert sorted(args[0] for args in README_COMMANDS) == list(COMMANDS)


def _run_in_empty_dir(args):
    """Result of ``args`` run in a fresh directory, and the files it wrote."""
    with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
        result = invoke(args)
        files = {name: Path(name).read_bytes() for name in sorted(os.listdir())}
    return result, files


@pytest.mark.parametrize("args", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(args):
    result, _ = _run_in_empty_dir(args)
    assert result.exit_code == 0, result.output


def _config_for(args: list[str], spelling: str) -> dict:
    """The flags of ``args`` as a config object keyed by flag or parameter name.

    Values that read as JSON (numbers) are stored as JSON, the rest as text.
    """
    name_of = {"--" + flag.name: flag.dest
               for flag in get_command(args[0]).flags}
    config = {}
    for flag, text in zip(args[1::2], args[2::2]):
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        config[flag[2:] if spelling == "flag" else name_of[flag]] = value
    return config


@pytest.mark.parametrize("spelling", ["flag", "parameter"])
@pytest.mark.parametrize("args", README_COMMANDS, ids=" ".join)
def test_config_matches_flags(tmp_path, args, spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config_for(args, spelling)))
    by_flags, flag_files = _run_in_empty_dir(args)
    by_config, config_files = _run_in_empty_dir(
        [args[0], "--config", str(cfg)])
    assert by_config.exit_code == by_flags.exit_code == 0
    assert by_config.stdout_bytes == by_flags.stdout_bytes
    assert config_files == flag_files


# (command, config file text or None for a missing file, exit code, text the
# single error line must contain)
CONFIG_ERRORS = {
    "missing file": ("phase-diagram", None, 1, "cannot read config"),
    "invalid JSON": ("evolve", '{"steps": 3,}', 2, "is not valid JSON"),
    "non-object": ("verify", "[1, 2]", 2, "must hold a JSON object"),
    "bad value": ("maximize", '{"omega": "1?2i"}', 2,
                  "config field 'omega': "),
    "unknown key": ("wavefunction", '{"n": 1, "bogus": 1}', 2,
                    "unknown config field 'bogus'"),
    "repeated key": ("phase-diagram", '{"grid": 2, "grid": 3}', 2,
                     "config field 'grid' appears twice"),
    "value out of range": ("verify", '{"nmax": 1}', 2,
                           "nmax must be >= 2, got 1"),
    # a number or boolean is read as its JSON text, as a flag would be
    "fractional integer": ("phase-diagram", '{"grid": 2.9}', 2,
                           "config field 'grid': '2.9' is not a valid "
                           "integer"),
    "boolean integer": ("maximize", '{"seed": true}', 2,
                        "config field 'seed': 'true' is not a valid integer"),
    "float-text integer": ("maximize", '{"nmax": 12.0}', 2,
                           "config field 'nmax': '12.0' is not a valid "
                           "integer"),
    "boolean choice": ("phase-diagram", '{"format": false}', 2,
                       "config field 'format': "),
    "list value": ("phase-diagram", '{"grid": [2]}', 2,
                   "config field 'grid': '[2]' is not a valid integer"),
    "object value": ("maximize", '{"T": {"re": 1}}', 2,
                     "config field 'T': "),
}


def _config_path(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exit(tmp_path, case):
    command, text, code, message = CONFIG_ERRORS[case]
    result = invoke([command, "--config",
                                  _config_path(tmp_path, text)])
    assert result.exit_code == code
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_raises_system_exit(tmp_path, capsys, case):
    command, text, code, message = CONFIG_ERRORS[case]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", _config_path(tmp_path, text)],
             standalone_mode=False)
    assert exc.value.code == code
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line


#: Values that start with a dash, which argparse alone reads as flags: the
#: middle one is an ``evolve`` request of perfbench's two_state_mix plan
#: at seed 4242, with a text its stdout must hold
DASH_VALUES = [
    (["verify", "--m", "-1.2+0i", "--omega", "-0.9+0i", "--nmax", "12"],
     '"m": {"re": -1.2, "im": 0},\n  "omega": {"re": -0.90000000000000002,'),
    (["evolve", "--m", "-1.3575154375095408+1.1908862441668133i",
      "--omega", "-0.50246503126141728-0.33765001345135554i",
      "--lambda-a", "-0.9452083758083154-0.0038421908749025927i",
      "--lambda-b", "-0.26946362994782669+0.44008921452966365i",
      "--nmax", "32", "--steps", "1662"], "\n0.0060168471720818293,"),
    (["evolve", "--t-a", "-5", "--steps", "3"], "\n-5,"),
]


@pytest.mark.parametrize("args, text", DASH_VALUES,
                         ids=["verify", "evolve-plan", "t-a"])
def test_dash_leading_value_is_a_value(args, text):
    separate = invoke(args)
    joined = invoke([args[0], *map("=".join, zip(args[1::2], args[2::2]))])
    assert separate.exit_code == joined.exit_code == 0, separate.output
    assert separate.stdout_bytes == joined.stdout_bytes
    assert text in separate.stdout


USAGE_ERRORS = {"prefix": ["verify", "--ome", "1"], "no value": ["verify", "--m"],
                "no command": []}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_2(args):
    result = invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize("args", [*USAGE_ERRORS.values(), ["nosuch"],
                                  ["verify", "--nmax", "x"], ["verify", "x"]],
                         ids=[*USAGE_ERRORS, "command", "value", "extra"])
def test_usage_error_is_one_error_line(args):
    result = invoke(args)
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ")


def test_keyboard_interrupt_is_aborted(monkeypatch):
    def interrupted(resolution, fmt):
        raise KeyboardInterrupt

    monkeypatch.setattr(cmd_phase_diagram, "_phase_text", interrupted)
    result = invoke(["phase-diagram", "--grid", "2"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "\nAborted!\n"


@pytest.mark.parametrize("args", [
    ["phase-diagram", "--grid", "101", "--format", "json"],
    ["evolve", "--steps", "2000"],
    ["wavefunction", "--points", "4001"],
], ids=lambda args: args[0])
def test_closed_stdout_exits_1_silently(args):
    # the reader leaves after 100 bytes of an output far larger than a pipe
    # holds; phase-diagram writes row by row, so the write fails
    src = os.path.dirname(os.path.dirname(cxho.__file__))
    with subprocess.Popen([sys.executable, "-m", "cxho.cli", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == b""


_MODEL_DEFAULTS = {"m": "1+0i", "omega": "1+0i", "hbar": "1.0",
                   "eps": "0.001", "eps-prime": "0.001"}

#: Each command's flags and the default its --help names (None: none)
FLAG_DEFAULTS = {
    "phase-diagram": {"grid": "64", "format": "csv", "output": "-"},
    "verify": {**_MODEL_DEFAULTS, "nmax": "32", "tol": None, "seed": "0",
               "output": "-"},
    "maximize": {**_MODEL_DEFAULTS, "T": "10.0", "nmax": "32", "tol": "1e-10",
                 "max-iters": "10000", "seed": "0", "output": "-"},
    "evolve": {**_MODEL_DEFAULTS, "lambda-a": "1+0i", "lambda-b": "1+0i",
               "t-a": "0.0", "t-b": "10.0", "steps": "100", "nmax": "32",
               "output": "-"},
    "wavefunction": {**_MODEL_DEFAULTS, "n": "0", "basis": "1",
                     "ray-angle": "0.0", "half-width": None, "points": "401",
                     "output": "-"},
}


@pytest.mark.parametrize("name", COMMANDS)
def test_help_names_every_flag_and_its_default(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "200")  # one line per flag
    result = invoke([name, "--help"])
    assert result.exit_code == 0
    shown = {line.split()[0][2:]: line
             for line in result.stdout.split("options:\n")[1].splitlines()}
    assert list(shown) == [*FLAG_DEFAULTS[name], "config", "help"]
    flags = get_command(name).flags
    for flag, (key, default) in zip(flags, FLAG_DEFAULTS[name].items()):
        assert flag.name == key
        if default is None:
            assert flag.default is None and "[default:" not in shown[key]
        else:
            assert shown[key].endswith(f" [default: {default}]")
            assert flag.default == flag.convert(default)

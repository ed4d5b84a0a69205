"""Command-line front end: grid scans, verification, trajectories, maximization.

Exit codes: 0 success, 1 I/O error, 2 configuration or validity error
(numeric overflow included), 3 verification failure.  All numeric output is
serialized with 17 significant digits and is byte-identical across reruns of
the same configuration and seed.  ``evolve`` and ``wavefunction`` write their
CSV cells with numpy integer arithmetic (``_csvcells.csv_table``), which
gives the bytes of ``'%.17g' % x`` for each value.

Only ``params`` and ``errors`` are imported with this module, and not
numpy; each command imports numpy, the numeric modules it uses and the CSV
writer when it runs, so ``phase-diagram``, which formats the exact angle
lattice with the stdlib alone, loads none of them, and ``verify``,
``maximize`` and ``phase-diagram`` do not load the CSV writer.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
import warnings

import click

from .errors import CxhoError
from .params import (POTENTIAL_TABLE, ModelParams, check_energy_scale,
                     check_length_scale, check_square_scales, is_normalizable,
                     region_of, theory_of, validate)

EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

PHASE_HEADER = ["theta_m", "theta_omega", "theory", "region", "potential",
                "normalizable", "excluded_corner"]


def parse_complex(text: str) -> complex:
    """Parse '<re>[+/-]<im>i' literals (decimal or scientific parts).

    A bare real literal is accepted as a real number.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        return complex(float(s))
    body = s[:-1]
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    if split < 0:
        raise ValueError(f"expected '<re>[+/-]<im>i', got {text!r}")
    return complex(float(body[:split]), float(body[split:]))


class ComplexParam(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            return parse_complex(str(value))
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


COMPLEX = ComplexParam()


#: '%.17g' % x is format(float(x), ".17g"): 17 significant digits
_fmt = "%.17g".__mod__


def _float_text(x) -> str:
    """``_fmt`` of a finite float; JSON has no token for nan or inf."""
    if not math.isfinite(x):
        raise ValueError(f"a report cannot hold the non-finite number {x!r}")
    return _fmt(x)


def _complex_text(z) -> str:
    if not cmath.isfinite(z):
        raise ValueError(f"a report cannot hold the non-finite number {z!r}")
    return '{"re": %.17g, "im": %.17g}' % (z.real, z.imag)


#: Leaf texts by type; the exact type is looked up first, then its bases.
_LEAF_TEXT = {type(None): lambda _: "null", bool: ("false", "true").__getitem__,
              int: int.__repr__, float: _float_text, complex: _complex_text,
              str: json.encoder.encode_basestring_ascii}


def _record(names: list[str], pad: str) -> str:
    """A dict's text at indent ``pad`` with a ``%s`` for each value."""
    return "{\n" + ",\n".join(f"{pad}  {json.dumps(name)}: ".replace("%", "%%")
                              + "%s" for name in names) + "\n" + pad + "}"


def _json_dumps(obj, indent: int = 0) -> str:
    """JSON text of a tree of dicts, lists, tuples and scalars, in one pass.

    A container holding a container has one item per line, indented two
    spaces a level; a list of scalars is one line.  Leaves are formatted
    through ``_LEAF_TEXT`` (complex as ``{"re": .., "im": ..}``); a nan or
    an infinity raises ValueError, never a bare token.  A dict is
    its ``_record`` template formatted once; a list of dicts with the first
    one's keys, in order, is that template repeated and formatted once.
    """
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    pad = " " * indent
    if isinstance(obj, dict):
        values = tuple(_json_dumps(v, indent + 2) for v in obj.values())
        return _record(list(map(str, obj)), pad) % values if obj else "{}"
    if not isinstance(obj, (list, tuple)):
        # a numpy scalar, which exists only once numpy is loaded, by its
        # Python value; subclasses of the Python scalars by their base
        numpy = sys.modules.get("numpy")
        value = obj.item() if numpy and isinstance(obj, numpy.generic) else obj
        for kind in type(value).__mro__:
            if kind in _LEAF_TEXT:
                return _LEAF_TEXT[kind](value)
        raise TypeError(f"cannot serialize {type(obj)!r}")
    if not obj:
        return "[]"
    names = list(map(str, obj[0])) if isinstance(obj[0], dict) else None
    if names and all(isinstance(r, dict) and list(map(str, r)) == names
                     for r in obj):
        item = pad + "  " + _record(names, pad + "  ")
        texts = tuple(_json_dumps(v, indent + 4) for r in obj for v in r.values())
        return "[\n" + ",\n".join([item] * len(obj)) % texts + "\n" + pad + "]"
    texts = [_json_dumps(v, indent + 2) for v in obj]
    if not any(isinstance(v, (dict, list, tuple)) for v in obj):
        return "[" + ", ".join(texts) + "]"
    return "[\n" + ",\n".join(pad + "  " + v for v in texts) + "\n" + pad + "]"


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


def _phase_text(resolution: int, fmt: str) -> str:
    """Phase-diagram rows over the r x r angle lattice as CSV or JSON text.

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
    formatted once, and the text is one join of a flat list of the 2r^2
    pieces.
    """
    last = resolution - 1

    def tail(theory, region, normalizable) -> str:
        labels = {"theory": theory.value, "region": region,
                  "potential": POTENTIAL_TABLE[theory][region].value,
                  "normalizable": normalizable,
                  "excluded_corner": not normalizable}
        if fmt == "csv":
            # CSV cells are the JSON scalars without string quotes
            return "," + ",".join(_json_dumps(v).strip('"')
                                  for v in labels.values()) + "\n"
        # the record after its two angles, in _json_dumps' layout for a
        # record nested one level deep
        return ",\n" + _json_dumps(labels, indent=2)[2:]

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
    omega_text = [_fmt(_theta_omega(d, last)) for d in range(2 * last, -1, -1)]
    columns = {}
    for theory in dict.fromkeys(theories):
        for region in dict.fromkeys(regions):
            labels = tail(theory, region, True)
            columns[theory, region] = [w + labels for w in omega_text]

    width = 2 * resolution
    pieces = [""] * (width * resolution)
    for i, (text, theory) in enumerate(zip(map(_fmt, theta_m), theories)):
        row = width * i
        pieces[row:row + width:2] = [sep + head(text)] * resolution
        for j0, j1, region in runs:
            pieces[row + 2 * j0 + 1:row + 2 * j1:2] = \
                columns[theory, region][j0 - i + last:j1 - i + last]
    pieces[0] = first + head(_fmt(theta_m[0]))  # no separator before it
    # the corners, both on the diagonal d = e = r - 1
    for i, k in ((0, 1), (last, -1)):
        pieces[k] = omega_text[last] + tail(
            theories[i], regions[i],
            is_normalizable(theta_m[i] + _theta_omega(last, last)))
    pieces[-1] += end
    return "".join(pieces)


def _write_output(path: str, text) -> None:
    """Write a text, or its pieces as an iterable makes them, to ``path``
    ("-" is stdout)."""
    pieces = [text] if isinstance(text, str) else text
    if path == "-":
        # not click.echo: on a non-tty it runs an ANSI-stripping regex over
        # the whole text, and this text never holds an escape sequence
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        click.echo(f"error: cannot write {path}: {exc}", err=True)
        sys.exit(EXIT_IO)


def _fail_config(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_CONFIG)


def _unique_pairs(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that rejects a key repeated in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            _fail_config(f"config field {key!r} appears twice")
        obj[key] = value
    return obj


def _load_config(ctx: click.Context, param: click.Parameter,
                 path: str | None) -> None:
    """Load a JSON config file into ``ctx.default_map``.

    Keys are parameter or flag names, dashes or underscores alike; a null
    leaves the default and flags given explicitly win; any other value but
    a string is read from its JSON text, as a flag would be.  Unknown keys,
    a repeated key and two keys naming one parameter are rejected.
    """
    if path is None:
        return
    try:
        with open(path) as fh:
            config = json.load(fh, object_pairs_hook=_unique_pairs)
    except OSError as exc:
        click.echo(f"error: cannot read config {path}: {exc}", err=True)
        sys.exit(EXIT_IO)
    except json.JSONDecodeError as exc:
        _fail_config(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        _fail_config(f"config {path} must hold a JSON object")
    by_key = {name.lstrip("-").replace("-", "_"): option
              for option in ctx.command.params if option.expose_value
              for name in [option.name, *option.opts]}
    default_map, key_of = {}, {}
    for key, raw in config.items():
        option = by_key.get(key.replace("-", "_"))
        if option is None:
            _fail_config(f"unknown config field {key!r}")
        if option.name in key_of:
            _fail_config(f"config fields {key_of[option.name]!r} and {key!r} "
                         f"both set {option.name!r}")
        key_of[option.name] = key
        if raw is not None:
            text = raw if isinstance(raw, str) else json.dumps(raw)
            try:
                default_map[option.name] = option.type.convert(text, option, ctx)
            except click.BadParameter as exc:
                _fail_config(f"config field {key!r}: {exc}")
    ctx.default_map = default_map


_config_option = click.option(
    "--config", type=click.Path(), is_eager=True, expose_value=False,
    callback=_load_config,
    help="JSON file mirroring the flags; flags override it.")


def _at_least(low: int):
    """Option callback: a value below ``low``, given or from ``--config``,
    exits 2 with one ``error:`` line naming the flag."""

    def check(ctx: click.Context, param: click.Parameter, value: int) -> int:
        if value < low:
            _fail_config(f"{param.opts[0][2:]} must be >= {low}, got {value}")
        return value

    return check


_nmax_option = click.option("--nmax", type=int, default=32, show_default=True,
                            callback=_at_least(2))
_seed_option = click.option("--seed", type=int, default=0, show_default=True,
                            callback=_at_least(0))


def _model_options(func):
    for option in reversed([
        click.option("--m", type=COMPLEX, default="1+0i", show_default=True,
                     help="Complex mass, '<re>[+/-]<im>i'."),
        click.option("--omega", type=COMPLEX, default="1+0i", show_default=True,
                     help="Complex angular frequency."),
        click.option("--hbar", type=float, default=1.0, show_default=True),
        click.option("--eps", type=float, default=1e-3, show_default=True,
                     help="Coordinate regulator."),
        click.option("--eps-prime", type=float, default=1e-3, show_default=True,
                     help="Momentum regulator."),
        _config_option,
    ]):
        func = option(func)
    return func


class _Group(click.Group):
    """Command group that turns the package's errors into exit code 2.

    A ``CxhoError`` or ``ValueError`` from any command leaves through
    ``_fail_config``, with one ``error:`` line, also when called with
    ``standalone_mode=False``; so does an ``ArithmeticError`` (a float
    overflow) or a ``MemoryError``, whose line names its type.  While a
    command runs, a warning it shows is one ``warning:`` line; a caller that
    records warnings still gets them.
    """

    def invoke(self, ctx: click.Context):
        previous, warnings.formatwarning = (
            warnings.formatwarning, lambda message, *_: f"warning: {message}\n")
        try:
            return super().invoke(ctx)
        except (CxhoError, ValueError) as exc:
            _fail_config(str(exc))
        except (ArithmeticError, MemoryError) as exc:
            _fail_config(f"{type(exc).__name__}: {exc}" if str(exc)
                         else type(exc).__name__)
        finally:
            warnings.formatwarning = previous


@click.group(cls=_Group)
def main():
    """Complex-mass, complex-frequency harmonic oscillator toolkit."""


@main.command("phase-diagram")
@click.option("--grid", type=int, default=64, show_default=True,
              callback=_at_least(2),
              help="Points per angle direction (>= 2).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--output", type=click.Path(), default="-", show_default=True)
@_config_option
def cmd_phase_diagram(grid, fmt, output):
    """Classify a uniform grid over the allowed angle parallelogram."""
    _write_output(output, _phase_text(grid, fmt))


def _verify_checks(params: ModelParams, n_max: int, seed: int,
                   tol_override: float | None) -> list[dict]:
    """Run the cross-module property suite; one record per check."""
    import numpy as np

    from . import dynamics, fock, maximize as mx, wavefunctions
    from .contour import rotated_path

    n_dyn = 40  # levels of the dynamics checks
    check_length_scale(params)  # which every width below is built from
    check_energy_scale(params, n_max, max(n_max, n_dyn))
    check_square_scales(params, n_max, max(n_max, n_dyn))
    checks = []

    def add(name, defect, tolerance):
        tolerance = tol_override if tol_override is not None else tolerance
        checks.append({"name": name, "defect": float(defect),
                       "tolerance": float(tolerance),
                       "passed": bool(defect <= tolerance)})

    # The Gram step runs before the Fock checks, whose records still come
    # first, so that where it fails (the Hermite overflow at nmax 128) the
    # Fock checks, 0.2-0.3 ms at nmax 128, do not run for nothing.
    try:
        gram = wavefunctions.gram_and_metric(params, n_max)
    except (CxhoError, ValueError, ArithmeticError):
        # The Fock checks can fail only in build and in herm_split_defect's
        # scalar scales, at any truncation; a two-level run raises their
        # error, which would have come first, where there is one.
        fock.herm_split_defect(fock.build(params, 2))
        raise
    rep = fock.build(params, n_max)
    add("ladder_commutator", fock.commutator_defect(rep), 1e-13)
    coords = np.array([rep.q_herm, rep.p_herm])
    add("coordinate_hermiticity",
        np.abs(coords - np.conj(coords[:, ::-1])).max(), 1e-13)
    q_defect, p_defect = fock.conjugation_defect(rep)
    add("conjugation_q", q_defect, 1e-14)
    add("conjugation_p", p_defect, 1e-14)
    add("lowering_adjoint_is_raising",
        np.abs(np.conj(rep.lowering[::-1]) - rep.raising).max(), 0.0)
    h_defect, a_defect, tan_defect = fock.herm_split_defect(rep)
    add("herm_split_h", h_defect, 1e-12)
    add("herm_split_a", a_defect, 1e-12)
    add("herm_split_tan", tan_defect, 1e-12)
    diag_target = (params.hbar * params.r_omega * math.cos(params.theta_omega)
                   * (np.arange(n_max) + 0.5))
    add("h_herm_diagonal", np.abs(rep.h_herm[1] - diag_target).max(), 1e-12)

    eye = np.eye(n_max)
    add("dual_normalization", np.abs(gram.cross - eye).max(), 1e-8)
    # per parity block: the entries at m + n odd are exact zeros
    blocks = wavefunctions.parity_blocks(gram.S, gram.Qmat)
    add("metric_inverse",
        max(np.abs(s @ q - np.eye(len(s))).max() for s, q in blocks), 1e-8)
    add("metric_positivity", max(0.0, -gram.metric_min_eigenvalue), 0.0)
    # Ground overlaps on [-half, half] of the real axis (tail e^-36), in
    # Gauss-Legendre panels: the chirp exp(-i Im(mw) q^2/hbar) reaches
    # 36|tan theta| rad at the ends, and each panel resolves 400 rad of it.
    mw = params.momega
    # 6 sqrt(hbar / Re(m omega)), from the checked length scale hbar/r:
    # hbar / Re(m omega) itself may overflow where cos theta is small
    half = 6.0 * math.sqrt(params.hbar / params.r) / math.sqrt(
        math.cos(params.theta))
    panels = min(64, 1 + int(36 * abs(mw.imag) / mw.real / 400))
    rule = rotated_path(0.0, half / panels)
    centers = half / panels * np.arange(1 - panels, panels, 2)
    q = (rule.nodes.real + centers[:, None]).ravel()
    weights = np.tile(rule.weights, panels)
    head = np.abs(wavefunctions.eigenfunction(1, 0, q, params)) ** 2
    add("gram_head_entry", abs(gram.S[0, 0] - np.dot(weights, head)), 1e-9)
    integrand = (np.conj(wavefunctions.ground_regulated(2, q, params))
                 * wavefunctions.ground_regulated(1, q, params))
    add("ground_dual_overlap", abs(np.dot(weights, integrand) - 1.0), 1e-10)

    rep_dyn = fock.build(params, n_dyn)
    lam_a, lam_b = 1.0, 0.6 + 0.2j
    duration, t = 4.0, 1.25
    system = dynamics.TwoStateSystem(
        fock.coherent_coeffs(lam_a, n_dyn), fock.coherent_coeffs(lam_b, n_dyn),
        0.0, duration, params, rep_dyn)
    # one batch: the amplitude at five times (not from trajectory, whose
    # amplitude is constant), weak values at t and for Ehrenfest at 1 -+ dt
    a, b = system.evolve([*np.linspace(0.0, duration, 5), t,
                          1.0 - 2e-2, 1.0, 1.0 + 2e-2, 1.0 - 1e-2, 1.0, 1.0 + 1e-2])
    amps = dynamics.overlaps(a[:5], b[:5])
    add("amplitude_time_independence",
        np.abs(amps - amps[0]).max() / abs(amps[0]), 1e-12)
    closed = dynamics.coherent_state_at(lam_a, 1.0, "A", n_dyn, params)
    # row 1 is a0 propagated to t = 1.0 from t_a = 0
    add("coherent_two_route", np.abs(closed.coeffs - a[1]).max(), 1e-10)
    qp = dynamics.weak_values(np.array([rep_dyn.q_op, rep_dyn.p_op]), a[5:], b[5:])
    q_closed, p_closed = dynamics.weak_qp_closed(
        dynamics.coherent_lambda(lam_a, t, "A", params),
        dynamics.coherent_lambda(lam_b, t - duration, "B", params), params)
    q_matrix, p_matrix = qp[0]
    add("weak_qp_closed_vs_matrix",
        max(abs(q_matrix - q_closed), abs(p_matrix - p_closed)), 1e-9)
    r_coarse = dynamics.ehrenfest_from_weak_values(qp[1:4], 2e-2, params)
    r_fine = dynamics.ehrenfest_from_weak_values(qp[4:], 1e-2, params)
    ratios = [abs(c) / abs(f) for c, f in zip(r_coarse, r_fine) if abs(f) > 0]
    add("ehrenfest_second_order",
        max(abs(r - 4.0) for r in ratios) if ratios else 0.0, 0.4)

    duration_max = 10.0
    result = mx.maximize(duration_max, params, 8, seed=seed)
    add("maximize_matches_analytic",
        abs(result.amplitude_abs - result.analytic_max), 1e-9)
    units = mx.unit_pairs(seed, 200, 8)
    amps = mx.amplitudes(units[:, 0], units[:, 1], duration_max, params)
    # np.hypot has the bits of abs(complex); np.abs does not
    worst = float((np.hypot(amps.real, amps.imag) - result.analytic_max).max())
    add("amplitude_upper_bound", max(0.0, worst), 1e-12)
    rep8 = fock.build(params, 8)
    q_wv, p_wv, h_wv = mx.max_weak_values(result, rep8)
    if result.degenerate:
        # D is unitary and b is proportional to D a, so the weak value is
        # the expectation in a: real and inside the spectrum of h_herm, its
        # real diagonal
        a, eigs = result.a.coeffs, rep8.h_herm[1].real
        expectation = np.vdot(a, eigs * a) / np.vdot(a, a)
        h_defect = (abs(h_wv - expectation) + abs(h_wv.imag)
                    + max(0.0, eigs.min() - h_wv.real, h_wv.real - eigs.max()))
    else:
        h_defect = abs(h_wv - params.hbar * params.r_omega
                       * math.cos(params.theta_omega) / 2)
    add("h_herm_weak_value", h_defect, 1e-12)
    if not result.degenerate:
        add("maximize_ground_overlap", 1.0 - result.ground_overlap, 1e-6)
        add("classical_solution_q", abs(q_wv), 1e-10)
        add("classical_solution_p", abs(p_wv), 1e-10)
    return checks


@main.command("verify")
@_model_options
@_nmax_option
@click.option("--tol", type=float, default=None,
              help="Override every per-check tolerance.")
@_seed_option
@click.option("--output", type=click.Path(), default="-", show_default=True)
def cmd_verify(m, omega, hbar, eps, eps_prime, nmax, tol, seed, output):
    """Run the cross-module property suite and report defects."""
    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    # written so that a NaN tolerance fails it
    if tol is not None and not 0 <= tol < math.inf:
        _fail_config(f"tol must be finite and nonnegative, got {tol!r}")
    checks = _verify_checks(params, nmax, seed, tol)
    report = {
        "m": params.m, "omega": params.omega, "hbar": params.hbar,
        "eps": params.eps, "eps_prime": params.eps_prime,
        "nmax": nmax, "seed": seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    _write_output(output, _json_dumps(report) + "\n")
    if not report["all_passed"]:
        sys.exit(EXIT_VERIFY)


@main.command("maximize")
@_model_options
@click.option("--T", "duration", type=float, default=10.0, show_default=True,
              help="Time span between the boundary states.")
@_nmax_option
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iters", type=int, default=10000, show_default=True,
              callback=_at_least(1))
@_seed_option
@click.option("--output", type=click.Path(), default="-", show_default=True)
def cmd_maximize(m, omega, hbar, eps, eps_prime, duration, nmax, tol,
                 max_iters, seed, output):
    """Maximize the transition amplitude over boundary states."""
    from . import maximize as mx

    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    # each test is written so that a NaN fails it
    if not 0 < duration < math.inf:
        _fail_config(f"T must be finite and positive, got {duration!r}")
    if not 0 < tol < math.inf:
        _fail_config(f"tol must be finite and positive, got {tol!r}")
    result = mx.maximize(duration, params, nmax, tol=tol, max_iters=max_iters,
                         seed=seed)
    payload = {
        "duration": result.duration,
        "amplitude_abs": result.amplitude_abs,
        "analytic_max": result.analytic_max,
        "ground_overlap": result.ground_overlap,
        "degenerate": result.degenerate,
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": result.seed,
        "a": result.a.coeffs.tolist(),
        "b": result.b.coeffs.tolist(),
    }
    _write_output(output, _json_dumps(payload) + "\n")


@main.command("evolve")
@_model_options
@click.option("--lambda-a", type=COMPLEX, default="1+0i", show_default=True,
              help="Coherent label of the initial state.")
@click.option("--lambda-b", type=COMPLEX, default="1+0i", show_default=True,
              help="Coherent label of the final state.")
@click.option("--t-a", type=float, default=0.0, show_default=True)
@click.option("--t-b", type=float, default=10.0, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True,
              callback=_at_least(1),
              help="Number of grid intervals between t-a and t-b.")
@_nmax_option
@click.option("--output", type=click.Path(), default="-", show_default=True)
def cmd_evolve(m, omega, hbar, eps, eps_prime, lambda_a, lambda_b, t_a, t_b,
               steps, nmax, output):
    """Weak-value time series for a coherent boundary pair (CSV)."""
    import numpy as np

    from . import dynamics, fock
    from ._csvcells import csv_table

    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    if not (math.isfinite(t_a) and math.isfinite(t_b)):
        _fail_config(f"t-a and t-b must be finite, got {t_a!r} and {t_b!r}")
    if t_b <= t_a:
        _fail_config("t-b must exceed t-a")
    if t_b - t_a == math.inf:
        _fail_config(f"the time window t-b - t-a overflows: t-a = {t_a!r} and "
                     f"t-b = {t_b!r}")
    for name, label in (("lambda-a", lambda_a), ("lambda-b", lambda_b)):
        if not cmath.isfinite(label):
            _fail_config(f"{name} must be finite, got {label!r}")
        # coherent_coeffs forms |label|^2
        if abs(label) * abs(label) == math.inf:
            _fail_config(f"|{name}|^2 overflows: {name} = {label!r}")
    rep = fock.build(params, nmax)
    system = dynamics.TwoStateSystem(
        fock.coherent_coeffs(lambda_a, nmax).normalized(),
        fock.coherent_coeffs(lambda_b, nmax).normalized(),
        t_a, t_b, params, rep)
    times = np.linspace(t_a, t_b, steps + 1)
    traj = dynamics.trajectory(system, times)
    header = ["t", "amplitude_re", "amplitude_im", "q_op_re", "q_op_im",
              "p_op_re", "p_op_im", "q_herm_re", "q_herm_im", "p_herm_re",
              "p_herm_im", "h_herm_re", "h_herm_im", "status"]
    # trajectory keeps every time or none; a dropped time has blank cells,
    # and a kept one the same amplitude
    if traj.kept.all():
        amplitude = traj.amplitude[0]
        columns = [times, _fmt(amplitude.real), _fmt(amplitude.imag)]
        for name in dynamics.WEAK_VALUE_OPERATORS:
            column = getattr(traj, name)
            columns += [column.real, column.imag]
        columns.append("ok")
    else:
        columns = [times, *[""] * 12, "vanishing_overlap"]
    _write_output(output, csv_table(header, columns))


@main.command("wavefunction")
@_model_options
@click.option("--n", type=int, default=0, show_default=True,
              help="Level index.")
@click.option("--basis", type=click.Choice(["1", "2"]), default="1",
              show_default=True)
@click.option("--ray-angle", type=float, default=0.0, show_default=True,
              help="Angle of the sampling ray in the complex plane.")
@click.option("--half-width", type=float, default=None,
              help="Half-extent of the ray; defaults to a level-scaled value.")
@click.option("--points", type=int, default=401, show_default=True,
              callback=_at_least(2))
@click.option("--output", type=click.Path(), default="-", show_default=True)
def cmd_wavefunction(m, omega, hbar, eps, eps_prime, n, basis, ray_angle,
                     half_width, points, output):
    """Sample a level wavefunction along a ray (CSV)."""
    import numpy as np

    from . import wavefunctions
    from ._csvcells import csv_table

    params = validate(m, omega, hbar=hbar, eps=eps, eps_prime=eps_prime)
    if n < 0:
        _fail_config(f"n must be nonnegative, got {n}")
    if not math.isfinite(ray_angle):
        _fail_config(f"ray-angle must be finite, got {ray_angle!r}")
    # written so that a NaN half-width fails it
    if half_width is not None and not 0 < half_width < math.inf:
        _fail_config(f"half-width must be finite and positive, got {half_width!r}")
    if half_width is None:
        check_length_scale(params)
        half_width = 12.0 * math.sqrt(params.hbar * (n + 1) / params.r)
    # np.linspace forms the span 2*half-width
    if 2 * half_width == math.inf:
        _fail_config(f"half-width must be at most half the largest double, "
                     f"got {half_width!r}")
    qs = np.linspace(-half_width, half_width, points) * np.exp(1j * ray_angle)
    psi = wavefunctions.eigenfunction(int(basis), n, qs, params)
    _write_output(output, csv_table(["q_re", "q_im", "psi_re", "psi_im"],
                                    [qs.real, qs.imag, psi.real, psi.imag]))


if __name__ == "__main__":
    main()

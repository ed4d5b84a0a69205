"""What the commands share: options, ``--config`` loading and output.

Each command module imports this one and none imports ``cxho.cli``, which
runs as ``__main__`` under ``python -m cxho.cli`` and would be compiled a
second time under its own name.  Reports are JSON written in one pass
(``json_dumps``) with 17 significant digits; a write to a path that fails
exits 1, and a bad value exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import cmath
import json
import math
import sys

import click

EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


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
g17 = "%.17g".__mod__


def _float_text(x) -> str:
    """``g17`` of a finite float; JSON has no token for nan or inf."""
    if not math.isfinite(x):
        raise ValueError(f"a report cannot hold the non-finite number {x!r}")
    return g17(x)


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


def json_dumps(obj, indent: int = 0) -> str:
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
        values = tuple(json_dumps(v, indent + 2) for v in obj.values())
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
        texts = tuple(json_dumps(v, indent + 4) for r in obj for v in r.values())
        return "[\n" + ",\n".join([item] * len(obj)) % texts + "\n" + pad + "]"
    texts = [json_dumps(v, indent + 2) for v in obj]
    if not any(isinstance(v, (dict, list, tuple)) for v in obj):
        return "[" + ", ".join(texts) + "]"
    return "[\n" + ",\n".join(pad + "  " + v for v in texts) + "\n" + pad + "]"


def write_output(path: str, text) -> None:
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


def fail_config(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_CONFIG)


def _unique_pairs(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that rejects a key repeated in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            fail_config(f"config field {key!r} appears twice")
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
        fail_config(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        fail_config(f"config {path} must hold a JSON object")
    by_key = {name.lstrip("-").replace("-", "_"): option
              for option in ctx.command.params if option.expose_value
              for name in [option.name, *option.opts]}
    default_map, key_of = {}, {}
    for key, raw in config.items():
        option = by_key.get(key.replace("-", "_"))
        if option is None:
            fail_config(f"unknown config field {key!r}")
        if option.name in key_of:
            fail_config(f"config fields {key_of[option.name]!r} and {key!r} "
                        f"both set {option.name!r}")
        key_of[option.name] = key
        if raw is not None:
            text = raw if isinstance(raw, str) else json.dumps(raw)
            try:
                default_map[option.name] = option.type.convert(text, option, ctx)
            except click.BadParameter as exc:
                fail_config(f"config field {key!r}: {exc}")
    ctx.default_map = default_map


config_option = click.option(
    "--config", type=click.Path(), is_eager=True, expose_value=False,
    callback=_load_config,
    help="JSON file mirroring the flags; flags override it.")


def at_least(low: int, below: int | None = None):
    """Option callback: a value below ``low``, or at or above ``below``,
    given or from ``--config``, exits 2 with one ``error:`` line naming the
    flag."""

    def check(ctx: click.Context, param: click.Parameter, value: int) -> int:
        if value < low:
            fail_config(f"{param.opts[0][2:]} must be >= {low}, got {value}")
        if below is not None and value >= below:
            fail_config(f"{param.opts[0][2:]} must be < {below}, got {value}")
        return value

    return check


nmax_option = click.option("--nmax", type=int, default=32, show_default=True,
                           callback=at_least(2))
#: a seed selects a SplitMix64 stream, whose state is one 64-bit word
seed_option = click.option("--seed", type=int, default=0, show_default=True,
                           callback=at_least(0, below=2**64))
output_option = click.option("--output", type=click.Path(), default="-",
                             show_default=True)


def model_options(func):
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
        config_option,
    ]):
        func = option(func)
    return func

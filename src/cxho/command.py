"""What the commands share: flags, their parsing, ``--config`` and output.

Each command module builds its ``Command`` once, at import, and none
imports ``cxho.cli``, which runs as ``__main__`` under ``python -m
cxho.cli`` and would be compiled a second time under its own name.  Every
flag takes one value.  argparse parses them, after each flag is joined with
the token that follows it into the ``--flag=value`` form, so that a value
such as ``-0.8+1.1i`` is not read as a flag.  A usage error, a bad value
and a count below its floor each exit 2 with one ``error:`` line.  Reports
are JSON written in one pass (``json_dumps``) with 17 significant digits;
a write to a path that fails exits 1, and so does a write to a stdout
whose reader has gone, silently (``cxho.cli.main`` catches it).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

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


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


def real(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None


def path(text: str) -> str:
    return text


def choice(*names: str):
    """Converter that accepts one of ``names``, exactly."""

    def convert(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of "
                             f"{', '.join(map(repr, names))}.")
        return text

    convert.metavar = "{" + ",".join(names) + "}"
    return convert


# the value's kind in --help
parse_complex.metavar, integer.metavar = "COMPLEX", "INTEGER"
real.metavar, path.metavar = "FLOAT", "PATH"


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
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        fail_config(f"cannot write {path}: {exc}", EXIT_IO)




def fail_config(message: str, code: int = EXIT_CONFIG) -> None:
    """Exit ``code`` (2, a usage, configuration or validity error, unless
    given) after one ``error:`` line on stderr."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _unique_pairs(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that rejects a key repeated in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            fail_config(f"config field {key!r} appears twice")
        obj[key] = value
    return obj


class Flag:
    """A flag that takes one value: ``--<name> VALUE`` sets the parameter
    ``dest`` (``name`` with underscores by default).

    ``convert`` reads the value's text and raises ValueError, whose text
    says why, when it cannot; the default is text converted alike, or None.
    An integer below ``low``, or at or above ``below``, exits 2 with one
    ``error:`` line naming the flag.
    """

    __slots__ = ("name", "dest", "convert", "default", "help", "low", "below")

    def __init__(self, name: str, convert, default: str | None, help: str = "",
                 dest: str | None = None, low: int | None = None,
                 below: int | None = None):
        self.name, self.convert, self.low, self.below = name, convert, low, below
        self.dest = dest or name.replace("-", "_")
        self.default = None if default is None else convert(default)
        self.help = (help if default is None
                     else f"{help} [default: {default}]".lstrip())

    def check(self, value):
        if self.low is not None and value < self.low:
            fail_config(f"{self.name} must be >= {self.low}, got {value}")
        if self.below is not None and value >= self.below:
            fail_config(f"{self.name} must be < {self.below}, got {value}")
        return value


def _load_config(path: str, flags) -> dict:
    """The values a JSON config file sets, by parameter.

    Keys are parameter or flag names, dashes or underscores alike; a null
    leaves the default; any other value but a string is read from its JSON
    text, as a flag would be.  Unknown keys, a repeated key and two keys
    naming one parameter are rejected.
    """
    try:
        with open(path) as fh:
            config = json.load(fh, object_pairs_hook=_unique_pairs)
    except OSError as exc:
        fail_config(f"cannot read config {path}: {exc}", EXIT_IO)
    except json.JSONDecodeError as exc:
        fail_config(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        fail_config(f"config {path} must hold a JSON object")
    by_key = {key.replace("-", "_"): flag
              for flag in flags for key in (flag.dest, flag.name)}
    values, key_of = {}, {}
    for key, raw in config.items():
        flag = by_key.get(key.replace("-", "_"))
        if flag is None:
            fail_config(f"unknown config field {key!r}")
        if flag.dest in key_of:
            fail_config(f"config fields {key_of[flag.dest]!r} and {key!r} "
                        f"both set {flag.dest!r}")
        key_of[flag.dest] = key
        if raw is not None:
            try:
                values[flag.dest] = flag.convert(
                    raw if isinstance(raw, str) else json.dumps(raw))
            except ValueError as exc:
                fail_config(f"config field {key!r}: {exc}")
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        """A usage error: one ``error:`` line, without the usage text."""
        fail_config(message)


class Command:
    """A command: its flags, the argparse parser built from them once, and
    the function that runs on their values (its docstring is the command's
    description)."""

    def __init__(self, name: str, run, flags):
        self.run, self.flags = run, flags
        self.parser = _Parser(prog=f"cxho {name}", description=run.__doc__,
                              allow_abbrev=False, add_help=False,
                              argument_default=argparse.SUPPRESS)
        self.options = {}
        for flag in (*flags, CONFIG):
            option = "--" + flag.name
            self.parser.add_argument(option, dest=flag.dest, help=flag.help,
                                     metavar=flag.convert.metavar)
            self.options[option] = flag
        self.parser.add_argument("--help", action="help",
                                 help="Show this message and exit.")

    def _joined(self, args: list[str]) -> tuple[list[str], dict]:
        """``args`` with each flag joined with the token after it into
        ``--flag=value`` (none after ``--``), and the flags found, in the
        order they first appear (a dict's keys)."""
        tokens, given = [], {}
        rest = iter(args)
        for token in rest:
            if token == "--":
                tokens += [token, *rest]
                break
            flag = self.options.get(token.partition("=")[0])
            if flag is not None:
                given[flag] = None
                if "=" not in token:
                    value = next(rest, None)
                    if value is not None:
                        token += "=" + value
            tokens.append(token)
        return tokens, given

    def __call__(self, args: list[str]) -> None:
        """Parse ``args`` and run the command on the values.

        The values are converted and checked in a fixed order, which picks
        the error line of a run with several bad ones: ``--config`` first,
        then the flags given, in the order given, then the rest, each from
        the config file if it sets it, else its default.
        """
        tokens, given = self._joined(args)
        texts = vars(self.parser.parse_args(tokens))
        config = (_load_config(texts.pop("config"), self.flags)
                  if "config" in texts else {})
        values = {}
        for flag in dict.fromkeys([*given, *self.flags]):
            if flag is CONFIG:
                continue
            if flag.dest in texts:
                try:
                    value = flag.convert(texts[flag.dest])
                except ValueError as exc:
                    fail_config(f"argument --{flag.name}: {exc}")
            else:
                value = config.get(flag.dest, flag.default)
            values[flag.dest] = flag.check(value)
        self.run(**values)


def subcommand(name: str, *flags: Flag):
    """Decorator that makes a function the ``Command`` ``name``."""
    return lambda run: Command(name, run, flags)


#: The oscillator's flags, which every command but phase-diagram takes.
MODEL_FLAGS = (
    Flag("m", parse_complex, "1+0i", "Complex mass, '<re>[+/-]<im>i'."),
    Flag("omega", parse_complex, "1+0i", "Complex angular frequency."),
    Flag("hbar", real, "1.0"),
    Flag("eps", real, "0.001", "Coordinate regulator."),
    Flag("eps-prime", real, "0.001", "Momentum regulator."),
)
NMAX = Flag("nmax", integer, "32", low=2)
CONFIG = Flag("config", path, None,
              "JSON file mirroring the flags; flags override it.")
#: a seed selects a SplitMix64 stream, whose state is one 64-bit word
SEED = Flag("seed", integer, "0", low=0, below=2**64)
OUTPUT = Flag("output", path, "-")

"""Command-line front end: grid scans, verification, trajectories, maximization.

Exit codes: 0 success, 1 I/O error (a closed stdout included, which exits
silently), 2 usage, configuration or validity error (numeric overflow
included), 3 verification failure.  All numeric output is serialized with
17 significant digits and is byte-identical across reruns of the same
configuration and seed; ``--seed`` selects a SplitMix64 stream.

Each command lives in a module of its own (``cmd_phase_diagram``,
``cmd_verify``, ``cmd_maximize``, ``cmd_evolve``, ``cmd_wavefunction``),
which ``main`` imports only when that command runs or its help is shown;
each builds its argparse parser once, at import, from the flags, the
``--config`` loading and the output writing they share in ``command``.  A
flag that takes a value is joined with the token after it into argparse's
``--flag=value`` form, so a value may start with a dash, and a usage error
is one ``error:`` line with exit 2.  So ``import cxho.cli`` loads
``errors`` alone, and a command loads ``command``, argparse, ``params``,
its own module and, when it runs, the numeric modules it uses:
``phase-diagram`` none of them, nor numpy.  No command module imports this
one, which runs as ``__main__`` under ``python -m cxho.cli`` and would be
compiled a second time by name.
"""

from __future__ import annotations

import os
import sys
import warnings

from .errors import CxhoError

#: The command names, sorted as ``--help`` lists them.
COMMANDS = ("evolve", "maximize", "phase-diagram", "verify", "wavefunction")


def get_command(name: str):
    """The ``command.Command`` named ``name``, its module imported now, or
    None."""
    # import statements, which ``-X importtime`` reports
    if name == "evolve":
        from .cmd_evolve import command
    elif name == "maximize":
        from .cmd_maximize import command
    elif name == "phase-diagram":
        from .cmd_phase_diagram import command
    elif name == "verify":
        from .cmd_verify import command
    elif name == "wavefunction":
        from .cmd_wavefunction import command
    else:
        return None
    return command


def _fail(message: str) -> None:
    """Exit 2 with one ``error:`` line."""
    # not at the top: ``import cxho.cli`` loads no module of the commands
    from .command import fail_config
    fail_config(message)


def _help() -> str:
    lines = ["usage: cxho [--help] COMMAND [ARGS]...", "",
             "Complex-mass, complex-frequency harmonic oscillator toolkit.", "",
             "commands:"]
    lines += [f"  {name:<15}{get_command(name).parser.description}"
              for name in COMMANDS]
    return "\n".join(lines) + "\n"


def _run(args: list[str]) -> None:
    """Run ``cxho <args>``.

    A ``CxhoError`` or ``ValueError`` from a command leaves through
    ``command.fail_config``, with one ``error:`` line; so does an
    ``ArithmeticError`` (a float overflow) or a ``MemoryError``, whose line
    names its type.  While a command runs, a warning it shows is one
    ``warning:`` line; a caller that records warnings still gets them.
    """
    if not args:
        _fail(f"missing command, one of {', '.join(COMMANDS)}")
    if args[0] == "--help":
        sys.stdout.write(_help())
        return
    command = get_command(args[0])
    if command is None:
        if args[0].startswith("-"):
            _fail(f"no such option: {args[0]}")
        import difflib

        close = difflib.get_close_matches(args[0], COMMANDS)
        hint = (f"; did you mean {close[0]!r}?" if len(close) == 1 else
                f"; did you mean one of {', '.join(map(repr, close))}?"
                if close else "")
        _fail(f"no such command {args[0]!r}{hint}")
    previous, warnings.formatwarning = (
        warnings.formatwarning, lambda message, *_: f"warning: {message}\n")
    try:
        return command(args[1:])
    except (CxhoError, ValueError) as exc:
        message = str(exc)
    except (ArithmeticError, MemoryError) as exc:
        message = (f"{type(exc).__name__}: {exc}" if str(exc)
                   else type(exc).__name__)
    finally:
        warnings.formatwarning = previous
    _fail(message)


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """``cxho <args>``, ``sys.argv[1:]`` by default.

    A run that succeeds exits 0, or with ``standalone_mode=False`` returns
    0 (argparse still ends a command's ``--help`` with exit 0).  Every
    other end leaves through ``SystemExit``: an ``error:`` line and its
    exit code, ``Aborted!`` and exit 1 on Ctrl-C, and a silent exit 1 once
    the reader of stdout has gone.
    """
    try:
        _run(sys.argv[1:] if args is None else list(args))
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # Python flushes stdout at exit; the rest of it goes to devnull, so
        # that flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)
    return 0


if __name__ == "__main__":
    main()

"""Command-line front end: grid scans, verification, trajectories, maximization.

Exit codes: 0 success, 1 I/O error, 2 configuration or validity error
(numeric overflow included), 3 verification failure.  All numeric output is
serialized with 17 significant digits and is byte-identical across reruns of
the same configuration and seed; ``--seed`` selects a SplitMix64 stream.

Each command lives in a module of its own (``cmd_phase_diagram``,
``cmd_verify``, ``cmd_maximize``, ``cmd_evolve``, ``cmd_wavefunction``),
which ``main`` imports only when that command runs or its help is shown;
the options, ``--config`` loading and output writing they share are in
``command``.  So ``import cxho.cli`` loads click and ``errors`` alone, and a
command loads ``command``, ``params``, its own module and, when it runs,
the numeric modules it uses: ``phase-diagram`` none of them, nor numpy.
No command module imports this one, which runs as ``__main__`` under
``python -m cxho.cli`` and would be compiled a second time by name.
"""

from __future__ import annotations

import warnings

import click

from .errors import CxhoError

#: The command names, sorted as ``--help`` lists them.
COMMANDS = ("evolve", "maximize", "phase-diagram", "verify", "wavefunction")


class _Group(click.Group):
    """Command group that loads a command's module on demand and turns the
    package's errors into exit code 2.

    A ``CxhoError`` or ``ValueError`` from any command leaves through
    ``command.fail_config``, with one ``error:`` line, also when called with
    ``standalone_mode=False``; so does an ``ArithmeticError`` (a float
    overflow) or a ``MemoryError``, whose line names its type.  While a
    command runs, a warning it shows is one ``warning:`` line; a caller that
    records warnings still gets them.
    """

    def list_commands(self, ctx: click.Context) -> list[str]:
        return list(COMMANDS)

    def get_command(self, ctx: click.Context, name: str) -> click.Command | None:
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

    def resolve_command(self, ctx: click.Context, args: list[str]):
        try:
            return super().resolve_command(ctx, args)
        except click.NoSuchCommand as exc:
            # click suggests close names from ``self.commands``, empty here
            raise click.NoSuchCommand(exc.command_name, possibilities=COMMANDS,
                                      ctx=ctx) from None

    def invoke(self, ctx: click.Context):
        previous, warnings.formatwarning = (
            warnings.formatwarning, lambda message, *_: f"warning: {message}\n")
        try:
            return super().invoke(ctx)
        except (CxhoError, ValueError) as exc:
            message = str(exc)
        except (ArithmeticError, MemoryError) as exc:
            message = (f"{type(exc).__name__}: {exc}" if str(exc)
                       else type(exc).__name__)
        finally:
            warnings.formatwarning = previous
        # not at the top: ``import cxho.cli`` loads no module of the commands
        from .command import fail_config
        fail_config(message)


@click.group(cls=_Group)
def main():
    """Complex-mass, complex-frequency harmonic oscillator toolkit."""


if __name__ == "__main__":
    main()

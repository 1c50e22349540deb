"""Command-line entry point.

Subcommands: run-schrodinger, run-field, run-constrained, dequantize, verify,
convergence, render, spectrum. All numeric output goes to files under --out;
stdout carries a short summary unless --quiet is given. `verify` exits
nonzero iff any asserted identity fails.
"""

import argparse
import sys

from . import runs
from .config import parse_config
from .errors import ConfigError
from .render import render_snapshots


# Commands that read every eigenpair of K, whatever the integrator.
_FULL_SPECTRUM = ("dequantize", "spectrum", "convergence", "verify")


def _add_common(parser):
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout summary")


def _add_verify(parser):
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None, help="optional report directory")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized batches")
    parser.add_argument("--quiet", action="store_true")


def _add_convergence(parser):
    _add_common(parser)
    parser.add_argument("--levels", type=int, default=3, help="refinement levels")


def _add_render(parser):
    parser.add_argument("--out", required=True, help="run directory holding snapshots")
    parser.add_argument("--quiet", action="store_true")


# Each subcommand, in the order the usage lists them, and what adds its arguments.
_COMMANDS = {
    "run-schrodinger": _add_common,
    "run-field": _add_common,
    "run-constrained": _add_common,
    "dequantize": _add_common,
    "spectrum": _add_common,
    "verify": _add_verify,
    "convergence": _add_convergence,
    "render": _add_render,
}


def build_parser(command=None):
    """The CLI's parser, with every subcommand's parser or, given its name, with that one's only.

    A parser with one subcommand lists them all in its usage, as the full
    one does, so it prints what the full one prints for that command's
    arguments. The full parser names the subcommand argument `command` in
    its errors, which the metavar would replace.
    """
    parser = argparse.ArgumentParser(
        prog="schrofield",
        description=(
            "Numerical laboratory for the Schrodinger equation, its real "
            "wave-potential field theory, and the constrained system that "
            "unifies them."
        ),
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        _COMMANDS[name](sub.add_parser(name))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # Only the named subcommand's parser is built; anything else, the full one.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    try:
        if args.command == "render":
            written = render_snapshots(args.out)
            if not args.quiet:
                print(f"render: {len(written)} SVG files")
            return 0
        # verify and convergence refuse a study past their limits before an
        # eigenstate or modes preset decomposes K.
        preflight = {
            "verify": lambda s: runs._check_refined_grids(s.config, runs._VERIFY_CURRENT_LEVELS),
            "convergence": lambda s: runs._convergence_dts(s.config, s.operator, args.levels),
        }.get(args.command)
        scenario = parse_config(
            args.config, spectrum=args.command in _FULL_SPECTRUM, preflight=preflight
        )
        if args.command == "run-schrodinger":
            runs.run_schrodinger(scenario, args.out, quiet=args.quiet)
        elif args.command == "run-field":
            runs.run_field(scenario, args.out, quiet=args.quiet)
        elif args.command == "run-constrained":
            runs.run_constrained(scenario, args.out, quiet=args.quiet)
        elif args.command == "dequantize":
            runs.run_dequantize(scenario, args.out, quiet=args.quiet)
        elif args.command == "spectrum":
            runs.run_spectrum(scenario, args.out, quiet=args.quiet)
        elif args.command == "convergence":
            runs.run_convergence(scenario, args.out, levels=args.levels, quiet=args.quiet)
        elif args.command == "verify":
            _, all_pass = runs.run_verify(
                scenario, seed=args.seed, out_dir=args.out, quiet=args.quiet
            )
            return 0 if all_pass else 1
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"aborted: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

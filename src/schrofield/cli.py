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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schrofield",
        description=(
            "Numerical laboratory for the Schrodinger equation, its real "
            "wave-potential field theory, and the constrained system that "
            "unifies them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run-schrodinger", "run-field", "run-constrained", "dequantize", "spectrum"):
        _add_common(sub.add_parser(name))
    verify = sub.add_parser("verify")
    verify.add_argument("--config", required=True)
    verify.add_argument("--out", default=None, help="optional report directory")
    verify.add_argument("--seed", type=int, default=0, help="seed for randomized batches")
    verify.add_argument("--quiet", action="store_true")
    conv = sub.add_parser("convergence")
    _add_common(conv)
    conv.add_argument("--levels", type=int, default=3, help="refinement levels")
    rend = sub.add_parser("render")
    rend.add_argument("--out", required=True, help="run directory holding snapshots")
    rend.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    try:
        if args.command == "render":
            written = render_snapshots(args.out)
            if not args.quiet:
                print(f"render: {len(written)} SVG files")
            return 0
        scenario = parse_config(args.config, spectrum=args.command in _FULL_SPECTRUM)
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

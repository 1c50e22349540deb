"""One repetition of a schrofield CLI command, in a fresh process.

    python3 child.py --src SRC [--trace] [--parse-only CONFIG] -- CLI ARGS...

Imports schrofield from SRC, then times `schrofield.cli.main(CLI ARGS)`, or
with --parse-only only `config.parse_config(CONFIG)`. Prints one JSON line:
the exit code, the timed seconds, the process's peak RSS and, with --trace,
the span table and the spectral-radius cache misses.
"""

import argparse
import json
import resource
import sys
import time
import traceback


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--parse-only", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    from schrofield import cli, config, lattice

    spectral_radius = lattice.spectral_radius
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()

    error = None
    t0 = time.perf_counter()
    try:
        if args.parse_only is not None:
            config.parse_config(args.parse_only)
            code = 0
        else:
            code = cli.main(cli_args)
    except Exception as exc:  # reported as a failed repetition
        traceback.print_exc()
        code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0

    result = {
        "exit_code": code,
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
    }
    if tracer is not None:
        result["spans"] = tracer.table()
        result["spectral_radius_misses"] = spectral_radius.cache_info().misses
    print(json.dumps(result))


if __name__ == "__main__":
    main()

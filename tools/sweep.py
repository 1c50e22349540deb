"""Scale sweep of `verify`: seconds and peak RSS at n = 200, 800 and 3200.

Usage: python3 tools/sweep.py --label <name> [--rev <rev>]

Runs `verify --seed 7` on the CI verify config (a Dirichlet harmonic grid on
[-20, 20], gaussian state, `spectral`, dt = 0.01, t_final = 1) at each n, and
writes BENCH_<name>.json at the repository root. With --rev it measures the
`src` of a `git archive` of that revision instead of the working tree's.

Each size runs in a fresh launcher process, which starts a fresh worker with
one BLAS thread and waits for it. The worker times `schrofield.cli.main` and
reads the report's `timings` (the seconds of each check) and the seconds of
each level of the current-residual study. The launcher reads the worker's
peak RSS from RUSAGE_CHILDREN: Linux carries the RSS high-water mark across
fork and exec, so a worker started by the sweep itself would report at least
the sweep's own peak, while the launcher imports nothing heavy. A size that
runs past CAP_S seconds is killed and recorded as "skipped: over cap".
"""

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIZES = (200, 800, 3200)
SEED = 7
# Seconds a size may run, launcher and worker together. At n = 3200, verify
# with a dense eigh per refined level took 60 s on a 2-core host.
CAP_S = 600
CONFIG = {
    "grid": {"x_min": -20.0, "x_max": 20.0, "boundary": "dirichlet"},
    "potential": {"name": "harmonic", "omega": 1.0},
    "initial_state": {"type": "gaussian", "center": -2.0, "width": 1.0, "momentum": 1.0},
    "integrator": "spectral",
    "dt": 0.01,
    "t_final": 1.0,
}
_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def work(src, cfg_path, out):
    """Run verify once in this process and print one JSON line with its numbers."""
    sys.path.insert(0, src)
    import numpy as np

    from schrofield import cli
    from schrofield import correspondence as cr
    from schrofield import runs

    # Each level of the current-residual study ends with one residual call:
    # `_current_residual` since the study reads K phi off the wave flow,
    # `current_residual` before that.
    marks = []
    study = runs._current_errors
    name = "_current_residual" if hasattr(cr, "_current_residual") else "current_residual"
    residual = getattr(cr, name)

    def timed_study(*args, **kwargs):
        marks.append(time.perf_counter())
        return study(*args, **kwargs)

    def timed_residual(*args, **kwargs):
        result = residual(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    runs._current_errors = timed_study
    setattr(cr, name, timed_residual)
    t0 = time.perf_counter()
    code = cli.main(["verify", "--seed", str(SEED), "--config", cfg_path, "--out", out, "--quiet"])
    wall = time.perf_counter() - t0
    report = json.loads((Path(out) / "verify_report.json").read_text(encoding="utf-8"))
    current = {e["name"]: e for e in report["identities"]}["current_residual_decays"]
    print(json.dumps({
        "exit_code": code,
        "wall_s": wall,
        "timings_s": report["timings"],
        "current_levels_s": np.diff(marks).tolist(),
        "current_residual_decays": {k: current[k] for k in ("violation", "passed", "note")},
        "numpy": np.__version__,
    }))


def launch(src, cfg_path, out):
    """Run one worker, then print its JSON line with its own peak RSS added."""
    proc = subprocess.run(
        [sys.executable, __file__, "--work", src, cfg_path, out],
        env={**os.environ, **_THREADS}, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        print(json.dumps({"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}))
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps(result))


def measure(src, n, tmp):
    """The launcher's record of verify at grid size n, or a skip past the cap."""
    cfg = {**CONFIG, "grid": {**CONFIG["grid"], "n": n}}
    cfg_path = tmp / f"verify{n}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    args = [sys.executable, __file__, "--launch", str(src), str(cfg_path), str(tmp / f"out{n}")]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CAP_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"skipped": f"over cap of {CAP_S} s"}
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv):
    if argv[:1] == ["--work"]:
        return work(*argv[1:])
    if argv[:1] == ["--launch"]:
        return launch(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--rev", default=None)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="sweep_") as tmp:
        tmp = Path(tmp)
        src = REPO / "src"
        if args.rev is not None:
            sys.path.insert(0, str(REPO / "tools"))
            from cli_matrix import extract_revision

            extract_revision(args.rev, tmp / "rev")
            src = tmp / "rev" / "src"
        sizes = {}
        for n in SIZES:
            sizes[str(n)] = measure(src, n, tmp)
            print(f"sweep: n={n}: {json.dumps(sizes[str(n)])}", file=sys.stderr)
    revision = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", args.rev or "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    bench = {
        "label": args.label,
        "source": f"revision {revision}" if args.rev else f"working tree on {revision}",
        "command": f"verify --seed {SEED}",
        "config": CONFIG,
        "cap_s": CAP_S,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "blas_threads": 1,
        },
        "sizes": sizes,
    }
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"sweep: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Scale sweep of one layer: `verify`, or the stencil eigensolver `lattice.eigenpairs`.

Usage: python3 tools/sweep.py --label <name> [--layer verify|eigenpairs] [--rev <rev>]

The `verify` layer (the default) runs `verify --seed 7` on the CI verify
config (a Dirichlet harmonic grid on [-20, 20], gaussian state, `spectral`,
dt = 0.01, t_final = 1) at n = 200, 800 and 3200, and records seconds and
peak RSS. With --rev it measures the `src` of a `git archive` of that
revision instead of the working tree's.

The `eigenpairs` layer times `lattice.eigenpairs` for the 1 and the 8 top
columns (the lowest-energy modes) of K on the same grid and potential at
n = 200, 800, 1200 and 3200, in CPU seconds, best of EIGENPAIRS_REPEATS in
each fresh worker. With --rev it measures that revision and the working
tree, alternating which goes first, for EIGENPAIRS_ROUNDS workers each, and
records every round and each source's best.

Both write BENCH_<name>.json at the repository root.

Each size runs in a fresh launcher process, which starts a fresh worker with
one BLAS thread and waits for it. The worker times `schrofield.cli.main` and
reads the report's `timings` (the seconds of each check) and the seconds of
each level of the current-residual study. For `verify`, the launcher reads the worker's
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
# The benchmark's field-leapfrog workload runs at n = 1200.
EIGENPAIRS_SIZES = (200, 800, 1200, 3200)
EIGENPAIRS_MODES = (1, 8)
EIGENPAIRS_REPEATS = 7
# Workers per source. On a shared host one worker's best can sit well above
# another's; alternating the sources spreads that drift over both.
EIGENPAIRS_ROUNDS = 5
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


def work_eigenpairs(src):
    """Time `lattice.eigenpairs` in this process and print one JSON line of CPU seconds."""
    sys.path.insert(0, src)
    import numpy as np

    from schrofield import lattice
    from schrofield.presets import potential_from_spec

    sizes = {}
    for n in EIGENPAIRS_SIZES:
        grid = lattice.build_grid(n, CONFIG["grid"]["x_min"], CONFIG["grid"]["x_max"], "dirichlet")
        op = lattice.build_operator(grid, potential_from_spec(grid, CONFIG["potential"]))
        sizes[str(n)] = {}
        for k in EIGENPAIRS_MODES:
            cols = list(range(n - k, n))
            best = float("inf")
            for _ in range(EIGENPAIRS_REPEATS):
                t0 = time.process_time()
                pairs = lattice.eigenpairs(op, cols)
                best = min(best, time.process_time() - t0)
            if pairs is None:
                raise RuntimeError(f"eigenpairs declined the top {k} modes at n={n}")
            sizes[str(n)][str(k)] = best
    print(json.dumps({"cpu_s": sizes, "numpy": np.__version__}))


def measure_eigenpairs(src):
    """One worker's record of the eigenpairs layer of the tree at src."""
    proc = subprocess.run(
        [sys.executable, __file__, "--work-eigenpairs", str(src)],
        env={**os.environ, **_THREADS}, capture_output=True, text=True, check=False,
        timeout=CAP_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


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


def _best(runs):
    """Per size and mode count, the least CPU seconds over the workers that ran."""
    sizes = [run["cpu_s"] for run in runs if "cpu_s" in run]
    if not sizes:
        return None
    return {n: {k: min(s[n][k] for s in sizes) for k in sizes[0][n]} for n in sizes[0]}


def _short_revision(rev):
    return subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", rev],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def main(argv):
    if argv[:1] == ["--work"]:
        return work(*argv[1:])
    if argv[:1] == ["--launch"]:
        return launch(*argv[1:])
    if argv[:1] == ["--work-eigenpairs"]:
        return work_eigenpairs(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--layer", choices=("verify", "eigenpairs"), default="verify")
    parser.add_argument("--rev", default=None)
    args = parser.parse_args(argv)
    head = _short_revision("HEAD")
    tree = f"working tree on {head}"
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads": 1,
    }
    with tempfile.TemporaryDirectory(prefix="sweep_") as tmp:
        tmp = Path(tmp)
        src = REPO / "src"
        if args.rev is not None:
            sys.path.insert(0, str(REPO / "tools"))
            from cli_matrix import extract_revision

            extract_revision(args.rev, tmp / "rev")
            src = tmp / "rev" / "src"
        if args.layer == "eigenpairs":
            sources = {}
            if args.rev is not None:
                sources[f"revision {_short_revision(args.rev)}"] = src
            sources[tree] = REPO / "src"
            rounds = {name: [] for name in sources}
            for r in range(EIGENPAIRS_ROUNDS):
                for name in list(sources)[:: 1 if r % 2 == 0 else -1]:
                    rounds[name].append(measure_eigenpairs(sources[name]))
                    print(f"sweep: {name}: {json.dumps(rounds[name][-1])}", file=sys.stderr)
            results = {name: {"rounds": runs, "best_cpu_s": _best(runs)} for name, runs in rounds.items()}
            bench = {
                "label": args.label,
                "layer": "eigenpairs",
                "command": "lattice.eigenpairs(op, range(n - k, n)) for k top modes",
                "config": {key: CONFIG[key] for key in ("grid", "potential")},
                "clock": f"CPU seconds, best of {EIGENPAIRS_REPEATS} per worker",
                "host": host,
                "sources": results,
            }
        else:
            sizes = {}
            for n in SIZES:
                sizes[str(n)] = measure(src, n, tmp)
                print(f"sweep: n={n}: {json.dumps(sizes[str(n)])}", file=sys.stderr)
            bench = {
                "label": args.label,
                "source": f"revision {_short_revision(args.rev)}" if args.rev else tree,
                "command": f"verify --seed {SEED}",
                "config": CONFIG,
                "cap_s": CAP_S,
                "host": host,
                "sizes": sizes,
            }
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"sweep: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

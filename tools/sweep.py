"""Scale sweep of one layer: `verify`, the stencil eigensolver, the RK4 or the leapfrog step.

Usage: python3 tools/sweep.py --label <name> [--layer verify|eigenpairs|rk4|leapfrog] [--rev <rev>]

The `verify` layer (the default) runs `verify --seed 7` on the CI verify
config (a Dirichlet harmonic grid on [-20, 20], gaussian state, `spectral`,
dt = 0.01, t_final = 1) at n = 200, 800 and 3200, and records seconds and
peak RSS.

The `eigenpairs` layer times `lattice.eigenpairs` for the 1 and the 8 top
columns (the lowest-energy modes) of K on the same grid and potential at
n = 200, 800, 1200 and 3200, in CPU seconds, best of REPEATS in each fresh
worker.

The `rk4` layer times the RK4 step on the ring of the benchmark's
constrained-rk4 workload (a periodic gaussian barrier on [-10, 10]) at
dt = half the stability bound, n = RK4_SIZES plus the measured tree's
`_BAND_MAX_N` and one past it, in CPU seconds per step, best of REPEATS
blocks of RK4_STEPS steps in each fresh worker: `_rk4` (Horner), the
compiled band forced on at every size, the band's build, and the run loop's
steps with the stepper's construction (whichever path the tree takes at
that n; `_rk4_steps` on a tree that has no band). The stepper is
`constrained.Rk4`, or `_Rk4Map` on trees from before it was public; both
step by `advance(y, out)`, which is what is timed, so the steps are timed
alone. The one stacked product `K (phi, p)` of a block that `Rk4.steps`
returns is timed apart, as `products_s_per_step`.

The `leapfrog` layer times the leapfrog step on the `verify` layer's grid
and potential at n = LEAPFROG_SIZES, dt = half the stability bound, in CPU
seconds per step, best of REPEATS in each fresh worker: `Leapfrog.steps`
over a block of LEAPFROG_STEPS steps, as the run loop calls it, and as many
`step_leapfrog` calls one after the other, each of which builds its
`Leapfrog` and state.

Every layer measures the working tree ROUNDS times, each round in fresh
workers. With --rev it measures the `src` of a `git archive` of that
revision too, alternating which of the two goes first, and records every
round and each source's best. All write BENCH_<name>.json at the repository
root.

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
REPEATS = 7
# Workers per source. On a shared host one worker's best can sit well above
# another's; alternating the sources spreads that drift over both.
ROUNDS = 5
# The benchmark's constrained-rk4 workload runs at n = 200.
RK4_SIZES = (200, 400, 800, 1200, 1600, 2000, 2400, 3200)
RK4_STEPS = 200
LEAPFROG_SIZES = EIGENPAIRS_SIZES
LEAPFROG_STEPS = 64
# The crossover asks the band for a 10% gain: the best of one worker can sit
# several per cent from another's on a shared host.
RK4_MARGIN = 0.9
RK4_GRID = {"x_min": -10.0, "x_max": 10.0, "boundary": "periodic"}
RK4_POTENTIAL = {"name": "gaussian_barrier", "height": 5.0, "width": 1.0, "center": 0.0}
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
            for _ in range(REPEATS):
                t0 = time.process_time()
                pairs = lattice.eigenpairs(op, cols)
                best = min(best, time.process_time() - t0)
            if pairs is None:
                raise RuntimeError(f"eigenpairs declined the top {k} modes at n={n}")
            sizes[str(n)][str(k)] = best
    print(json.dumps({"cpu_s": sizes, "numpy": np.__version__}))


def _best_time(f):
    """The least CPU seconds of REPEATS calls of f."""
    times = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        f()
        times.append(time.process_time() - t0)
    return min(times)


def work_rk4(src):
    """Time the RK4 step in this process and print one JSON line of CPU seconds per step."""
    sys.path.insert(0, src)
    import numpy as np

    from schrofield import constrained as cn
    from schrofield import lattice
    from schrofield.presets import potential_from_spec

    band_max_n = getattr(cn, "_BAND_MAX_N", None)
    # The RK4 stepper is `Rk4`, and was `_Rk4Map` before it was made public.
    stepper_class = getattr(cn, "Rk4", None) or getattr(cn, "_Rk4Map", None)
    sizes = set(RK4_SIZES) | ({band_max_n, band_max_n + 1} if band_max_n else set())
    results = {}
    for n in sorted(sizes):
        grid = lattice.build_grid(n, RK4_GRID["x_min"], RK4_GRID["x_max"], RK4_GRID["boundary"])
        op = lattice.build_operator(grid, potential_from_spec(grid, RK4_POTENTIAL))
        dt = 0.5 * cn.rk4_stability_bound(op)
        ys = np.empty((RK4_STEPS + 1, 3, n))
        ys[0] = np.random.default_rng(SEED).standard_normal((3, n))

        def horner():
            for j in range(1, len(ys)):
                cn._rk4(op, ys[j - 1], dt, ys[j])

        def stepped(stepper):
            for j in range(1, len(ys)):
                stepper.advance(ys[j - 1], ys[j])

        record = {"horner_s_per_step": _best_time(horner) / RK4_STEPS}
        if band_max_n is None:
            record["run_loop_s_per_step"] = _best_time(lambda: cn._rk4_steps(op, ys, dt)) / RK4_STEPS
        else:
            record["band_build_s"] = _best_time(lambda: cn._band(op, dt))
            banded = stepper_class(op, dt)
            banded._band = cn._band(op, banded.dt)
            record["band_s_per_step"] = _best_time(lambda: stepped(banded)) / RK4_STEPS
            record["run_loop_s_per_step"] = _best_time(lambda: stepped(stepper_class(op, dt))) / RK4_STEPS
        # the block's stacked K (phi, p), which `Rk4.steps` returns
        products = _best_time(lambda: lattice.stencil_product(op, ys[1:, :2]))
        record["products_s_per_step"] = products / RK4_STEPS
        results[str(n)] = record
    print(json.dumps({"cpu_s": results, "band_max_n": band_max_n, "numpy": np.__version__}))


def work_leapfrog(src):
    """Time the leapfrog step in this process and print one JSON line of CPU seconds per step."""
    sys.path.insert(0, src)
    import numpy as np

    from schrofield import field, lattice
    from schrofield.presets import potential_from_spec

    results = {}
    for n in LEAPFROG_SIZES:
        grid = lattice.build_grid(n, CONFIG["grid"]["x_min"], CONFIG["grid"]["x_max"], "dirichlet")
        op = lattice.build_operator(grid, potential_from_spec(grid, CONFIG["potential"]))
        dt = 0.5 * field.leapfrog_stability_bound(op)
        ys = np.empty((LEAPFROG_STEPS + 1, 2, n))
        ys[0] = np.random.default_rng(SEED).standard_normal((2, n))
        ky = lattice.stencil_product(op, ys[0, :1])
        stepper = field.Leapfrog(op, dt)
        s0 = field.FieldState(phi=ys[0, 0], p=ys[0, 1])

        def one_by_one():
            s = s0
            for _ in range(LEAPFROG_STEPS):
                s = field.step_leapfrog(op, s, dt)

        results[str(n)] = {
            "steps_s_per_step": _best_time(lambda: stepper.steps(ys, ky)) / LEAPFROG_STEPS,
            "step_leapfrog_s_per_step": _best_time(one_by_one) / LEAPFROG_STEPS,
        }
    print(json.dumps({"cpu_s": results, "numpy": np.__version__}))


def measure_worker(flag, src):
    """One fresh worker's record of a timed layer of the tree at src."""
    proc = subprocess.run(
        [sys.executable, __file__, flag, str(src)],
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
    """Per size and column (mode count, or timed path), the least CPU seconds over the workers."""
    sizes = [run["cpu_s"] for run in runs if "cpu_s" in run]
    if not sizes:
        return None
    return {n: {k: min(s[n][k] for s in sizes) for k in sizes[0][n]} for n in sizes[0]}


def _best_verify(runs):
    """Per size, the least wall seconds and peak RSS over the rounds that finished."""
    best = {}
    for n in map(str, SIZES):
        done = [run[n] for run in runs if "wall_s" in run[n]]
        if done:
            best[n] = {k: min(r[k] for r in done) for k in ("wall_s", "peak_rss_mb")}
    return best


def _band_crossover(best):
    """The largest of RK4_SIZES up to which the band, its build spread over RK4_STEPS
    steps, took at most RK4_MARGIN of Horner's time at every one of them, or None."""
    last = None
    if not best or "band_s_per_step" not in best[str(RK4_SIZES[0])]:
        return last
    for n in map(str, RK4_SIZES):
        r = best[n]
        if r["band_s_per_step"] + r["band_build_s"] / RK4_STEPS > RK4_MARGIN * r["horner_s_per_step"]:
            break
        last = int(n)
    return last


def _alternate(sources, measure):
    """ROUNDS records of each source, alternating which source goes first."""
    rounds = {name: [] for name in sources}
    for r in range(ROUNDS):
        for name in list(sources)[:: 1 if r % 2 == 0 else -1]:
            rounds[name].append(measure(sources[name]))
            print(f"sweep: {name}: {json.dumps(rounds[name][-1])}", file=sys.stderr)
    return rounds


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
    if argv[:1] == ["--work-rk4"]:
        return work_rk4(*argv[1:])
    if argv[:1] == ["--work-leapfrog"]:
        return work_leapfrog(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--layer", choices=("verify", "eigenpairs", "rk4", "leapfrog"), default="verify")
    parser.add_argument("--rev", default=None)
    args = parser.parse_args(argv)
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads": 1,
    }
    with tempfile.TemporaryDirectory(prefix="sweep_") as tmp:
        tmp = Path(tmp)
        sources = {}
        if args.rev is not None:
            sys.path.insert(0, str(REPO / "tools"))
            from cli_matrix import extract_revision

            extract_revision(args.rev, tmp / "rev")
            sources[f"revision {_short_revision(args.rev)}"] = tmp / "rev" / "src"
        sources[f"working tree on {_short_revision('HEAD')}"] = REPO / "src"
        bench = {"label": args.label, "layer": args.layer, "host": host}
        if args.layer == "eigenpairs":
            rounds = _alternate(sources, lambda src: measure_worker("--work-eigenpairs", src))
            bench.update(
                command="lattice.eigenpairs(op, range(n - k, n)) for k top modes",
                config={key: CONFIG[key] for key in ("grid", "potential")},
                clock=f"CPU seconds, best of {REPEATS} per worker",
                sources={name: {"rounds": runs, "best_cpu_s": _best(runs)} for name, runs in rounds.items()},
            )
        elif args.layer == "rk4":
            rounds = _alternate(sources, lambda src: measure_worker("--work-rk4", src))
            results = {}
            for name, runs in rounds.items():
                best = _best(runs)
                results[name] = {"rounds": runs, "best_cpu_s": best, "crossover_n": _band_crossover(best)}
            bench.update(
                command=f"{RK4_STEPS} RK4 steps of (phi, p, varphi), dt = half the stability bound",
                config={"grid": RK4_GRID, "potential": RK4_POTENTIAL},
                clock=f"CPU seconds per step, best of {REPEATS} blocks per worker",
                sources=results,
            )
        elif args.layer == "leapfrog":
            rounds = _alternate(sources, lambda src: measure_worker("--work-leapfrog", src))
            bench.update(
                command=(
                    f"Leapfrog.steps over a {LEAPFROG_STEPS}-step block, and {LEAPFROG_STEPS} "
                    "step_leapfrog calls, of (phi, p), dt = half the stability bound"
                ),
                config={key: CONFIG[key] for key in ("grid", "potential")},
                clock=f"CPU seconds per step, best of {REPEATS} blocks per worker",
                sources={name: {"rounds": runs, "best_cpu_s": _best(runs)} for name, runs in rounds.items()},
            )
        else:
            def measure_sizes(src):
                out = Path(tempfile.mkdtemp(prefix="round_", dir=tmp))
                return {str(n): measure(src, n, out) for n in SIZES}

            rounds = _alternate(sources, measure_sizes)
            bench.update(
                command=f"verify --seed {SEED}",
                config=CONFIG,
                cap_s=CAP_S,
                sources={name: {"rounds": runs, "best": _best_verify(runs)} for name, runs in rounds.items()},
            )
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"sweep: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

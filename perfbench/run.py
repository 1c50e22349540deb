"""Benchmark of the schrofield CLI on four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Every repetition is one `schrofield.cli.main` call in a fresh child process
(child.py). With --trace 0 the run alternates timed repetitions of the full
command and of its set-up (the command cut to one step) for S seconds and
reports the end-to-end metrics. With --trace 1 it makes two traced
repetitions, whose span counts must agree exactly, and untraced ones that
give the tracing overhead, and reports the per-layer metrics. Each
repetition's files are checked against the spectral references of
workloads.py and against the first repetition's manifest hashes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --smoke runs all workloads at tiny
sizes through the same code and checks that every metric is reported.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in every child: two threads add a one-off
# thread-pool warm-up of up to a second to the first eigh of a process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(SRC))

try:
    import numpy as np

    import spans
    import workloads as wl
except ImportError as exc:
    sys.exit(f"perfbench: run from the repository root; cannot import schrofield from {SRC}: {exc}")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNTERS = ("runs.files_written", "runs.bytes_written", "runs.bytes_hashed")


def per_layer_units():
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in spans.TOTAL_SPANS:
        units[f"{name}.total_s"] = "s"
    units["lattice.spectral_radius.misses"] = "count"
    units.update({c: "count" if c.endswith("files_written") else "bytes" for c in COUNTERS})
    units["traced_run_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()

# A child still running this many seconds after its run began is killed, and
# no repetition starts in the last 10 s before it, so a run ends within 180 s.
HARD_LIMIT_S = 170.0


class WorkloadRun:
    """Repetitions of one workload at one seed, and their checks."""

    def __init__(self, name, seed, smoke, workdir):
        self.name = name
        self.workdir = workdir
        self.configs = {"run": wl.make_config(name, seed, smoke)}
        self.configs["setup"] = wl.setup_config(self.configs["run"])
        self.paths = {}
        for kind, cfg in self.configs.items():
            self.paths[kind] = workdir / f"{kind}.json"
            self.paths[kind].write_text(json.dumps(wl.program_config(cfg), indent=2))
        self.reference = wl.Reference(name, self.configs["run"])
        self.reps = []
        self.first_hashes = {}

    def parse_only(self, kind):
        """verify has no time steps: its set-up is config.parse_config alone."""
        return kind == "setup" and self.name == "verify"

    def command(self, kind, traced, out_dir):
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC)]
        if traced:
            cmd.append("--trace")
        if self.parse_only(kind):
            return cmd + ["--parse-only", str(self.paths[kind])]
        return cmd + ["--"] + wl.cli_args(self.name, self.paths[kind], out_dir, self.configs[kind])

    def repeat(self, kind, traced, timeout):
        """Run, check and record one repetition."""
        out_dir = self.workdir / f"out-{len(self.reps)}"
        t0 = time.perf_counter()
        result, failures = {}, []
        try:
            proc = subprocess.run(
                self.command(kind, traced, out_dir),
                capture_output=True,
                text=True,
                timeout=timeout,
                cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            failures.append(f"timed out after {timeout:.0f} s")
        except (IndexError, json.JSONDecodeError):
            failures.append(f"no result from child: {proc.stderr.strip()[-500:]}")
        wall = time.perf_counter() - t0
        if result and result["exit_code"] != 0:
            failures.append(f"exit status {result['exit_code']}: {result['error']}")
        if not failures and not self.parse_only(kind):
            try:
                failures += self.reference.check(out_dir, self.configs[kind])
                hashes = wl.manifest_hashes(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"output files unreadable: {exc}")
                hashes = None
            if hashes is not None:
                first = self.first_hashes.setdefault(kind, hashes)
                if hashes != first:
                    failures.append("manifest sha256 differ from the first repetition")
        rep = {
            "kind": kind,
            "traced": traced,
            "wall_s": wall,
            "seconds": result.get("seconds", wall),
            "peak_rss_mb": result.get("peak_rss_mb", 0.0),
            "failures": failures,
        }
        if traced and "spans" in result:
            rep["spans"] = result["spans"]
            rep["counts"] = _counts(result, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.reps.append(rep)
        return rep


def _counts(result, out_dir):
    counts = {f"{name}.calls": s["calls"] for name, s in result["spans"].items()}
    counts["lattice.spectral_radius.misses"] = result["spectral_radius_misses"]
    counts.update(wl.output_counts(out_dir))
    return counts


def _plan(trace):
    """Repetitions every run makes, then the cycle that fills the remaining time."""
    if trace:
        return [("run", True), ("run", False), ("run", True)], [("run", False)]
    first = [("setup", False), ("run", False)] * 2 + [("setup", False)]
    return first, [("run", False), ("run", False), ("setup", False)]


def measure(run, seconds, trace):
    """Repeat until the next repetition would end after `seconds`."""
    start = time.perf_counter()
    first, fill = _plan(trace)
    walls = {}
    for i in itertools.count():
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S - 10:
            break
        if i < len(first):
            item = first[i]
        else:
            item = fill[(i - len(first)) % len(fill)]
            if elapsed + statistics.median(walls[item]) > seconds:
                break
        rep = run.repeat(*item, timeout=HARD_LIMIT_S - elapsed)
        walls.setdefault(item, []).append(rep["wall_s"])


def _distribution(values):
    """Median and the highest percentile that has at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return None
    out = {"n": n, "median": statistics.median(ordered), "samples": ordered}
    if n >= 11:
        out["p_hi"] = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return out


def end_to_end_metrics(reps):
    runs = [r for r in reps if r["kind"] == "run" and not r["traced"]]
    setups = [r for r in reps if r["kind"] == "setup"]
    return {
        "run_s": statistics.median(r["seconds"] for r in runs),
        "setup_s": statistics.median(r["seconds"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer_metrics(reps):
    """Per-layer values and whether the traced repetitions agree on every count."""
    traced = [r for r in reps if r["traced"] and "counts" in r]
    untraced = [r["seconds"] for r in reps if r["kind"] == "run" and not r["traced"]]
    if not traced:
        return {}, False
    values = dict(traced[0]["counts"])
    for name in spans.SPAN_NAMES:
        values[f"{name}.self_s"] = statistics.median(r["spans"][name]["self_s"] for r in traced)
    for name in spans.TOTAL_SPANS:
        values[f"{name}.total_s"] = statistics.median(r["spans"][name]["total_s"] for r in traced)
    values["traced_run_s"] = statistics.median(r["seconds"] for r in traced)
    values["trace_overhead_s"] = values["traced_run_s"] - statistics.median(untraced)
    repeat = all(r["counts"] == traced[0]["counts"] for r in traced)
    return {k: values[k] for k in PER_LAYER}, repeat


def _commit():
    """HEAD of the checkout's git metadata, read directly; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
    }


def run_workload(name, seed, seconds, trace, smoke=False):
    """One benchmark run: (result object, detail record)."""
    base = ROOT / ".perfbench_work"
    workdir = base / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = WorkloadRun(name, seed, smoke, workdir)
        measure(run, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()
    reps = run.reps
    failed = sum(1 for r in reps if r["failures"])
    correct = failed == 0
    if trace:
        values, repeat = per_layer_metrics(reps)
        correct = correct and repeat and bool(values)
        units = PER_LAYER
    else:
        values, repeat = end_to_end_metrics(reps), None
        units = END_TO_END
    n = run.configs["run"]["grid"]["n"]
    detail = {
        "workload": name,
        "why": wl.WHY[name],
        "seed": seed,
        "trace": int(trace),
        "config": wl.program_config(run.configs["run"]),
        "k_dense_mb": 8.0 * n * n / 1e6,
        "environment": environment(),
        "failed_ratio": failed / len(reps),
        "counts_repeat": repeat,
        "samples": {
            "run_s": _distribution([r["seconds"] for r in reps if r["kind"] == "run" and not r["traced"]]),
            "setup_s": _distribution([r["seconds"] for r in reps if r["kind"] == "setup"]),
        },
        "failures": [f for r in reps for f in r["failures"]],
    }
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, detail


def print_report(result, detail):
    print(
        f"{detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
        f"attempted {result['attempted']}, failed {result['failed']}"
    )
    print(f"  {'failed_ratio':34s} {detail['failed_ratio']:14.6g} ratio")
    for key, metric in result["metrics"].items():
        if detail["trace"] and metric["value"] == 0:
            continue
        print(f"  {key:34s} {metric['value']:14.6g} {metric['unit']}")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps(detail, sort_keys=True))


def smoke():
    """Every workload, traced and untraced, at tiny sizes; True when all is well."""
    names = {0: set(END_TO_END), 1: set(PER_LAYER)}
    problems = []
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text())
        if {m["name"] for m in spec["end_to_end"]} != names[0]:
            problems.append("BENCHMARK.json end_to_end names differ from the reported ones")
        if {m["name"] for m in spec["per_layer"]} != names[1]:
            problems.append("BENCHMARK.json per_layer names differ from the reported ones")
        if [w["name"] for w in spec["workloads"]] != list(wl.COMMANDS):
            problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in wl.COMMANDS:
        for trace in (0, 1):
            result, detail = run_workload(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            print_report(result, detail)
            where = f"{name} trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: checks failed")
            missing = names[trace] - set(result["metrics"])
            if missing:
                problems.append(f"{where}: metrics missing {sorted(missing)}")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: FAILED" if problems else "smoke: ok")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.COMMANDS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    args = parser.parse_args()
    if not (SRC / "schrofield" / "cli.py").is_file():
        print(f"perfbench: no schrofield sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        parser.error("--workload is required")
    names = list(wl.COMMANDS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(result, detail)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

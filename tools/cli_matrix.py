"""Byte-identity matrix of the CLI between a git revision and the working tree.

Usage: python3 tools/cli_matrix.py <rev>

Runs a fixed list of commands, each in a fresh process, on a `git archive` of
<rev> and on the working tree's `src`, from the same relative paths. For each
command it compares the files under --out (whether --out exists at all), the
exit code, stdout and stderr. JSON files are compared without their top-level
`wall_time_s` and `timings`, which vary from run to run; every other file is
compared byte for byte. Prints what differs and exits 1 on any difference.

The configs cover both closures; eigenstate, gaussian and `modes` states,
with modes from the dense spectrum and from the stencil eigensolver; every
integrator of the three `run-*` commands; `dequantize`, `spectrum`,
`convergence` and `verify`; and free periodic grids whose states have
zero-mode content.
"""

import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_MODES = {"type": "modes", "coefficients": [[0, 1.0, 0.2], [1, 0.3, -0.4], [3, 0.1, 0.05]]}
_FREE_RING = {"grid": {"n": 40, "x_min": -10.0, "x_max": 10.0, "boundary": "periodic"},
              "potential": "free", "dt": 0.01, "t_final": 0.4}
CONFIGS = {
    "harmonic-gaussian": {
        "grid": {"n": 48, "x_min": -8.0, "x_max": 8.0},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": {"type": "gaussian", "center": -1.0, "width": 0.8, "momentum": 1.5},
        "dt": 0.01,
        "t_final": 0.5,
        "output": {"snapshot_stride": 10},
    },
    "harmonic-eigenstate": {
        "grid": {"n": 40, "x_min": -6.0, "x_max": 6.0},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": "eigenstate:2",
        "dt": 0.01,
        "t_final": 0.4,
        "output": {"snapshot_stride": 8},
    },
    # Large enough for the modes preset to take the stencil eigensolver
    # (`lattice.eigenpairs`) under every integrator but `spectral`.
    "harmonic-modes": {
        "grid": {"n": 300, "x_min": -10.0, "x_max": 10.0},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": _MODES,
        "dt": 0.002,
        "t_final": 0.08,
        "output": {"snapshot_stride": 20},
    },
    "barrier-ring-modes": {
        "grid": {"n": 40, "x_min": -10.0, "x_max": 10.0, "boundary": "periodic"},
        "potential": {"name": "gaussian_barrier", "height": 2.0, "width": 0.7},
        "initial_state": _MODES,
        "dt": 0.01,
        "t_final": 0.4,
        "output": {"snapshot_stride": 10},
    },
    # Zero-mode content in the imaginary part only: dequantize drifts it.
    "free-ring-imaginary-kernel": {
        **_FREE_RING,
        "initial_state": {"type": "modes", "coefficients": [[0, 0.0, 1.0], [1, 0.3, -0.4]]},
    },
    # Zero-mode content in the real part: dequantize and convergence refuse it.
    "free-ring-gaussian": {**_FREE_RING, "initial_state": "gaussian"},
    "free-ring-modes": {**_FREE_RING, "initial_state": _MODES},
}
_STEPPERS = {"run-schrodinger": "crank_nicolson", "run-field": "leapfrog", "run-constrained": "rk4"}


def cases():
    """(case name, CLI arguments after the command's config and out, config) per command."""
    for name, cfg in CONFIGS.items():
        for command, stepper in _STEPPERS.items():
            for integrator in (stepper, "spectral"):
                yield f"{name}.{command}.{integrator}", [command], {**cfg, "integrator": integrator}
        for command in ("dequantize", "spectrum", "convergence"):
            yield f"{name}.{command}", [command], {**cfg, "integrator": "spectral"}
        yield f"{name}.verify", ["verify", "--seed", "3"], {**cfg, "integrator": "spectral"}


def run_side(src, work):
    """Run every case with `src` on the path, in `work`; return {case: outcome}."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    (work / "cfg").mkdir(parents=True)
    outcomes = {}
    for case, args, cfg in cases():
        (work / "cfg" / f"{case}.json").write_text(json.dumps(cfg), encoding="utf-8")
        argv = [*args[:1], "--config", f"cfg/{case}.json", "--out", f"out/{case}", *args[1:]]
        proc = subprocess.run(
            [sys.executable, "-m", "schrofield", *argv],
            cwd=work, env=env, capture_output=True, text=True, check=False,
        )
        outputs = read_outputs(work / "out" / case)
        outcomes[case] = (proc.returncode, proc.stdout, proc.stderr, outputs)
    return outcomes


def read_outputs(out):
    """{file name: comparable content} of an --out directory, or None if it was never made."""
    if not out.is_dir():
        return None
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            obj = json.loads(path.read_text(encoding="utf-8"))
            for key in ("wall_time_s", "timings"):
                obj.pop(key, None)
            files[path.name] = obj
        else:
            files[path.name] = path.read_bytes()
    return files


def json_differences(a, b, where=""):
    """Paths of the leaves where two JSON values differ.

    A list item is labelled by its "name" or "path" entry, else by its index.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(set(a) | set(b))
        return [d for k in keys for d in json_differences(a.get(k), b.get(k), f"{where}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        found = []
        for i, (x, y) in enumerate(zip(a, b)):
            label = x.get("name", x.get("path", i)) if isinstance(x, dict) else i
            found += json_differences(x, y, f"{where}[{label}]")
        return found
    return [] if a == b else [where or "."]


def compare(case, old, new):
    """Lines describing how one case's outcome differs between the two trees."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"exit code {old[0]} -> {new[0]}")
    for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            diff = difflib.ndiff(a.splitlines(), b.splitlines())
            lines += [f"{label} {line}" for line in diff if line[:2] in ("- ", "+ ")]
    files_old, files_new = old[3], new[3]
    if (files_old is None) != (files_new is None):
        lines.append(f"--out {'absent' if files_old is None else 'made'} -> "
                     f"{'absent' if files_new is None else 'made'}")
    elif files_old is not None:
        for name in sorted(set(files_old) | set(files_new)):
            a, b = files_old.get(name), files_new.get(name)
            if a is None or b is None:
                lines.append(f"{name}: only in {'working tree' if a is None else 'revision'}")
            elif isinstance(a, bytes) and a != b:
                changed = sum(x != y for x, y in zip(a.splitlines(), b.splitlines()))
                lines.append(f"{name}: {changed} differing lines")
            elif not isinstance(a, bytes) and a != b:
                lines.append(f"{name}: differs at {', '.join(json_differences(a, b))}")
    return [f"{case}: {line}" for line in lines]


def extract_revision(rev, dest):
    """Write the files of git revision `rev` of this repository into the directory `dest`."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv):
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cli_matrix_") as tmp:
        tmp = Path(tmp)
        extract_revision(argv[0], tmp / "rev")
        old = run_side(tmp / "rev" / "src", tmp / "old")
        new = run_side(REPO / "src", tmp / "new")
    differences = [line for case in old for line in compare(case, old[case], new[case])]
    files = sum(len(outcome[3] or ()) for outcome in new.values())
    print("\n".join(differences))
    print(f"cli_matrix: {len(old)} commands, {files} files in the working tree's runs, "
          f"{len(differences)} differences against {argv[0]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

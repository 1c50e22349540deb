"""The blocked run loop against the same loop one step per block.

`runs._run` steps up to `_BLOCK_STEPS` states into one buffer before it
forms their series rows, checks them and writes the block's snapshot. With
`_BLOCK_STEPS = 1` every block is one step, which is the step-by-step loop.
The two must leave the same run directory byte for byte (the manifest up to
`wall_time_s`), the same exit code and the same messages, also when a step
fails: mid-block, on a block's last step, on a snapshot step, by a blow-up,
by a non-finite state or by a row that overflows.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from schrofield import runs
from schrofield.cli import main

NSTEPS = 150
# Snapshots at 0, 70, 140 and 150; the default blocks are then steps 1-64,
# 65-70, 71-134, 135-140 and 141-150.
STRIDE = 70
COMMANDS = {
    "crank_nicolson": ("run-schrodinger", "_WAVE"),
    "leapfrog": ("run-field", "_FIELD"),
    "rk4": ("run-constrained", "_CONSTRAINED"),
}
# The field the non-finite-state fault poisons: the last row of each picture's state.
LAST_FIELD = {"crank_nicolson": "im", "leapfrog": "p", "rk4": "varphi"}
INTEGRATORS = [
    ("crank_nicolson", "crank_nicolson"),
    ("spectral", "crank_nicolson"),
    ("leapfrog", "leapfrog"),
    ("spectral", "leapfrog"),
    ("rk4", "rk4"),
    ("spectral", "rk4"),
]
FAULTS = {
    "none": (None, None),
    "blowup-mid-block": (30, lambda y: y.__imul__(100.0)),
    "blowup-block-edge": (64, lambda y: y.__imul__(100.0)),
    "blowup-snapshot-step": (70, lambda y: y.__imul__(100.0)),
    "non-finite-state": (100, lambda y: y[-1].__setitem__(3, np.nan)),
    "row-overflow": (136, lambda y: y.__imul__(1e300)),
}


def _config(integrator, boundary):
    if boundary == "dirichlet":
        grid = {"n": 24, "x_min": -6.0, "x_max": 6.0}
        potential = {"name": "harmonic", "omega": 1.0}
    else:
        grid = {"n": 24, "x_min": -6.0, "x_max": 6.0, "boundary": "periodic"}
        potential = {"name": "gaussian_barrier", "height": 3.0, "width": 1.0, "center": 0.0}
    return {
        "grid": grid,
        "potential": potential,
        "initial_state": {"type": "modes", "coefficients": [[0, 1.0, 0.2], [1, 0.3, -0.4]]},
        "integrator": integrator,
        "dt": 0.01,
        "t_final": 0.01 * NSTEPS,
        "output": {"snapshot_stride": STRIDE},
    }


class _Faulty:
    """A stepper with `fault` applied to the state it writes at `step`.

    A block that holds `step` is stepped to it, faulted, then stepped on
    from the faulted state, so any block length sees the same states.
    """

    def __init__(self, stepper, step, fault):
        self._stepper, self._step, self._fault = stepper, step, fault
        self._k = 0

    def steps(self, ys, ky):
        k = self._k
        self._k += len(ys) - 1
        if not k < self._step < k + len(ys):
            return self._stepper.steps(ys, ky)
        j = self._step - k
        head = self._stepper.steps(ys[: j + 1], ky)
        self._fault(ys[j])
        return np.concatenate([head, self._stepper.steps(ys[j:], head[-1])])


def _faulty(steppers, step, fault):
    """A picture's stepper table with each stepper it builds wrapped in `_Faulty`."""
    return {
        name: lambda *args, build=build: _Faulty(build(*args), step, fault)
        for name, build in steppers.items()
    }


def _run(tmp_path, capsys, monkeypatch, name, command, picture, cfg, fault, block):
    step, change = FAULTS[fault]
    if change is not None:
        original = getattr(runs, picture)
        monkeypatch.setattr(
            runs, picture, replace(original, steppers=_faulty(original.steppers, step, change))
        )
    monkeypatch.setattr(runs, "_BLOCK_STEPS", block)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / name
    code = main([command, "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    files = {}
    for file in sorted(out.iterdir()):
        if file.name == "manifest.json":
            manifest = json.loads(file.read_text(encoding="utf-8"))
            manifest.pop("wall_time_s")
            files[file.name] = manifest
        else:
            files[file.name] = file.read_bytes()
    monkeypatch.undo()
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("integrator, stepper", INTEGRATORS)
def test_blocks_match_single_steps(tmp_path, capsys, monkeypatch, integrator, stepper, boundary,
                                   fault):
    command, picture = COMMANDS[stepper]
    cfg = _config(integrator, boundary)
    args = (tmp_path, capsys, monkeypatch)
    blocked = _run(*args, "blocked", command, picture, cfg, fault, runs._BLOCK_STEPS)
    single = _run(*args, "single", command, picture, cfg, fault, 1)
    assert blocked == single
    code, stdout, stderr, files = blocked
    if fault == "none":
        assert code == 0 and stderr == "" and "manifest.json" in files
        assert sorted(files) == [
            "manifest.json", "series.csv", *(f"snapshot_{k:06d}.csv" for k in (0, 70, 140, 150))
        ]
        return
    step = FAULTS[fault][0]
    assert stdout == "" and "manifest.json" not in files
    # Snapshots up to the failing step stay behind; the failing one is not written.
    assert sorted(files) == [f"snapshot_{k:06d}.csv" for k in (0, 70, 140) if k < step]
    if fault == "non-finite-state":
        assert (code, stderr) == (2, f"error: {LAST_FIELD[stepper]} must be finite\n")
    elif fault == "row-overflow":
        assert code == 3 and stderr.startswith("aborted: instability: norm is inf at t=1.36")
    else:
        assert code == 3 and "grew to" in stderr

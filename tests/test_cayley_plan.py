"""The planned Crank-Nicolson solve against its oracle, bit for bit.

`CayleySolver` runs its cyclic reduction as a plan of numpy calls into
buffers made at construction. These tests hold it, and every stepper built
on it, to the bits of `conftest.cayley_oracle`, the same reduction written
out with a fresh array for every intermediate result, on both closures and
on sizes around the dense tail.
"""

import csv
import json

import numpy as np
import pytest

from schrofield import Potential, WaveFunction, build_grid, build_operator
from schrofield import schrodinger as sd
from schrofield.cli import main
from schrofield.config import build_scenario, config_from_dict
from schrofield.lattice import _DENSE_TAIL, CayleySolver, stencil_product

from conftest import cayley_oracle, crank_nicolson_oracle

SIZES = [3, 4, _DENSE_TAIL, _DENSE_TAIL + 1, 2 * _DENSE_TAIL + 1, 801]
BOUNDARIES = ["dirichlet", "periodic"]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _operator(n, boundary):
    rng = np.random.default_rng(n)
    grid = build_grid(n, -20.0, 20.0, boundary)
    return build_operator(grid, Potential(rng.uniform(-50.0, 50.0, n)))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("a", [1e-3, 0.7, -4.0])
def test_solve_matches_the_oracle_bit_for_bit(n, boundary, a):
    op = _operator(n, boundary)
    rng = np.random.default_rng(7)
    solver, oracle = CayleySolver(op, a), cayley_oracle(op, a)
    rhs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
    kept = [r.copy() for r in rhs]
    got = [solver.solve(r) for r in rhs]
    # Each solve returns a fresh array, and leaves its argument as it was.
    for x, r, r0 in zip(got, rhs, kept):
        assert np.array_equal(_bits(x), _bits(oracle(r0)))
        assert np.array_equal(_bits(r), _bits(r0))
    # A real right-hand side is taken as complex; one of another shape is refused.
    real = rng.standard_normal(n)
    assert np.array_equal(_bits(solver.solve(real)), _bits(oracle(real)))
    for wrong in (1.0, real[:1], np.stack([real, real])):
        with pytest.raises(ValueError, match="rhs has shape"):
            solver.solve(wrong)


def _state(n):
    rng = np.random.default_rng(n + 1)
    return rng.standard_normal((2, n))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("a", [1e-3, 0.7, 4.0])
def test_crank_nicolson_steppers_match_the_oracle_bit_for_bit(n, boundary, a):
    op = _operator(n, boundary)
    dt = 2.0 * a * op.hbar
    y0 = _state(n)
    want = crank_nicolson_oracle(op, dt, y0, 5)
    stepper = sd.CrankNicolson(op, dt)
    ys = np.empty_like(want)
    ys[0] = y0
    kys = stepper.steps(ys, stencil_product(op, y0))
    assert np.array_equal(_bits(ys), _bits(want))
    assert np.array_equal(_bits(kys), _bits(stencil_product(op, want[1:])))
    # A second block goes on from the last state as one long block would.
    more = np.empty((3, 2, n))
    more[0] = ys[2]
    stepper.steps(more, kys[1])
    assert np.array_equal(_bits(more), _bits(want[2:5]))
    psi = stepper.step(WaveFunction(re=y0[0], im=y0[1], time=1.5))
    assert np.array_equal(_bits(np.stack([psi.re, psi.im])), _bits(want[1]))
    assert psi.time == 1.5 + dt
    traj = sd.crank_nicolson_trajectory(op, WaveFunction(re=y0[0], im=y0[1]), dt, 5)
    assert np.array_equal(_bits(np.stack([traj.re, traj.im], axis=1)), _bits(want))


def _snapshot_state(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(r["re"]) for r in rows], [float(r["im"]) for r in rows]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("n", [3, 4, 40])
@pytest.mark.parametrize("dt", [1e-300, 1e150, 1e300])
def test_one_step_run_at_extreme_dt_matches_the_oracle(tmp_path, n, boundary, dt):
    cfg = {
        "grid": {"n": n, "x_min": -5.0, "x_max": 5.0, "boundary": boundary},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": {"type": "gaussian", "center": 0.5, "width": 1.0, "momentum": 1.0},
        "integrator": "crank_nicolson",
        "dt": dt,
        "t_final": dt,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run-schrodinger", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    scenario = build_scenario(config_from_dict(cfg))
    want = crank_nicolson_oracle(scenario.operator, dt, np.stack(scenario.initial_pair), 1)
    # The snapshot writes each float as its repr, which reads back exactly.
    assert np.array_equal(_bits(_snapshot_state(out / "snapshot_000001.csv")), _bits(want[1]))

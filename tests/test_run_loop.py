"""The fused run loop and the trajectory helpers against the public library
API, compared with ==.

`runs._run` steps stacked arrays and shares each state's stencil products
between its series row and its next step. Every number it writes must still
be the one that repeated public steps and the public observables give. The
`*_trajectory` helpers step the same kernels, and each of their rows must be
the state that the same number of public steps gives.
"""

import csv

import numpy as np
import pytest

from schrofield import constrained as cn
from schrofield import correspondence as cr
from schrofield import field as fd
from schrofield import lattice, runs
from schrofield import schrodinger as sd
from schrofield.config import build_scenario, config_from_dict

STRIDE = 7
NSTEPS = 25


def _config(integrator, boundary):
    if boundary == "dirichlet":
        grid = {"n": 40, "x_min": -8.0, "x_max": 8.0}
        potential = {"name": "harmonic", "omega": 1.0}
    else:
        grid = {"n": 41, "x_min": -6.0, "x_max": 6.0, "boundary": "periodic"}
        potential = {"name": "gaussian_barrier", "height": 3.0, "width": 1.0, "center": 0.0}
    return {
        "grid": grid,
        "potential": potential,
        "initial_state": {
            "type": "modes",
            "coefficients": [[0, 1.0, 0.2], [1, 0.3, -0.4], [3, 0.1, 0.05]],
        },
        "integrator": integrator,
        "dt": 0.01,
        "t_final": 0.01 * NSTEPS,
        "output": {"snapshot_stride": STRIDE},
    }


def _wave_states(scenario):
    cfg, op = scenario.config, scenario.operator
    psi0 = sd.WaveFunction(*scenario.initial_pair)
    yield psi0
    if cfg.integrator == "crank_nicolson":
        stepper, psi = sd.CrankNicolson(op, cfg.dt), psi0
        for _ in range(NSTEPS):
            psi = stepper.step(psi)
            yield psi
    else:
        for k in range(1, NSTEPS + 1):
            yield sd.propagate_spectral(scenario.spectrum, psi0, k * cfg.dt)


def _wave_expected(op, psi):
    norm = sd.norm_hamiltonian(op, psi)
    row = (psi.time, norm, sd.wave_hamiltonian(op, psi), 2.0 * op.hbar * norm)
    return row, {"re": psi.re, "im": psi.im}


def _field_states(scenario):
    cfg, op = scenario.config, scenario.operator
    s0 = fd.FieldState(*scenario.initial_pair)
    yield s0
    if cfg.integrator == "leapfrog":
        s = s0
        for _ in range(NSTEPS):
            s = fd.step_leapfrog(op, s, cfg.dt)
            yield s
    else:
        for k in range(1, NSTEPS + 1):
            yield fd.propagate_spectral_field(scenario.spectrum, s0, k * cfg.dt)


def _field_expected(op, s):
    norm = sd.norm_hamiltonian(op, cr.quantize(op, s))
    row = (s.time, norm, fd.field_hamiltonian(op, s), 2.0 * op.hbar * norm)
    return row, {"phi": s.phi, "p": s.p}


def _constrained_states(scenario):
    cfg, op = scenario.config, scenario.operator
    s0 = cn.make_onshell(op, *scenario.initial_pair)
    yield s0
    if cfg.integrator == "rk4":
        s = s0
        for _ in range(NSTEPS):
            s = cn.step_rk4(op, s, cfg.dt)
            yield s
    else:
        f0 = fd.FieldState(phi=s0.phi, p=s0.p)
        for k in range(1, NSTEPS + 1):
            f = fd.propagate_spectral_field(scenario.spectrum, f0, k * cfg.dt)
            yield cn.make_onshell(op, f.phi, f.p, time=f.time)


def _constrained_expected(op, s):
    norm = sd.norm_hamiltonian(op, sd.WaveFunction(re=s.varphi, im=s.p))
    c1, c2 = cn.constraint_residuals(op, s)
    row = (
        s.time,
        norm,
        cn.constrained_hamiltonian(op, s),
        float(np.max(np.abs(c1))),
        float(np.max(np.abs(c2))),
        2.0 * op.hbar * norm,
    )
    return row, {"phi": s.phi, "p": s.p, "varphi": s.varphi, "pi": s.pi}


PICTURES = {
    "crank_nicolson": (runs.run_schrodinger, _wave_states, _wave_expected),
    "spectral-wave": (runs.run_schrodinger, _wave_states, _wave_expected),
    "leapfrog": (runs.run_field, _field_states, _field_expected),
    "spectral-field": (runs.run_field, _field_states, _field_expected),
    "rk4": (runs.run_constrained, _constrained_states, _constrained_expected),
    "spectral-constrained": (runs.run_constrained, _constrained_states, _constrained_expected),
}


def _read_csv(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("case", sorted(PICTURES))
def test_run_loop_matches_public_api(tmp_path, case, boundary):
    run, states, expected = PICTURES[case]
    scenario = build_scenario(config_from_dict(_config(case.split("-")[0], boundary)))
    op = scenario.operator
    run(scenario, tmp_path, quiet=True)
    series = _read_csv(tmp_path / "series.csv")
    assert len(series) == NSTEPS + 1
    snapshots = 0
    for k, state in enumerate(states(scenario)):
        row, fields = expected(op, state)
        assert tuple(series[k].values()) == row, k
        if k % STRIDE == 0 or k == NSTEPS:
            snap = _read_csv(tmp_path / f"snapshot_{k:06d}.csv")
            for name, values in fields.items():
                assert [r[name] for r in snap] == values.tolist(), (k, name)
            snapshots += 1
    assert snapshots == len(list(tmp_path.glob("snapshot_*.csv")))


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize(
    "integrator, states, helper, fields",
    [
        ("crank_nicolson", _wave_states, sd.crank_nicolson_trajectory, ("re", "im")),
        ("leapfrog", _field_states, fd.leapfrog_trajectory, ("phi", "p")),
        ("rk4", _constrained_states, cn.rk4_trajectory, ("phi", "p", "varphi", "pi")),
    ],
)
def test_trajectory_helpers_match_public_steps(integrator, states, helper, fields, boundary):
    scenario = build_scenario(config_from_dict(_config(integrator, boundary)))
    dt = scenario.config.dt
    expected = list(states(scenario))
    traj = helper(scenario.operator, expected[0], dt, NSTEPS)
    assert traj.times.tolist() == (dt * np.arange(NSTEPS + 1)).tolist()
    for k, state in enumerate(expected):
        for name in fields:
            assert getattr(traj, name)[k].tolist() == getattr(state, name).tolist(), (k, name)


def test_leapfrog_trajectory_takes_two_stencil_products_per_step(monkeypatch):
    scenario = build_scenario(config_from_dict(_config("leapfrog", "periodic")))
    s0 = fd.FieldState(*scenario.initial_pair)
    calls = []
    product = lattice.stencil_product

    def counted(op, f):
        calls.append(f.shape)
        return product(op, f)

    # field imports the name, and apply looks it up in lattice: count both
    monkeypatch.setattr(lattice, "stencil_product", counted)
    monkeypatch.setattr(fd, "stencil_product", counted)
    for nsteps in (10, 20):
        calls.clear()
        fd.leapfrog_trajectory(scenario.operator, s0, scenario.config.dt, nsteps)
        # K^2 phi of the initial state, then K phi and K^2 phi per step
        assert len(calls) == 2 + 2 * nsteps

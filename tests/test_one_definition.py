"""The potential map, the constraint surface and each integrator's step have one definition.

`correspondence._wave` forms Psi = -K phi + i p, `constrained._onshell_varphi`
the surface varphi = -K phi, `constrained._rk4` the RK4 step, `field._leapfrog`
the leapfrog step and `schrodinger.CrankNicolson.advance` the Crank-Nicolson
step. Each test patches one of them and requires the patch to show up in
every consumer, so that no consumer keeps a copy of its own that a fault in
the definition would miss.
"""

import csv

import numpy as np

from schrofield import constrained as cn
from schrofield import correspondence as cr
from schrofield import field as fd
from schrofield import runs
from schrofield import schrodinger as sd
from schrofield.config import build_scenario, config_from_dict
from schrofield.field import FieldState
from schrofield.lattice import apply, stencil_product
from schrofield.quadrature import Trajectory


def _scenario(integrator):
    return build_scenario(config_from_dict({
        "grid": {"n": 24, "x_min": -6.0, "x_max": 6.0},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": {"type": "gaussian", "center": -1.0, "width": 1.0, "momentum": 1.0},
        "integrator": integrator,
        "dt": 0.01,
        "t_final": 0.2,
    }))


def _table(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def test_one_map_reaches_every_consumer(monkeypatch, tmp_path):
    scenario = _scenario("leapfrog")
    op = scenario.operator
    rng = np.random.default_rng(5)
    phi, p = rng.standard_normal((2, op.n))
    kphi = apply(op, phi)
    # re = +K phi, the map's sign flipped
    monkeypatch.setattr(cr, "_wave", lambda kphi, p: (kphi, p))

    s = FieldState(phi=phi, p=p)
    for psi in (cr.quantize(op, s), cr.field_to_wave(op, s)):
        np.testing.assert_array_equal(psi.re, kphi)
    traj = Trajectory([0.0, 0.1], phi=np.stack([phi, -phi]), p=np.stack([p, p]))
    np.testing.assert_array_equal(cr.quantize_trajectory(op, traj).re, np.stack([kphi, -kphi]))
    np.testing.assert_array_equal(
        cr.probability_and_phase(op, s)[1], op.hbar * np.arctan2(p, kphi)
    )

    runs.run_field(scenario, tmp_path, quiet=True)
    snap = _table(tmp_path / "snapshot_000000.csv")
    np.testing.assert_array_equal(snap["S"], op.hbar * np.arctan2(snap["p"], apply(op, snap["phi"])))


def test_one_surface_reaches_every_consumer(monkeypatch, tmp_path):
    scenario = _scenario("rk4")
    op = scenario.operator
    rng = np.random.default_rng(6)
    phi, p = rng.standard_normal((2, op.n))
    kphi = apply(op, phi)
    onshell = cn._onshell_varphi
    # the surface moved to varphi = -2 K phi
    monkeypatch.setattr(cn, "_onshell_varphi", lambda kphi: 2.0 * onshell(kphi))

    np.testing.assert_array_equal(cn.make_onshell(op, phi, p).varphi, -2.0 * kphi)
    # On the true surface, c1 against the moved one is K phi, exactly.
    s = cn.ConstrainedState(phi=phi, p=p, varphi=-kphi, pi=np.zeros(op.n))
    np.testing.assert_array_equal(cn.constraint_residuals(op, s)[0], kphi)
    np.testing.assert_array_equal(cn.offshell_pi_rate(op, s), kphi / op.hbar)
    traj = Trajectory([0.0, 0.1, 0.2], phi=np.stack([phi] * 3), varphi=np.stack([-kphi] * 3))
    np.testing.assert_array_equal(cn.lagrangian_residuals(op, traj)[1], np.stack([kphi] * 3))

    # The run starts on the moved surface and leaves it: c1_inf is measured from it.
    runs.run_constrained(scenario, tmp_path, quiet=True)
    series, snap = _table(tmp_path / "series.csv"), _table(tmp_path / "snapshot_000020.csv")
    c1 = snap["varphi"] + 2.0 * apply(op, snap["phi"])
    assert series["c1_inf"][0] == 0.0
    assert series["c1_inf"][-1] == np.abs(c1).max() > 1e-3


def test_one_rk4_step_reaches_every_consumer(monkeypatch, tmp_path):
    scenario = _scenario("rk4")
    op, dt = scenario.operator, scenario.config.dt
    nsteps = 20
    # A grid whose steps go through the band compiled from _rk4.
    assert 9 <= op.n <= cn._BAND_MAX_N
    s0 = cn.make_onshell(op, *scenario.initial_pair)
    half = cn.rk4_trajectory(op, s0, dt / 2, nsteps)
    rk4 = cn._rk4
    # the step halved: every consumer must now give the half-step trajectory
    monkeypatch.setattr(cn, "_rk4", lambda op, y, dt, out: rk4(op, y, dt / 2, out))

    traj = cn.rk4_trajectory(op, s0, dt, nsteps)
    s = s0
    for k in range(1, nsteps + 1):
        s = cn.step_rk4(op, s, dt)
        for name in ("phi", "p", "varphi"):
            assert getattr(traj, name)[k].tolist() == getattr(half, name)[k].tolist(), (k, name)
            assert getattr(s, name).tolist() == getattr(half, name)[k].tolist(), (k, name)

    runs.run_constrained(scenario, tmp_path, quiet=True)
    snap = _table(tmp_path / f"snapshot_{nsteps:06d}.csv")
    for name in ("phi", "p", "varphi"):
        assert snap[name].tolist() == getattr(half, name)[-1].tolist(), name


def test_one_leapfrog_step_reaches_every_consumer(monkeypatch, tmp_path):
    scenario = _scenario("leapfrog")
    op, dt = scenario.operator, scenario.config.dt
    nsteps = 20
    s0 = FieldState(*scenario.initial_pair)
    half = fd.leapfrog_trajectory(op, s0, dt / 2, nsteps)
    leapfrog = fd._leapfrog
    # the step halved: every consumer must now give the half-step trajectory
    monkeypatch.setattr(
        fd, "_leapfrog", lambda op, y, kk_phi, dt, *rows: leapfrog(op, y, kk_phi, dt / 2, *rows)
    )

    traj = fd.leapfrog_trajectory(op, s0, dt, nsteps)
    s = s0
    for k in range(1, nsteps + 1):
        s = fd.step_leapfrog(op, s, dt)
        for name in ("phi", "p"):
            assert getattr(traj, name)[k].tolist() == getattr(half, name)[k].tolist(), (k, name)
            assert getattr(s, name).tolist() == getattr(half, name)[k].tolist(), (k, name)

    runs.run_field(scenario, tmp_path, quiet=True)
    snap = _table(tmp_path / f"snapshot_{nsteps:06d}.csv")
    for name in ("phi", "p"):
        assert snap[name].tolist() == getattr(half, name)[-1].tolist(), name


def test_one_crank_nicolson_step_reaches_every_consumer(monkeypatch, tmp_path):
    scenario = _scenario("crank_nicolson")
    op, dt = scenario.operator, scenario.config.dt
    nsteps = 20
    psi0 = sd.WaveFunction(*scenario.initial_pair)
    double = sd.crank_nicolson_trajectory(op, psi0, dt, 2 * nsteps)
    advance = sd.CrankNicolson.advance

    def twice(self, y, ky, out):
        advance(self, y, ky, out)
        y = out.copy()
        advance(self, y, stencil_product(op, y), out)

    # two steps in one: every consumer must now give every other state of
    # the unpatched trajectory
    monkeypatch.setattr(sd.CrankNicolson, "advance", twice)

    traj = sd.crank_nicolson_trajectory(op, psi0, dt, nsteps)
    psi = psi0
    for k in range(1, nsteps + 1):
        psi = sd.step_crank_nicolson(op, psi, dt)
        for name in ("re", "im"):
            want = getattr(double, name)[2 * k].tolist()
            assert getattr(traj, name)[k].tolist() == want, (k, name)
            assert getattr(psi, name).tolist() == want, (k, name)

    runs.run_schrodinger(scenario, tmp_path, quiet=True)
    snap = _table(tmp_path / f"snapshot_{nsteps:06d}.csv")
    for name in ("re", "im"):
        assert snap[name].tolist() == getattr(double, name)[-1].tolist(), name

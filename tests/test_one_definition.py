"""The potential map and the constraint surface each have one definition.

`correspondence._wave` forms Psi = -K phi + i p and `constrained._onshell_varphi`
the surface varphi = -K phi. Each test patches one of them and requires the
patch to show up in every consumer, so that no consumer keeps a copy of its
own that a fault in the definition would miss.
"""

import csv

import numpy as np

from schrofield import constrained as cn
from schrofield import correspondence as cr
from schrofield import runs
from schrofield.config import build_scenario, config_from_dict
from schrofield.field import FieldState
from schrofield.lattice import apply
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

"""The matrix-free stability bound: `lattice.spectral_radius` against dense
`eigvalsh`, the dt gates built on it, and runs that never assemble K."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrofield import (
    FieldState,
    Potential,
    StabilityError,
    build_grid,
    build_operator,
    step_leapfrog,
)
from schrofield.config import ConfigError, build_scenario, config_from_dict
from schrofield import constrained, field, lattice
from schrofield.constrained import make_onshell, rk4_stability_bound, rk4_trajectory, step_rk4
from schrofield.field import leapfrog_stability_bound, leapfrog_trajectory
from schrofield.lattice import spectral_radius
from schrofield.presets import potential_from_spec
from schrofield.runs import run_constrained, run_field

from conftest import count_calls, dense_k, two_end_spectral_radius

# Bisection on inertia counts and eigvalsh are both backward stable: each is
# within a few ulp of ||K|| = max|kappa| of the exact value. The worst
# relative difference measured over 2,268 operators (both closures,
# n = 3..65, seven kinds of potential) was 2.4e-15.
RTOL = 1e-13


def _relative_gap(op):
    want = np.max(np.abs(np.linalg.eigvalsh(dense_k(op))))
    return abs(spectral_radius(op) - want) / want


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n", range(3, 66))
def test_bound_matches_eigvalsh_harmonic(boundary, n):
    grid = build_grid(n, -6.0, 6.0, boundary)
    x = grid.points()
    op = build_operator(grid, Potential(0.5 * x * x), hbar=0.9, mass=1.3)
    assert _relative_gap(op) <= RTOL


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n", range(3, 66))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bound_matches_eigvalsh_random(boundary, n, sign, rng):
    # A few spikes of up to 1e4 on top of O(1) noise: V > 0 puts max|kappa|
    # at the bottom of the kappa spectrum, V < 0 at the top, so both ends of
    # the bisection are the one that decides.
    grid = build_grid(n, -3.0, 3.0, boundary)
    v = rng.uniform(-1.0, 1.0, n)
    spikes = rng.choice(n, size=max(1, n // 8), replace=False)
    v[spikes] = sign * rng.uniform(1e2, 1e4, spikes.size)
    op = build_operator(grid, Potential(v))
    w = np.linalg.eigvalsh(dense_k(op))
    assert (np.abs(w[-1]) > np.abs(w[0])) == (sign < 0)
    assert _relative_gap(op) <= RTOL


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(3, 40),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    span=st.floats(0.1, 100.0),
    hbar=st.floats(0.05, 20.0),
    mass=st.floats(0.05, 20.0),
    data=st.data(),
)
def test_bound_matches_eigvalsh_property(n, boundary, span, hbar, mass, data):
    v = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    op = build_operator(build_grid(n, 0.0, span, boundary), Potential(v), hbar=hbar, mass=mass)
    assert _relative_gap(op) <= RTOL


_RADIUS_POTENTIALS = {
    "harmonic": {"name": "harmonic", "omega": 1.0},
    "free": "free",
    "square_well": {"name": "square_well", "depth": 5.0, "width": 2.0},
    "barrier": {"name": "gaussian_barrier", "height": 5.0, "width": 1.0, "center": 0.5},
    # deep enough that the top end of the spectrum dominates on most grids
    "well300": {"name": "square_well", "depth": 300.0, "width": 2.0},
    "well30000": {"name": "square_well", "depth": 30000.0, "width": 2.0},
}


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n", [3, 4, 5, 9, 40, 200, 301, 1200])
@pytest.mark.parametrize(
    "potential", list(_RADIUS_POTENTIALS.values()), ids=list(_RADIUS_POTENTIALS)
)
def test_radius_is_the_two_end_bisection(boundary, n, potential):
    # `spectral_radius` bisects one end after the other on the counts of the
    # operator's closure; the oracle alternates the ends on the stopped LDL^T
    # test. Both must land on the same float.
    grid = build_grid(n, -10.0, 10.0, boundary)
    op = build_operator(grid, potential_from_spec(grid, potential))
    assert spectral_radius(op).hex() == two_end_spectral_radius(op).hex()


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bound_rejects_an_overflowed_stencil(boundary):
    # hbar^2 overflows to inf; a NaN bound would let every dt through
    grid = build_grid(8, -1.0, 1.0, boundary)
    with pytest.raises(ValueError, match="operator entries must be finite"):
        build_operator(grid, Potential(np.zeros(8)), hbar=1e200)


def _run_cfg(integrator, dt, n=48, boundary="dirichlet"):
    return {
        "grid": {"n": n, "x_min": -8.0, "x_max": 8.0, "boundary": boundary},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": {"type": "gaussian", "center": 0.5, "width": 1.0},
        "integrator": integrator,
        "dt": dt,
        "t_final": 3 * dt,
    }


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize(
    "integrator, bound_of", [("leapfrog", leapfrog_stability_bound), ("rk4", rk4_stability_bound)]
)
def test_dt_exactly_at_bound_is_rejected(boundary, integrator, bound_of):
    op = build_scenario(config_from_dict(_run_cfg(integrator, 1e-4, boundary=boundary))).operator
    bound = bound_of(op)
    with pytest.raises(ConfigError, match=f"unstable for {integrator}"):
        build_scenario(config_from_dict(_run_cfg(integrator, bound, boundary=boundary)))
    below = float(np.nextafter(bound, 0.0))
    build_scenario(config_from_dict(_run_cfg(integrator, below, boundary=boundary)))


def test_steps_reject_dt_exactly_at_bound(small_harmonic, rng):
    op, _ = small_harmonic
    phi, p = rng.standard_normal(40), rng.standard_normal(40)
    lf = leapfrog_stability_bound(op)
    for dt in (lf, -lf):
        with pytest.raises(StabilityError):
            step_leapfrog(op, FieldState(phi=phi, p=p), dt)
    step_leapfrog(op, FieldState(phi=phi, p=p), float(np.nextafter(lf, 0.0)))
    rk = rk4_stability_bound(op)
    with pytest.raises(StabilityError):
        step_rk4(op, make_onshell(op, phi, p), rk)
    step_rk4(op, make_onshell(op, phi, p), float(np.nextafter(rk, 0.0)))


def test_every_stepping_path_rejects_an_unstable_dt(small_harmonic, rng):
    op, _ = small_harmonic
    phi, p = rng.standard_normal(40), rng.standard_normal(40)
    lf = leapfrog_stability_bound(op)
    for dt in (lf, -lf, 2.0 * lf, 0.0):
        with pytest.raises(StabilityError):
            step_leapfrog(op, FieldState(phi=phi, p=p), dt)
        with pytest.raises(StabilityError):
            leapfrog_trajectory(op, FieldState(phi=phi, p=p), dt, 3)
    rk = rk4_stability_bound(op)
    for dt in (rk, 2.0 * rk, -0.5 * rk, 0.0):
        with pytest.raises(StabilityError):
            step_rk4(op, make_onshell(op, phi, p), dt)
        with pytest.raises(StabilityError):
            rk4_trajectory(op, make_onshell(op, phi, p), dt, 3)


def test_a_trajectory_looks_the_bound_up_once(small_harmonic, rng, monkeypatch):
    op, _ = small_harmonic
    phi, p = rng.standard_normal(40), rng.standard_normal(40)
    lf, rk = 0.5 * leapfrog_stability_bound(op), 0.5 * rk4_stability_bound(op)
    calls = []
    for module, name in ((field, "leapfrog_stability_bound"), (constrained, "rk4_stability_bound")):
        bound = getattr(module, name)
        monkeypatch.setattr(module, name, lambda op, bound=bound: calls.append(op) or bound(op))
    leapfrog_trajectory(op, FieldState(phi=phi, p=p), lf, 50)
    rk4_trajectory(op, make_onshell(op, phi, p), rk, 50)
    assert len(calls) == 2


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize(
    "integrator, run", [("leapfrog", run_field), ("rk4", run_constrained)]
)
def test_runs_from_a_gaussian_never_assemble_k(tmp_path, boundary, integrator, run, monkeypatch):
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    scenario = build_scenario(config_from_dict(_run_cfg(integrator, 1e-3, boundary=boundary)))
    run(scenario, str(tmp_path / "run"), quiet=True)
    assert (tmp_path / "run" / "manifest.json").exists()
    assert eighs == []
    assert "spectrum" not in vars(scenario)


def test_leapfrog_run_at_n_20000_from_a_gaussian(tmp_path, monkeypatch):
    # A dense K here is 3.2 GB; the stencil path needs a few MB.
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    cfg = _run_cfg("leapfrog", 1e-6, n=20_000)
    cfg["grid"].update(x_min=-20.0, x_max=20.0)
    scenario = build_scenario(config_from_dict(cfg))
    run_field(scenario, str(tmp_path / "run"), quiet=True)
    assert (tmp_path / "run" / "manifest.json").exists()
    assert eighs == []

"""Sturm counts and zero modes from the stencil, and the current study that reads them.

`lattice._count_below` (Dirichlet) and `lattice._count_below_periodic` count
eigenvalues of K below a shift from the LDL^T pivots; `zero_mode_count`
takes two such counts. The current-residual study runs from the stencil and
decomposes K only on a grid with zero modes, or where the series would cost
more than the dense spectrum.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from schrofield import cli, config, eigendecompose, lattice, runs
from schrofield import schrodinger as sd
from schrofield import correspondence as cr
from schrofield import field as fd
from schrofield.config import assemble, build_scenario, config_from_dict
from schrofield.lattice import build_grid, build_operator, zero_mode_count
from schrofield.presets import potential_from_spec

from conftest import dense_k


def _sturm_count(op, x):
    """The stencil count of eigenvalues of K below x, on K scaled as the counts take it."""
    scale, diag, b = lattice._scaled_stencil(op)
    shift = np.ldexp(x, scale)
    if op.grid.boundary == "periodic":
        return lattice._count_below_periodic(diag, b, shift)
    return lattice._count_below(diag, b * b, shift)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 64, 201])
def test_sturm_counts_match_eigvalsh(boundary, n, rng):
    grid = build_grid(n, -5.0, 5.0, boundary)
    op = build_operator(grid, lattice.Potential(3.0 * rng.standard_normal(n)))
    kappa = np.linalg.eigvalsh(dense_k(op))
    spread = kappa[-1] - kappa[0]
    shifts = np.concatenate([
        rng.uniform(kappa[0] - 0.1 * spread, kappa[-1] + 0.1 * spread, 30),
        0.5 * (kappa[1:] + kappa[:-1]),
    ])
    for x in shifts:
        assert _sturm_count(op, float(x)) == np.sum(kappa < x)


def _operator(n, boundary, potential):
    grid = build_grid(n, -10.0, 10.0, boundary)
    return build_operator(grid, potential_from_spec(grid, potential))


@pytest.mark.parametrize(
    "n, boundary, potential, zero_modes",
    [
        (200, "dirichlet", {"name": "harmonic", "omega": 1.0}, 0),
        (64, "periodic", {"name": "harmonic", "omega": 1.0}, 0),
        (90, "dirichlet", {"name": "square_well", "depth": 3.0, "width": 3.0}, 0),
        (64, "periodic", {"name": "square_well", "depth": 3.0, "width": 3.0}, 0),
        (40, "periodic", "free", 1),
        (41, "periodic", "free", 1),
        (40, "dirichlet", "free", 0),
    ],
)
def test_zero_mode_count_matches_eigendecompose(n, boundary, potential, zero_modes):
    op = _operator(n, boundary, potential)
    assert zero_mode_count(op) == len(eigendecompose(op).zero_modes) == zero_modes


def _config(n, boundary, potential, half_width=10.0):
    return {
        "grid": {"n": n, "x_min": -half_width, "x_max": half_width, "boundary": boundary},
        "potential": potential,
        "initial_state": {"type": "gaussian", "center": -1.0, "width": 1.0, "momentum": 1.0},
        "integrator": "spectral",
        "dt": 0.01,
        "t_final": 0.5,
    }


def _scenario(n, boundary, potential, half_width=10.0):
    return build_scenario(config_from_dict(_config(n, boundary, potential, half_width)))


def _count_decompositions(monkeypatch):
    calls = []
    original = lattice.eigendecompose

    def counted(op):
        calls.append(op.n)
        return original(op)

    for module in (config, lattice, runs):
        monkeypatch.setattr(module, "eigendecompose", counted)
    return calls


def test_study_decomposes_nothing_without_zero_modes(monkeypatch):
    # from 200 points up the series costs less than a dense spectrum
    scenario = _scenario(200, "dirichlet", {"name": "harmonic", "omega": 1.0}, 20.0)
    calls = _count_decompositions(monkeypatch)
    errors = runs._current_errors(scenario, 3)
    assert calls == []
    assert "spectrum" not in vars(scenario)
    assert all(np.isfinite(errors))


def test_study_decomposes_each_level_with_a_zero_mode(monkeypatch):
    scenario = _scenario(48, "periodic", "free")
    calls = _count_decompositions(monkeypatch)
    runs._current_errors(scenario, 2)
    # level 0 reads the scenario's spectrum, level 1 decomposes its own grid
    assert calls == [48, 96]


def test_study_leaves_no_refined_operator_alive():
    # A refined operator may outlive the study in the cache of
    # `spectral_radius`, holding its O(n) stencil; no refined level's dense
    # spectrum may.
    scenario = _scenario(48, "periodic", "free")
    runs._current_errors(scenario, 3)
    gc.collect()
    refined = [
        obj for obj in gc.get_objects()
        if isinstance(obj, lattice.Spectrum) and obj.operator.n in (96, 192)
    ]
    assert refined == []


# A stiff harmonic grid: its potential spans about 2e10, so the series would
# need about 8e8 terms, where a dense spectrum of 401 points takes milliseconds.
_STIFF = (200, "dirichlet", {"name": "harmonic", "omega": 1e4}, 20.0)


def test_series_cost_rule_picks_the_dense_path_for_a_stiff_grid():
    times = 0.01 * np.arange(9)
    mild = _scenario(200, "dirichlet", {"name": "harmonic", "omega": 1.0}, 20.0)
    assert sd._chebyshev_is_cheaper(mild.operator, times)
    assert not sd._chebyshev_is_cheaper(_scenario(*_STIFF).operator, times)


def test_stiff_study_takes_the_dense_path_in_bounded_memory(monkeypatch):
    scenario = _scenario(*_STIFF)
    calls = _count_decompositions(monkeypatch)
    tracemalloc.start()
    try:
        errors = runs._current_errors(scenario, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # level 0 reads the scenario's spectrum, level 1 decomposes its own grid
    assert calls == [200, 401]
    assert peak < 32e6
    np.testing.assert_allclose(errors, _dense_errors(scenario, 2), rtol=1e-7)


def test_stiff_verify_finishes_in_bounded_memory(tmp_path):
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(_config(*_STIFF)))
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--seed", "7", "--quiet", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert peak < 64e6


def _dense_errors(scenario, levels):
    """The study as the dense path computes it: dequantize, then the spectral field flow."""
    cfg = scenario.config
    dt, n, errors = min(cfg.dt, 0.02), cfg.grid_n, []
    for level in range(levels):
        if level > 0:
            n = runs._refine(n, cfg.boundary)
        spec = eigendecompose(assemble(cfg, n)[2])
        kernel = cr.kernel_basis(spec) if spec.zero_modes else None
        s0 = cr.dequantize(spec, runs._packet_probe_state(spec.grid, kernel), 0.0, tol=1e-8)
        steps = runs._CURRENT_BASE_STEPS * 2**level
        traj = fd.spectral_field_trajectory(spec, s0, dt / 2**level, steps)
        errors.append(float(np.nanmax(np.abs(cr.current_residual(spec.operator, traj)))))
    return errors


@pytest.mark.parametrize(
    "n, boundary, potential",
    [
        (60, "dirichlet", {"name": "harmonic", "omega": 1.0}),
        (48, "periodic", {"name": "gaussian_barrier", "height": 2.0, "width": 0.7}),
        (48, "periodic", "free"),
    ],
)
def test_study_matches_the_dense_path(n, boundary, potential):
    scenario = _scenario(n, boundary, potential)
    np.testing.assert_allclose(
        runs._current_errors(scenario, 3), _dense_errors(scenario, 3), rtol=1e-7
    )


def _dense_flow_errors(scenario, levels):
    """The study with each level's probe evolved by the dense wave flow."""
    cfg = scenario.config
    dt, n, errors = min(cfg.dt, 0.02), cfg.grid_n, []
    for level in range(levels):
        if level > 0:
            n = runs._refine(n, cfg.boundary)
        spec = eigendecompose(assemble(cfg, n)[2])
        psi = runs._packet_probe_state(spec.grid, cr.kernel_basis(spec))
        times = (dt / 2**level) * np.arange(runs._CURRENT_BASE_STEPS * 2**level + 1)
        y = sd._flow(spec, psi.re, psi.im)(times)
        res = cr._current_residual(spec.operator, times, -y[:, 0], y[:, 1])
        errors.append(float(np.nanmax(np.abs(res))))
    return errors


@pytest.mark.parametrize(
    "n, boundary, potential, decomposed",
    [
        (200, "dirichlet", {"name": "harmonic", "omega": 1.0}, []),
        (200, "periodic", {"name": "gaussian_barrier", "height": 2.0, "width": 0.7}, []),
        (200, "periodic", "free", [200, 400, 800]),
    ],
)
def test_series_levels_match_the_dense_flow(monkeypatch, n, boundary, potential, decomposed):
    # On these finer grids the dequantized reference of _dense_errors carries
    # its own roundoff, up to 1e-3 relative at 800 points, so the reference
    # evolves the same probe by the dense flow.
    scenario = _scenario(n, boundary, potential, 20.0)
    calls = _count_decompositions(monkeypatch)
    errors = runs._current_errors(scenario, 3)
    # every level took the series; only the free ring decomposed, for its kernel
    assert calls == decomposed
    np.testing.assert_allclose(errors, _dense_flow_errors(scenario, 3), rtol=1e-7)

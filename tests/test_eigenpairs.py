"""The stencil eigensolver `lattice.eigenpairs` against the dense `eigh` oracle,
the sign rule both share, and the selection in `Scenario.superpose` between
them.

Vectors are compared at unit 2-norm, where an eigenvector computed with a
residual of a few eps max|kappa| is off by at most that over its gap to the
rest of the spectrum (Davis and Kahan); 64 eps max|kappa| / gap leaves ample
room for both solvers' residuals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrofield import Potential, build_grid, build_operator, eigendecompose
from schrofield import lattice
from schrofield.config import build_scenario, config_from_dict
from schrofield.lattice import ISOLATION_RTOL, eigenpairs
from schrofield.presets import potential_from_spec
from schrofield.runs import run_field

from conftest import count_calls

EPS = np.finfo(float).eps


def _gaps(kappa):
    """Distance from each eigenvalue to its nearest neighbour."""
    d = np.diff(kappa)
    return np.minimum(np.r_[np.inf, d], np.r_[d, np.inf])


def _gershgorin(op):
    return float(np.max(np.abs(op.diagonal))) + 2.0 * op.coupling


def check_against_eigh(op, cols):
    """eigenpairs(op, cols) matches eigh to 64 eps max|kappa| / gap, or declines only at a small gap."""
    spec = eigendecompose(op)
    kappa = spec.eigenvalues
    radius = float(np.max(np.abs(kappa)))
    gaps = _gaps(kappa)[cols]
    threshold = ISOLATION_RTOL * _gershgorin(op)
    pairs = eigenpairs(op, cols)
    # Within 1% of the threshold either answer is right.
    if np.any(np.abs(gaps - threshold) < 0.01 * threshold + 8 * EPS * radius):
        return pairs
    assert (pairs is None) == bool(np.any(gaps < threshold))
    if pairs is None:
        return None
    w, v = pairs
    assert np.all(np.abs(w - kappa[cols]) <= 16 * EPS * radius)
    unit = np.sqrt(op.grid.dx)
    bound = 64 * EPS * radius / gaps
    err = np.max(np.abs(v - spec.vectors[:, cols]), axis=0) * unit
    assert np.all(err <= bound), (err, bound)
    gram = (v.T @ v) * op.grid.dx - np.eye(len(cols))
    assert np.all(np.abs(gram) <= np.maximum.outer(bound, bound) + 16 * EPS)
    return pairs


def _op(n, potential, x_min=-10.0, x_max=10.0):
    grid = build_grid(n, x_min, x_max, "dirichlet")
    return build_operator(grid, potential_from_spec(grid, potential))


POTENTIALS = [
    "free",
    {"name": "harmonic", "omega": 1.0},
    {"name": "square_well", "depth": 5.0, "width": 2.0},
    {"name": "gaussian_barrier", "height": 3.0, "width": 1.0, "center": 0.5},
]


@pytest.mark.parametrize("n", [3, 50, 201, 800])
@pytest.mark.parametrize("potential", POTENTIALS, ids=lambda p: p if isinstance(p, str) else p["name"])
def test_eigenpairs_match_eigh(n, potential, monkeypatch):
    op = _op(n, potential)
    low = list(range(max(n - 8, 0), n))
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    assert eigenpairs(op, low) is not None
    assert eighs == []
    assert check_against_eigh(op, low) is not None
    # the top of |kappa| may hold pairs closer than the isolation gap
    check_against_eigh(op, [0, n // 2])


@st.composite
def inline_operators(draw):
    n = draw(st.integers(3, 40))
    span = draw(st.floats(1.0, 200.0))
    v = draw(
        st.one_of(
            st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n),
            st.lists(st.sampled_from([0.0, 1.0, 7.5]), min_size=n, max_size=n),
        )
    )
    op = build_operator(build_grid(n, 0.0, span, "dirichlet"), Potential(v))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8, unique=True))
    return op, cols


@settings(max_examples=150, deadline=None, database=None)
@given(inline_operators())
def test_eigenpairs_match_eigh_on_inline_potentials(case):
    check_against_eigh(*case)


def _double_well(n, height):
    """Harmonic well on [-10, 10] with a gaussian barrier in the middle; as a potential spec."""
    x = build_grid(n, -10.0, 10.0, "dirichlet").points()
    return {"name": "inline", "values": (0.5 * x * x + height * np.exp(-0.5 * x * x)).tolist()}


def test_double_well_below_the_isolation_gap_is_declined():
    op = _op(200, _double_well(200, 30.0))
    kappa = eigendecompose(op).eigenvalues
    # the tunnelling split of the lowest pair
    assert kappa[-1] - kappa[-2] < 1e-3 * ISOLATION_RTOL * _gershgorin(op)
    assert eigenpairs(op, [199]) is None
    assert eigenpairs(op, [197]) is None
    assert check_against_eigh(_op(200, _double_well(200, 5.0)), [198, 199]) is not None


def test_eigenpairs_refuses_periodic_grids_and_missing_columns():
    op = build_operator(build_grid(8, 0.0, 1.0, "periodic"), Potential(np.zeros(8)))
    with pytest.raises(ValueError, match="Dirichlet"):
        eigenpairs(op, [0])
    with pytest.raises(ValueError, match="out of range"):
        eigenpairs(_op(8, "free"), [3, 8])


def _scenario(n=300, boundary="dirichlet", integrator="leapfrog", state=None, potential=None):
    return build_scenario(
        config_from_dict(
            {
                "grid": {"n": n, "x_min": -10.0, "x_max": 10.0, "boundary": boundary},
                "potential": potential or {"name": "harmonic", "omega": 1.0},
                "initial_state": state or {"type": "modes", "coefficients": [[0, 1.0, 0.5], [2, -0.3, 0.2]]},
                "integrator": integrator,
                "dt": 1e-4,
                "t_final": 1e-3,
            }
        )
    )


def test_modes_from_the_stencil_match_the_spectrum():
    stencil = _scenario()
    assert "spectrum" not in stencil.__dict__
    dense = _scenario(integrator="spectral")
    for a, b in zip(stencil.initial_pair, dense.initial_pair):
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))
    assert "spectrum" in dense.__dict__


def test_repeated_mode_indices_take_the_last_entry():
    for integrator in ("leapfrog", "spectral"):
        repeated = {"type": "modes", "coefficients": [[1, 5.0, 5.0], [0, 1.0, 0.5], [1, 0.3, -0.4]]}
        once = {"type": "modes", "coefficients": [[0, 1.0, 0.5], [1, 0.3, -0.4]]}
        a = _scenario(integrator=integrator, state=repeated).initial_pair
        b = _scenario(integrator=integrator, state=once).initial_pair
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "kwargs, dense",
    [
        pytest.param({}, False, id="stencil"),
        pytest.param({"state": "eigenstate:3"}, False, id="eigenstate"),
        pytest.param({"boundary": "periodic"}, True, id="periodic"),
        pytest.param({"integrator": "spectral"}, True, id="spectral"),
        pytest.param({"n": 64}, True, id="below-crossover"),
        pytest.param({"potential": _double_well(300, 30.0)}, True, id="double-well"),
    ],
)
def test_superpose_selects_the_dense_spectrum_only_where_needed(monkeypatch, kwargs, dense):
    calls = []
    original = lattice.eigendecompose
    monkeypatch.setattr(
        "schrofield.config.eigendecompose", lambda op: calls.append(op) or original(op)
    )
    _scenario(**kwargs).initial_pair
    assert len(calls) == int(dense)


def test_modes_run_at_n20000_never_builds_k(tmp_path, monkeypatch):
    # A dense K here is 3.2 GB and its eigh takes minutes.
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    monkeypatch.setattr("schrofield.config.eigendecompose", None)
    scenario = build_scenario(
        config_from_dict(
            {
                "grid": {"n": 20000, "x_min": -20.0, "x_max": 20.0},
                "potential": {"name": "harmonic", "omega": 1.0},
                "initial_state": {
                    "type": "modes",
                    "coefficients": [[0, 1.0, 0.2], [1, 0.3, -0.4], [3, 0.1, 0.05]],
                },
                "integrator": "leapfrog",
                "dt": 2e-6,
                "t_final": 1e-5,
            }
        )
    )
    run_field(scenario, tmp_path / "run", quiet=True)
    assert eighs == []
    assert (tmp_path / "run" / "snapshot_000005.csv").exists()

"""The Horner-form RK4 kernel against the dense Taylor-map oracle.

Classical RK4 on the linear system of (phi, p, varphi) is the degree-4
Taylor polynomial of dt L. `constrained._rk4` evaluates it by Horner's rule
with four stencil products; on every grid and every stable dt it must agree
with the oracle's extended-precision sum to a small multiple of the roundoff
that any float evaluation of the map makes.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schrofield import Potential, build_grid, build_operator
from schrofield import constrained as cn

from conftest import rk4_taylor_oracle

EPS = np.finfo(float).eps
SETTINGS = settings(max_examples=25, deadline=None, database=None)


@lru_cache(maxsize=None)
def _operator(boundary, n):
    """Harmonic Dirichlet grid, or a periodic ring with a barrier."""
    if boundary == "dirichlet":
        grid = build_grid(n, -8.0, 8.0, boundary)
        x = grid.points()
        values = 0.5 * x * x
    else:
        grid = build_grid(n, -6.0, 6.0, boundary)
        x = grid.points()
        values = 3.0 * np.exp(-0.5 * x * x)
    return build_operator(grid, Potential(values), hbar=0.7, mass=1.3)


@pytest.mark.parametrize("n", [3, 4, 5, 40, 200])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@SETTINGS
@given(fraction=st.floats(1e-6, 0.999), seed=st.integers(0, 2**32 - 1))
@example(fraction=0.999, seed=0)
def test_rk4_kernel_matches_taylor_oracle(boundary, n, fraction, seed):
    op = _operator(boundary, n)
    dt = fraction * cn.rk4_stability_bound(op)
    y = np.random.default_rng(seed).standard_normal((3, n))
    before = y.copy()
    out = np.full_like(y, np.nan)
    assert cn._rk4(op, y, dt, out) is out
    assert np.array_equal(y, before)
    want, scale = rk4_taylor_oracle(op, y, dt)
    assert np.all(np.abs(out - want) <= 16 * EPS * scale)


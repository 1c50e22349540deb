"""The RK4 step, in both of its forms, against the dense Taylor-map oracle.

Classical RK4 on the linear system of (phi, p, varphi) is the degree-4
Taylor polynomial of dt L. `constrained._rk4` evaluates it by Horner's rule
with four stencil products, and `constrained.Rk4` compiles it into a
9-point band on grids of 9 to `_BAND_MAX_N` points. On every grid and every
stable dt each must agree with the oracle's extended-precision sum to a
small multiple of the roundoff that any float evaluation of the map makes.
"""

import tracemalloc
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


def _horner(op, y, dt, out):
    assert cn._rk4(op, y, dt, out) is out


def _mapped(op, y, dt, out):
    """The step as every consumer takes it: banded from 9 to _BAND_MAX_N points."""
    step = cn.Rk4(op, dt)
    assert (step._band is not None) == (9 <= op.n <= cn._BAND_MAX_N)
    step.advance(y, out)


# Rings of 10 and 17 points wrap their last 1 and 8 columns onto colours of
# their own; 9 and 18 are whole numbers of colours.
SIZES = [3, 4, 5, 9, 10, 17, 18, 40, 200, cn._BAND_MAX_N, cn._BAND_MAX_N + 1]


@pytest.mark.parametrize("path", [_horner, _mapped], ids=["horner", "map"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@SETTINGS
@given(fraction=st.floats(1e-6, 0.999), seed=st.integers(0, 2**32 - 1))
@example(fraction=0.999, seed=0)
def test_rk4_step_matches_taylor_oracle(boundary, n, path, fraction, seed):
    op = _operator(boundary, n)
    dt = fraction * cn.rk4_stability_bound(op)
    y = np.random.default_rng(seed).standard_normal((3, n))
    before = y.copy()
    out = np.full_like(y, np.nan)
    path(op, y, dt, out)
    assert np.array_equal(y, before)
    want, scale = rk4_taylor_oracle(op, y, dt)
    assert np.all(np.abs(out - want) <= 16 * EPS * scale)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_rk4_kernel_steps_a_stacked_batch(boundary):
    """`_rk4` on a (3, 2, 5, n) batch gives each member's own step, bit for bit."""
    op = _operator(boundary, 40)
    dt = 0.5 * cn.rk4_stability_bound(op)
    y = np.random.default_rng(3).standard_normal((3, 2, 5, op.n))
    out = cn._rk4(op, y, dt, np.empty_like(y))
    for i in np.ndindex(2, 5):
        one = cn._rk4(op, y[:, i[0], i[1]], dt, np.empty((3, op.n)))
        assert out[:, i[0], i[1]].tolist() == one.tolist()


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_band_build_memory_is_linear_in_n(boundary):
    """At the largest banded size the build holds O(n) floats, far from one n x n array."""
    n = cn._BAND_MAX_N
    op = _operator(boundary, n)
    dt = 0.5 * cn.rk4_stability_bound(op)
    tracemalloc.start()
    try:
        coeffs, idx = cn._band(op, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs.shape == (3, 18, n) and idx.shape == (18, n)
    # Probes, responses and Horner temporaries of at most 17 colours: about
    # 2 to 3 kB per point measured at n = 300 to 2400.
    assert peak <= 4096 * n
    assert peak <= 8 * n * n / 2


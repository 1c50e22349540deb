"""The wave flow as a Chebyshev series on the stencil, against the dense flow.

`schrodinger._chebyshev_flow` evaluates exp(i K t / hbar) Psi from stencil
products alone; the dense `schrodinger._flow`, which turns eigencoefficients,
is its oracle. Its Bessel coefficients are checked against the integral
J_k(z) = (1 / 2 pi) int_0^{2 pi} cos(k theta - z sin theta) d theta, which
the trapezoid rule on m points gives up to aliasing terms J_{k +- m}.
"""

import numpy as np
import pytest

from schrofield import Potential, build_grid, build_operator, eigendecompose
from schrofield import schrodinger as sd

# Largest difference from the dense flow, relative to the state's largest entry.
FLOW_RTOL = 1e-11


def _operator(n, boundary, potential):
    grid = build_grid(n, -10.0, 10.0, boundary)
    x = grid.points()
    values = 0.5 * x * x if potential == "harmonic" else np.zeros(n)
    return build_operator(grid, Potential(values))


def _terms(op, t):
    """Terms of the series that `_chebyshev_flow` sums up to time t."""
    r = sd._gershgorin(op)[1]
    return len(sd._chebyshev_coefficients(np.abs(np.atleast_1d(t)).max(keepdims=True) * r / op.hbar))


def _check_against_dense(op, t, rng):
    re, im = rng.standard_normal((2, op.n))
    ref = sd._flow(eigendecompose(op), re, im)(t)
    got = sd._chebyshev_flow(op, re, im)(t)
    assert got.shape == ref.shape == (np.shape(t) + (2, op.n))
    assert np.max(np.abs(got - ref)) <= FLOW_RTOL * np.max(np.abs(ref))


GRIDS = [
    pytest.param(300, "dirichlet", "harmonic", id="dirichlet-harmonic"),
    pytest.param(64, "periodic", "harmonic", id="periodic-harmonic"),
    pytest.param(64, "periodic", "free", id="free-ring-even"),
    pytest.param(65, "periodic", "free", id="free-ring-odd"),
    pytest.param(5, "dirichlet", "free", id="dirichlet-n5"),
]
TIMES = [
    pytest.param(0.0, id="zero"),
    pytest.param(0.013, id="scalar"),
    pytest.param(-0.3, id="negative"),
    pytest.param(np.linspace(0.0, 0.08, 17), id="study-times"),
    pytest.param(np.array([0.5, -0.2, 0.0, 1.1]), id="mixed-times"),
]


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("n, boundary, potential", GRIDS)
def test_flow_matches_the_dense_flow(n, boundary, potential, t, rng):
    _check_against_dense(_operator(n, boundary, potential), t, rng)


def test_free_ring_has_the_zero_mode_the_flow_keeps(rng):
    op = _operator(64, "periodic", "free")
    assert len(eigendecompose(op).zero_modes) == 1
    # the constant is the zero mode: the flow leaves it where it is
    const = np.ones(op.n)
    got = sd._chebyshev_flow(op, const, 0.5 * const)(np.array([0.3, 2.0]))
    assert np.max(np.abs(got - np.array([const, 0.5 * const]))) <= FLOW_RTOL


def test_flow_of_more_than_a_thousand_terms(rng):
    op = _operator(300, "dirichlet", "harmonic")
    assert _terms(op, 4.0) > 1000
    _check_against_dense(op, 4.0, rng)
    _check_against_dense(op, np.array([0.01, 4.0]), rng)


def test_flow_at_time_zero_is_the_identity(rng):
    op = _operator(40, "periodic", "harmonic")
    re, im = rng.standard_normal((2, op.n))
    assert _terms(op, 0.0) == 1
    np.testing.assert_array_equal(sd._chebyshev_flow(op, re, im)(0.0), [re, im])


def _bessel_by_quadrature(k, z, m=8192):
    theta = 2.0 * np.pi * np.arange(m) / m
    return np.mean(np.cos(k * theta - z * np.sin(theta)))


@pytest.mark.parametrize("z", [1e-8, 0.3, 1.0, 2.404825557695773, 10.0, 100.0, 1000.0, -7.5])
def test_bessel_values_match_their_integral(z):
    j = sd._bessel_j(np.array([z]))[:, 0]
    assert len(j) > abs(z)
    for k in range(0, min(len(j), 1200), 7):
        assert abs(j[k] - _bessel_by_quadrature(k, z)) <= 1e-13


def test_bessel_values_are_normalised():
    z = np.array([0.0, 1e-8, 0.3, 2.404825557695773, 10.0, 100.0, 1000.0, -7.5, -300.0])
    j = sd._bessel_j(z)
    np.testing.assert_allclose(j[0] + 2.0 * j[2::2].sum(axis=0), 1.0, rtol=0.0, atol=4e-16)
    # J_k(-z) = (-1)^k J_k(z)
    sign = (-1.0) ** np.arange(len(j))
    np.testing.assert_allclose(sd._bessel_j(-z), sign[:, None] * j, rtol=1e-15, atol=1e-300)


def test_bessel_values_at_zero():
    j = sd._bessel_j(np.array([0.0, 3.0]))
    assert j[0, 0] == 1.0
    assert not np.any(j[1:, 0])
    coeffs = sd._chebyshev_coefficients(np.array([0.0]))
    np.testing.assert_array_equal(coeffs, [[1.0]])


def test_term_count_follows_the_bessel_tail():
    for z in (0.5, 40.0, 2000.0):
        coeffs = sd._chebyshev_coefficients(np.array([z]))
        j = sd._bessel_j(np.array([z]))[:, 0]
        kept = len(coeffs)
        assert kept > z
        assert 2.0 * np.abs(j[kept:]).sum() <= sd._CHEBYSHEV_TAIL
        assert 2.0 * np.abs(j[kept - 1 :]).sum() > sd._CHEBYSHEV_TAIL
        # the recurrence started well past the kept orders
        assert len(j) > kept + 10

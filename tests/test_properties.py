"""Property tests over random small grids: the O(n) stencil, Cayley solve and
bracket tables against their dense oracles, and the quantize/dequantize round
trip against exact propagation.

Each example draws a grid of n = 3..24 points (3..300 for the Cayley solve,
so that its cyclic reduction runs levels before the dense tail) with either
closure, physical constants and a potential that is zero (a free grid;
periodic free grids have a zero mode) or random.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schrofield import (
    Potential,
    WaveFunction,
    apply,
    build_grid,
    build_operator,
    dequantize,
    eigendecompose,
    kernel_basis,
    propagate_spectral,
    quantize,
)
from schrofield.brackets import (
    BlockTable,
    dirac_structure,
    sector_smallest_singular_values,
)
from schrofield.lattice import _DENSE_TAIL, CayleySolver, spectral_radius

from conftest import dense_k, dense_table, dirac_structure_generic, stencil_error_bound

EPS = np.finfo(float).eps
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def operators(draw, max_n=24):
    n = draw(st.integers(3, max_n))
    boundary = draw(st.sampled_from(["dirichlet", "periodic"]))
    span = draw(st.floats(0.1, 100.0))
    hbar = draw(st.floats(0.05, 20.0))
    mass = draw(st.floats(0.05, 20.0))
    v = draw(
        st.one_of(
            st.just([0.0] * n),
            st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        )
    )
    grid = build_grid(n, 0.0, span, boundary)
    return build_operator(grid, Potential(v), hbar=hbar, mass=mass)


def _free_periodic(n=8):
    return build_operator(build_grid(n, 0.0, 1.0, "periodic"), Potential(np.zeros(n)))


def _entries(top):
    """Zero, or a magnitude in [1e-3, top]: no product then underflows into the
    subnormal range, where the relative error bounds below do not hold."""
    return st.one_of(st.just(0.0), st.floats(1e-3, top), st.floats(-top, -1e-3))


def _vector(data, size):
    return np.array(data.draw(st.lists(_entries(1e3), min_size=size, max_size=size)))


@SETTINGS
@given(op=operators(), data=st.data())
def test_apply_matches_dense_product(op, data):
    f = _vector(data, op.n)
    assert np.all(np.abs(apply(op, f) - dense_k(op) @ f) <= stencil_error_bound(op, f))


def _check_cayley_solve(op, a, z):
    eye, k = np.eye(op.n), dense_k(op)
    rhs = (eye + 1j * a * k) @ z
    want = np.linalg.solve(eye - 1j * a * k, rhs)
    solver = CayleySolver(op, a)
    got = solver.solve(rhs)
    # Both solves are backward stable, and I - i a K has Hermitian part I, so
    # its inverse has norm at most 1 and the forward error is at most a
    # modest multiple of n eps ||I - i a K|| ||x||.
    norm_a = np.hypot(1.0, a * spectral_radius(op))
    bound = 64 * op.n * EPS * norm_a * np.linalg.norm(want)
    assert np.linalg.norm(got - want) <= bound
    # The reduction halves the system (rounding up) level by level and stops
    # at the first size within the dense tail. The plan holds each level's
    # right-hand side, level 0 first.
    size = op.n
    for r in solver.inputs[:-1]:
        assert len(r) == size > _DENSE_TAIL
        size = (size + 1) // 2
    assert len(solver.inputs[-1]) == size <= _DENSE_TAIL
    assert solver._tail_inverse.shape == (size, size)


def _seeded_vector(rng, size):
    """As `_vector` draws, but from a seeded generator: up to 300 entries are
    slow to draw one by one."""
    return rng.choice([-1.0, 0.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 3.0, size)


@SETTINGS
@given(op=operators(max_n=300), a=st.floats(-10.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_cayley_solver_matches_dense_solve(op, a, seed):
    rng = np.random.default_rng(seed)
    _check_cayley_solve(op, a, _seeded_vector(rng, op.n) + 1j * _seeded_vector(rng, op.n))


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n", [_DENSE_TAIL, _DENSE_TAIL + 1, 2 * _DENSE_TAIL + 1, 800])
def test_cayley_solver_matches_dense_solve_around_the_tail(n, boundary):
    rng = np.random.default_rng(n)
    grid = build_grid(n, -20.0, 20.0, boundary)
    op = build_operator(grid, Potential(rng.uniform(-50.0, 50.0, n)))
    for a in (1e-3, 0.7, -4.0):
        _check_cayley_solve(op, a, rng.standard_normal(n) + 1j * rng.standard_normal(n))


@st.composite
def tables(draw, op):
    """A random table of 1..4 x 1..4 blocks of degree 0..2 over the operator."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    powers = draw(st.integers(1, 3))
    size = rows * cols * powers
    flat = draw(st.lists(_entries(10.0), min_size=size, max_size=size))
    coeffs = np.array(flat).reshape(rows, cols, powers)
    return BlockTable(coeffs, op)


def _abs_bound(table):
    """The dense matrix of sum_k |c_k| |K|^k: what every rounding error scales with."""
    op = table.op
    k_abs = np.abs(dense_k(op))
    powers = [np.eye(op.n)]
    for _ in range(table.coeffs.shape[2] - 1):
        powers.append(powers[-1] @ k_abs)
    return np.block(
        [[sum(abs(c) * pk for c, pk in zip(poly, powers)) for poly in row] for row in table.coeffs]
    )


@SETTINGS
@given(op=operators(), data=st.data())
def test_table_matvec_and_max_abs_match_dense(op, data):
    for table in (data.draw(tables(op)), dirac_structure(op)):
        dense = dense_table(table)
        v = _vector(data, dense.shape[1])
        bound = 32 * EPS * (_abs_bound(table) @ np.abs(v))
        assert np.all(np.abs(table.matvec(v) - dense @ v) <= bound)
        assert np.array_equal(table @ v, table.matvec(v))
        scale = float(np.max(_abs_bound(table)))
        assert abs(table.max_abs() - float(np.max(np.abs(dense)))) <= 32 * EPS * scale


@SETTINGS
@given(op=operators())
@example(op=_free_periodic())
def test_dirac_structure_matches_generic_oracle(op):
    got = dense_table(dirac_structure(op))
    want = dirac_structure_generic(op)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@SETTINGS
@given(op=operators())
@example(op=_free_periodic())
def test_sector_singular_values_match_dense_svd(op):
    jd = dirac_structure(op)
    spec = eigendecompose(op)
    got = sector_smallest_singular_values(jd, spec)
    for key, names in (("phi_p", ("phi", "p")), ("varphi_p", ("varphi", "p"))):
        svals = np.linalg.svd(dense_table(jd.sector(names)), compute_uv=False)
        # eigh and the dense SVD are each accurate to a small multiple of
        # n eps times the sector's norm, its largest singular value
        assert abs(got[key] - svals[-1]) <= 64 * op.n * EPS * svals[0]
    if op.grid.boundary == "periodic" and np.all(op.diagonal == -2.0 * op.coupling):
        # a free periodic grid: the constant mode sits in K's kernel
        assert got["varphi_p"] <= 64 * op.n * EPS * spectral_radius(op) / op.grid.dx


@SETTINGS
@given(op=operators(), t=st.floats(0.1, 5.0), seed=st.integers(0, 2**32 - 1))
@example(op=_free_periodic(), t=5.0, seed=0)
def test_quantize_dequantize_round_trip_is_exact_evolution(op, t, seed):
    # The state is drawn as verify's reconstruction_round_trip draws it, and
    # its real kernel content, outside the image of the map, projected out.
    spec = eigendecompose(op)
    rng = np.random.default_rng(seed)
    re0 = rng.standard_normal(op.n)
    kernel = kernel_basis(spec)
    if kernel.count:
        re0 = re0 - kernel.modes @ (op.grid.dx * (kernel.modes.T @ re0))
    psi0 = WaveFunction(re=re0, im=rng.standard_normal(op.n))
    back = quantize(op, dequantize(spec, psi0, t, tol=1e-10))
    ref = propagate_spectral(spec, psi0, t)
    amp = max(np.max(np.abs(ref.re)), np.max(np.abs(ref.im)))
    err = max(np.max(np.abs(back.re - ref.re)), np.max(np.abs(back.im - ref.im))) / amp
    # Verify's tolerance, 1e-10, unless roundoff must exceed it: dequantize
    # divides by kappa (error ~ eps cond K), and quantize applies K to the
    # linear drift of the zero modes (error ~ eps max|kappa| t / hbar).
    kappa = np.abs(spec.eigenvalues)
    live = np.delete(kappa, spec.zero_modes)
    cond = live.max() / live.min()
    phase = kappa.max() * t / op.hbar
    assert err <= max(1e-10, 64 * EPS * (cond + phase))

import numpy as np
import pytest

from schrofield import (
    EllipticObstructionError,
    Potential,
    apply,
    build_grid,
    build_operator,
    eigendecompose,
    inner_product,
    solve_elliptic,
)
from schrofield import lattice
from schrofield.presets import potential_from_spec

from conftest import dense_k, stencil_error_bound


def test_grid_dirichlet_spacing():
    g = build_grid(3, 0.0, 4.0, "dirichlet")
    assert g.dx == 1.0
    assert np.allclose(g.points(), [1.0, 2.0, 3.0])


def test_grid_periodic_spacing():
    g = build_grid(4, 0.0, 4.0, "periodic")
    assert g.dx == 1.0
    assert np.allclose(g.points(), [0.0, 1.0, 2.0, 3.0])


def test_grid_fine_spacing():
    g = build_grid(400, -10.0, 10.0, "dirichlet")
    assert abs(g.dx - 20.0 / 401.0) < 1e-15
    assert abs(g.dx - 0.049875) < 1e-5


@pytest.mark.parametrize(
    "args",
    [
        (2, 0.0, 1.0, "dirichlet"),
        (10, 0.0, 0.0, "dirichlet"),
        (10, 1.0, 0.0, "dirichlet"),
        (10, 0.0, np.inf, "dirichlet"),
        (10, np.nan, 1.0, "periodic"),
        (10, 0.0, 1.0, "absorbing"),
    ],
)
def test_grid_rejects_bad_input(args):
    with pytest.raises(ValueError):
        build_grid(*args)


def test_free_stencil_matrix(free3):
    expected = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    assert np.array_equal(apply(free3, np.eye(3)), expected)


def test_periodic_stencil_circulant(periodic4):
    row = np.array([-2.0, 1.0, 0.0, 1.0])
    k = apply(periodic4, np.eye(4))
    for i in range(4):
        assert np.array_equal(k[i], np.roll(row, i))
    # constant vector is an exact zero mode (row sums vanish)
    assert np.array_equal(apply(periodic4, np.ones(4)), np.zeros(4))


def test_operator_exactly_symmetric(harmonic400):
    op, _ = harmonic400
    k = apply(op, np.eye(op.n))
    assert np.array_equal(k, k.T)


def test_operator_shape_mismatch():
    g = build_grid(5, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_operator(g, Potential(np.zeros(4)))


def test_operator_rejects_bad_constants():
    g = build_grid(5, 0.0, 1.0)
    v = Potential(np.zeros(5))
    with pytest.raises(ValueError):
        build_operator(g, v, hbar=0.0)
    with pytest.raises(ValueError):
        build_operator(g, v, mass=-1.0)


def test_harmonic_ground_energy(harmonic400):
    _, spec = harmonic400
    assert abs(-spec.eigenvalues[-1] - 0.5) < 2e-3


def test_apply_zero_and_linearity(free3, rng):
    assert np.array_equal(apply(free3, np.zeros(3)), np.zeros(3))
    f = rng.standard_normal(3)
    g = rng.standard_normal(3)
    lhs = apply(free3, 2.0 * f - 3.0 * g)
    rhs = 2.0 * apply(free3, f) - 3.0 * apply(free3, g)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-14)


def test_apply_dirichlet_sine_modes():
    # sine vectors are exact eigenvectors of the free Dirichlet stencil
    n = 31
    grid = build_grid(n, 0.0, 1.0, "dirichlet")
    op = build_operator(grid, Potential(np.zeros(n)), hbar=1.0, mass=0.5)
    j = np.arange(1, n + 1)
    for k in (1, 5, 17):
        s = np.sin(np.pi * k * j / (n + 1))
        kappa = -(2.0 * 1.0 / (0.5 * grid.dx**2)) * np.sin(np.pi * k / (2 * (n + 1))) ** 2
        assert np.max(np.abs(apply(op, s) - kappa * s)) < 1e-9 * np.max(np.abs(dense_k(op)))


def test_apply_matches_dense_oracle(harmonic400, rng):
    op, _ = harmonic400
    f = rng.standard_normal(400)
    k = dense_k(op)
    dense = np.array([np.dot(k[i], f) for i in range(400)])
    assert np.all(np.abs(apply(op, f) - dense) <= stencil_error_bound(op, f))


@pytest.mark.parametrize("boundary, x_max", [("dirichlet", 8.0), ("periodic", 7.5)])
def test_apply_bitwise_on_exact_data(boundary, x_max, rng):
    # dx = 1/2, hbar = 1, m = 1/2: the coupling is 4 and the diagonal -8 - V.
    # With integer V and fields every product and sum is exact in any order,
    # so the stencil must reproduce the dense product bit for bit.
    grid = build_grid(15, 0.0, x_max, boundary)
    assert grid.dx == 0.5
    v = rng.integers(-5, 6, 15).astype(float)
    op = build_operator(grid, Potential(v), hbar=1.0, mass=0.5)
    assert op.coupling == 4.0
    assert np.array_equal(op.diagonal, -8.0 - v)
    fields = rng.integers(-9, 10, (3, 15)).astype(float)
    stacked = apply(op, fields)
    k = dense_k(op)
    assert np.array_equal(stacked, fields @ k)
    for f, row in zip(fields, stacked):
        assert np.array_equal(apply(op, f), k @ f)
        assert np.array_equal(apply(op, f), row)


_POTENTIALS = [
    "free",
    {"name": "harmonic", "omega": 1.0},
    {"name": "square_well", "depth": 5.0, "width": 2.0},
    {"name": "gaussian_barrier", "height": 3.0, "width": 1.0, "center": 0.5},
]


def _bits(a):
    # uint64 views compare signed zeros and every other bit
    return a.view(np.uint64)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n", [*range(3, 12), 40])
@pytest.mark.parametrize("potential", _POTENTIALS, ids=lambda p: p if isinstance(p, str) else p["name"])
def test_stencil_of_the_identity_is_the_dense_oracle(boundary, n, potential):
    # The stencil product of the identity, in its own memory or not, is K;
    # `eigendecompose` hands eigh the same bits read off comb probes
    # (`_dense`), whose ring colouring depends on n mod 3. Periodic n=3 has
    # its two corner updates on both ends of a row.
    grid = build_grid(n, -4.0, 4.0, boundary)
    op = build_operator(grid, potential_from_spec(grid, potential), hbar=0.7, mass=1.3)
    want = _bits(dense_k(op))
    assert np.array_equal(_bits(lattice.stencil_product(op, np.eye(n))), want)
    eye = np.eye(n)
    assert np.array_equal(_bits(lattice.stencil_product(op, eye, out=eye)), want)
    assert np.array_equal(_bits(lattice._dense(op)), want)

    w, v = np.linalg.eigh(dense_k(op))
    v = lattice._signed(v / np.sqrt(op.grid.dx))
    spec = eigendecompose(op)
    assert np.array_equal(_bits(spec.eigenvalues), _bits(w))
    assert np.array_equal(_bits(spec.vectors), _bits(v))


def test_apply_shape_mismatch(free3):
    for bad in (np.zeros(4), np.zeros((2, 4)), 1.0):
        with pytest.raises(ValueError):
            apply(free3, bad)


def test_eigendecompose_free3_closed_form(free3):
    spec = eigendecompose(free3)
    expected = np.sort([-2.0 + 2.0 * np.cos(k * np.pi / 4.0) for k in (1, 2, 3)])
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)
    assert np.allclose(
        spec.eigenvalues, [-2.0 - np.sqrt(2.0), -2.0, -2.0 + np.sqrt(2.0)], atol=1e-12
    )


def test_eigendecompose_periodic_zero_mode(periodic4):
    spec = eigendecompose(periodic4)
    assert len(spec.zero_modes) == 1


def test_eigendecompose_harmonic_ladder(harmonic400):
    _, spec = harmonic400
    energies = -spec.eigenvalues[::-1][:3]
    assert np.allclose(energies, [0.5, 1.5, 2.5], atol=5e-3)


def test_eigenvector_residual_and_orthonormality(harmonic400):
    op, spec = harmonic400
    kmax = np.max(np.abs(spec.eigenvalues))
    res = dense_k(op) @ spec.vectors - spec.vectors * spec.eigenvalues
    assert np.max(np.abs(res)) < 1e-10 * kmax
    gram = op.grid.dx * spec.vectors.T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(400))) < 1e-12


def test_spectral_completeness(harmonic400, rng):
    _, spec = harmonic400
    f = rng.standard_normal(400)
    back = spec.synthesize(spec.coefficients(f))
    assert np.max(np.abs(back - f)) < 1e-10 * np.max(np.abs(f))


def test_inner_product_values(periodic4):
    grid = periodic4.grid
    ones = np.ones(4)
    assert inner_product(ones, ones, grid) == 4.0
    with pytest.raises(ValueError):
        inner_product(ones, np.ones(5), grid)


def test_inner_product_eigenvectors(harmonic400):
    op, spec = harmonic400
    u0 = spec.vectors[:, -1]
    u1 = spec.vectors[:, -2]
    assert abs(inner_product(u0, u0, op.grid) - 1.0) < 1e-12
    assert abs(inner_product(u0, u1, op.grid)) < 1e-12


def test_solve_elliptic_trivial_and_eigen(harmonic400):
    op, spec = harmonic400
    assert np.array_equal(solve_elliptic(spec, np.zeros(400)), np.zeros(400))
    u0 = spec.vectors[:, -1]
    k0 = spec.eigenvalues[-1]
    c = solve_elliptic(spec, k0 * u0)
    assert np.max(np.abs(c - u0)) < 1e-10


def test_solve_elliptic_roundtrip(harmonic400, rng):
    op, spec = harmonic400
    rhs = rng.standard_normal(400)
    c = solve_elliptic(spec, rhs)
    assert np.max(np.abs(apply(op, c) - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_solve_elliptic_obstruction(periodic4):
    spec = eigendecompose(periodic4)
    with pytest.raises(EllipticObstructionError) as err:
        solve_elliptic(spec, np.ones(4), tol=1e-10)
    assert abs(err.value.magnitude - 1.0) < 1e-12


def test_second_order_consistency():
    # apply(K, sin) converges to (hbar^2/2m) * (-sin) at interior points
    errors = []
    n = 49
    for _ in range(3):
        grid = build_grid(n, 0.0, 2.0 * np.pi, "dirichlet")
        op = build_operator(grid, Potential(np.zeros(n)), hbar=1.0, mass=1.0)
        x = grid.points()
        f = np.sin(x)
        err = apply(op, f) - 0.5 * (-np.sin(x))
        errors.append(np.max(np.abs(err[2:-2])))
        n = 2 * n + 1
    for e0, e1 in zip(errors, errors[1:]):
        assert 4.0 * 0.85 <= e0 / e1 <= 4.0 * 1.15


def test_antisymmetric_modes_are_positive_at_their_left_peak():
    # On a mirror-symmetric grid the two peaks of an antisymmetric mode differ
    # only by roundoff, so which one is larger says nothing about the mode.
    grid = build_grid(200, -20.0, 20.0, "dirichlet")
    x = grid.points()
    spec = eigendecompose(build_operator(grid, Potential(0.5 * x * x)))
    for k in (1, 3, 5, 7):
        mode = spec.vectors[:, 199 - k]
        assert np.allclose(mode[::-1], -mode, atol=1e-10)
        left = int(np.argmax(np.abs(mode[:100])))
        assert abs(mode[left]) >= (1.0 - 1e-8) * np.max(np.abs(mode))
        assert mode[left] > 0.0

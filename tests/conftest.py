import numpy as np
import pytest

from schrofield import (
    Potential,
    build_grid,
    build_operator,
    eigendecompose,
)
from schrofield.brackets import BLOCKS, BracketTable


# Higham's gamma_3 = 3u / (1 - 3u), u the unit roundoff: the componentwise
# relative forward-error bound of a three-term dot product in any summation
# order (Accuracy and Stability of Numerical Algorithms, section 3.1).
_U = np.finfo(float).eps / 2.0
GAMMA_3 = 3.0 * _U / (1.0 - 3.0 * _U)


def stencil_error_bound(op, f):
    """Bound on |apply(op, f) - K f| when both products round: 2 gamma_3 |K| |f|.

    Each row of K has at most three nonzeros, so each side is a three-term
    dot product whatever order BLAS or the stencil sums it in.
    """
    return 2.0 * GAMMA_3 * (np.abs(op.matrix) @ np.abs(f))


def dense_table(table):
    """Oracle: the full matrix of a BlockTable, each block its polynomial in the dense K."""
    powers = [np.eye(table.op.n)]
    for _ in range(table.degree):
        powers.append(powers[-1] @ table.op.matrix)
    return np.block(
        [[sum(c * pk for c, pk in zip(poly, powers)) for poly in row] for row in table.coeffs]
    )


def rk4_taylor_oracle(op, y, dt):
    """Oracle: the degree-4 Taylor map of dt L applied to y = (phi, p, varphi), from the dense K.

    L is the generator (phi, p, varphi) -> (p, K varphi, -K p) / hbar. Returns
    the map applied to y, summed in extended precision, and the same sum over
    |dt L| and |y|: the scale of the roundoff any float evaluation of the map
    makes.
    """
    n = op.n
    gen = np.zeros((3 * n, 3 * n))
    gen[:n, n : 2 * n] = np.eye(n)
    gen[n : 2 * n, 2 * n :] = op.matrix
    gen[2 * n :, n : 2 * n] = -op.matrix
    gen *= dt / op.hbar
    term = y.reshape(-1).astype(np.longdouble)
    size = np.abs(y.reshape(-1))
    exact, scale = term.copy(), size.copy()
    for k in (1, 2, 3, 4):
        term = gen.astype(np.longdouble) @ term / k
        size = np.abs(gen) @ size / k
        exact += term
        scale += size
    return exact.reshape(y.shape), scale.reshape(y.shape)


def block(name, n):
    """Slice of the named block inside a flattened phase vector of 4n entries."""
    i = BLOCKS.index(name)
    return slice(i * n, (i + 1) * n)


def dense_canonical_structure(op):
    """Oracle: the canonical Poisson matrix, {phi, p} and {varphi, pi} at I/dx."""
    n = op.n
    j = np.zeros((4 * n, 4 * n))
    eye = np.eye(n) / op.grid.dx
    j[block("phi", n), block("p", n)] = eye
    j[block("p", n), block("phi", n)] = -eye
    j[block("varphi", n), block("pi", n)] = eye
    j[block("pi", n), block("varphi", n)] = -eye
    return j


def dense_constraint_gradients(op):
    """Oracle: the 2n x 4n constraint gradient matrix [K | 0 | I | 0], [0 | 0 | 0 | I]."""
    n = op.n
    g = np.zeros((2 * n, 4 * n))
    g[:n, block("phi", n)] = op.matrix
    g[:n, block("varphi", n)] = np.eye(n)
    g[n:, block("pi", n)] = np.eye(n)
    return g


def constraint_bracket_matrix(op):
    """Oracle: the mutual constraint brackets C = G J G^T as a dense 2n x 2n matrix."""
    g = dense_constraint_gradients(op)
    c = g @ dense_canonical_structure(op) @ g.T
    if np.linalg.matrix_rank(c) < c.shape[0]:
        raise np.linalg.LinAlgError("constraint bracket matrix is singular")
    return c


def dirac_structure_generic(op):
    """Oracle: the dense Dirac matrix J - J G^T C^{-1} G J, C inverted by a linear solve."""
    j = dense_canonical_structure(op)
    g = dense_constraint_gradients(op)
    c = constraint_bracket_matrix(op)
    return j - (j @ g.T) @ np.linalg.solve(c, g @ j)


def sign_flipped(dirac_structure):
    """`dirac_structure` with the {varphi, p} and {p, varphi} blocks of J_D negated.

    A test-side bracket fault: monkeypatched over `brackets.dirac_structure`,
    it reaches every check `verify` runs on the table.
    """

    def flipped(op):
        c = np.array(dirac_structure(op).coeffs)
        varphi, p = BLOCKS.index("varphi"), BLOCKS.index("p")
        c[[varphi, p], [p, varphi]] *= -1.0
        return BracketTable(c, op)

    return flipped


@pytest.fixture(scope="session")
def free3():
    """n=3 Dirichlet free stencil with hbar=1, m=1/2 (unit second difference)."""
    grid = build_grid(3, 0.0, 4.0, "dirichlet")
    op = build_operator(grid, Potential(np.zeros(3)), hbar=1.0, mass=0.5)
    return op


@pytest.fixture(scope="session")
def periodic4():
    grid = build_grid(4, 0.0, 4.0, "periodic")
    return build_operator(grid, Potential(np.zeros(4)), hbar=1.0, mass=0.5)


@pytest.fixture(scope="session")
def harmonic400():
    """The standard scenario: V = x^2/2 on [-10, 10], n=400, hbar=m=1."""
    grid = build_grid(400, -10.0, 10.0, "dirichlet")
    x = grid.points()
    op = build_operator(grid, Potential(0.5 * x * x), hbar=1.0, mass=1.0)
    return op, eigendecompose(op)


@pytest.fixture(scope="session")
def small_harmonic():
    """Coarse harmonic scenario for order measurements (errors above roundoff)."""
    grid = build_grid(40, -8.0, 8.0, "dirichlet")
    x = grid.points()
    op = build_operator(grid, Potential(0.5 * x * x), hbar=1.0, mass=1.0)
    return op, eigendecompose(op)


@pytest.fixture(scope="session")
def periodic_free64():
    grid = build_grid(64, 0.0, 6.4, "periodic")
    op = build_operator(grid, Potential(np.zeros(64)), hbar=1.0, mass=1.0)
    return op, eigendecompose(op)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def low_frequency_wave(spec, rng, dt, nmodes=4, residual_target=3e-9):
    """Random superposition whose central-difference residual bound is small.

    The residual of an exactly sampled trajectory is bounded by
    sum |z_n| |kappa_n|^3 max|u_n| dt^2 / 6, so the state is weighted toward
    the smallest |kappa| modes and rescaled until that a-priori bound sits
    under residual_target. Modes with |kappa| under an absolute floor are
    skipped: dequantizing them produces field amplitudes |z|/|kappa| that
    amplify the eigensolver residual in K^2 phi past the dt^2 error.
    """
    from schrofield import WaveFunction

    kappa = spec.eigenvalues
    eligible = np.nonzero(np.abs(kappa) >= 0.05)[0]
    order = eligible[np.argsort(np.abs(kappa[eligible]))[:nmodes]]
    weights = 1.0 / np.maximum(np.abs(kappa[order]), 1e-3) ** 3
    z = weights * (rng.uniform(0.5, 1.0, nmodes) + 1j * rng.uniform(0.5, 1.0, nmodes))
    z /= np.linalg.norm(z)
    peak = np.max(np.abs(spec.vectors[:, order]), axis=0)
    bound = np.sum(np.abs(z) * np.abs(kappa[order]) ** 3 * peak) * dt * dt / 6.0
    if bound > residual_target:
        z *= residual_target / bound
    re_c = np.zeros(kappa.shape)
    im_c = np.zeros(kappa.shape)
    re_c[order] = z.real
    im_c[order] = z.imag
    return WaveFunction(re=spec.synthesize(re_c), im=spec.synthesize(im_c))


def low_mode_coefficients(rng, n, nmodes, decay=2.0):
    """Random coefficients concentrated on the lowest-energy modes.

    Eigenvalues ascend and energies are -kappa, so the low-energy modes sit at
    the end of the coefficient vector.
    """
    c = np.zeros(n)
    weights = rng.standard_normal(nmodes) / (1.0 + np.arange(nmodes)) ** decay
    c[n - nmodes:] = weights[::-1]
    return c

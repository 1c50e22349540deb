import math
import sys

import numpy as np
import pytest

from schrofield import (
    Potential,
    build_grid,
    build_operator,
    eigendecompose,
)
from schrofield import lattice
from schrofield.brackets import BLOCKS, BracketTable


# Higham's gamma_3 = 3u / (1 - 3u), u the unit roundoff: the componentwise
# relative forward-error bound of a three-term dot product in any summation
# order (Accuracy and Stability of Numerical Algorithms, section 3.1).
_U = np.finfo(float).eps / 2.0
GAMMA_3 = 3.0 * _U / (1.0 - 3.0 * _U)


def dense_k(op):
    """Oracle: K assembled entry by entry as a dense n x n matrix, not by the stencil product.

    The diagonal, the nearest-neighbour couplings, and on a periodic grid the
    two corners, each written where it belongs in a matrix of zeros.
    """
    n = op.n
    k = np.zeros((n, n))
    np.fill_diagonal(k, op.diagonal)
    idx = np.arange(n - 1)
    k[idx, idx + 1] = op.coupling
    k[idx + 1, idx] = op.coupling
    if op.grid.boundary == lattice.PERIODIC:
        k[0, n - 1] = op.coupling
        k[n - 1, 0] = op.coupling
    return k


def count_calls(monkeypatch, module, name):
    """Count calls of module.name made through any schrofield module's binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "schrofield":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def stencil_error_bound(op, f):
    """Bound on |apply(op, f) - K f| when both products round: 2 gamma_3 |K| |f|.

    Each row of K has at most three nonzeros, so each side is a three-term
    dot product whatever order BLAS or the stencil sums it in.
    """
    return 2.0 * GAMMA_3 * (np.abs(dense_k(op)) @ np.abs(f))


def dense_table(table):
    """Oracle: the full matrix of a BlockTable, each block its polynomial in the dense K."""
    k = dense_k(table.op)
    powers = [np.eye(table.op.n)]
    for _ in range(table.degree):
        powers.append(powers[-1] @ k)
    return np.block(
        [[sum(c * pk for c, pk in zip(poly, powers)) for poly in row] for row in table.coeffs]
    )


def rk4_taylor_oracle(op, y, dt):
    """Oracle: the degree-4 Taylor map of dt L applied to y = (phi, p, varphi), from the dense K.

    L is the generator (phi, p, varphi) -> (p, K varphi, -K p) / hbar. Returns
    the map applied to y, summed in extended precision, and the same sum over
    |dt L| and |y|: the scale of the roundoff any float evaluation of the map
    makes. L is applied block by block, and K through the nonzero entries
    of `dense_k`, so past that assembly the oracle costs O(n).
    """
    tau = dt / op.hbar
    k = dense_k(op)
    rows, cols = np.nonzero(k)
    entries = k[rows, cols]

    def generator(values, f):
        def product(g):
            out = np.zeros_like(g)
            np.add.at(out, rows, values * g[cols])
            return out

        phi, p, varphi = f
        return np.stack([tau * p, tau * product(varphi), -tau * product(p)])

    exact_entries, size_entries = entries.astype(np.longdouble), np.abs(entries)
    term = y.astype(np.longdouble)
    size = np.abs(y)
    exact, scale = term.copy(), size.copy()
    for k in (1, 2, 3, 4):
        term = generator(exact_entries, term) / k
        size = np.abs(generator(size_entries, size)) / k
        exact += term
        scale += size
    return exact, scale


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
    g[:n, block("phi", n)] = dense_k(op)
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


def bisection_eigenpairs(op, cols):
    """Oracle: `lattice.eigenpairs` as one bisection per column on scalar Sturm counts.

    Each column is bisected to adjacent floats on `lattice._count_below`,
    starting from the tightest bracket that all earlier counts give, and then
    checked for isolation one gap below and above; the vector is the same
    twisted factorization. Returns what `eigenpairs` must return bit for bit.
    """
    n = op.n
    scale, diag, b = lattice._scaled_stencil(op)
    b2 = b * b
    gap = lattice.ISOLATION_RTOL * (max(map(abs, diag)) + 2.0 * b)
    counts = {min(diag) - 2.0 * b: 0, max(diag) + 2.0 * b: n}
    kappa = []
    vectors = np.empty((n, len(cols)))
    for k, j in enumerate(cols):
        lo = max(x for x, c in counts.items() if c <= j)
        hi = min(x for x, c in counts.items() if c > j)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            counts[mid] = lattice._count_below(diag, b2, mid)
            if counts[mid] <= j:
                lo = mid
            else:
                hi = mid
        for x in (lo - gap, hi + gap):
            counts[x] = lattice._count_below(diag, b2, x)
        if (counts[lo - gap], counts[hi + gap]) != (j, j + 1):
            return None
        shifted = [a - lo for a in diag]
        down = lattice._pivots(shifted, b2)
        up = lattice._pivots(shifted[::-1], b2)[::-1]
        r = int(np.argmin(np.abs(down + up - shifted)))
        z = np.ones(n)
        z[:r] = np.cumprod(-b / down[:r][::-1])[::-1]
        z[r + 1 :] = np.cumprod(-b / up[r + 1 :])
        norm = float(np.linalg.norm(z))
        if not math.isfinite(norm):
            return None
        vectors[:, k] = z / (norm * math.sqrt(op.grid.dx))
        kappa.append(lo)
    return np.ldexp(np.array(kappa), -scale), lattice._signed(vectors)


def positive_definite(diag, b, x, periodic):
    """Oracle: whether K - x I is positive definite, for K given by its scaled stencil.

    The LDL^T inertia test, stopped at the first pivot below
    `lattice._PIVMIN`, written out for each closure: on a Dirichlet grid the
    Sturm recurrence d_i = (a_i - x) - b^2 / d_{i-1}; on a periodic grid the
    corners fill in only the last column, e_{i+1} = -b e_i / d_i, and the last
    pivot is its Schur complement (a_{n-1} - x) - sum e_i^2 / d_i, checked as
    it falls.
    """
    pivmin = lattice._PIVMIN
    b2 = b * b
    if not periodic:
        d = math.inf
        for a in diag:
            d = a - x - b2 / d
            if d < pivmin:
                return False
        return True
    last = diag[-1] - x
    d = diag[0] - x
    e = b
    for a in diag[1:-1]:
        if d < pivmin:
            return False
        g = e / d
        last -= e * g
        if last < pivmin:
            return False
        e = -b * g
        d = a - x - b2 / d
    if d < pivmin:
        return False
    e += b
    return last - e * e / d >= pivmin


def two_end_spectral_radius(op):
    """Oracle: `lattice.spectral_radius` as the two ends bisected in alternation.

    One `positive_definite` test per end per round, the top end as the bottom
    end of -K, from the Gershgorin brackets; an end stops once its
    magnitudes cannot exceed the other end's. Returns the float that
    `spectral_radius` must return bit for bit.
    """
    periodic = op.grid.boundary == lattice.PERIODIC
    scale, diag, b = lattice._scaled_stencil(op)
    lo = min(diag)
    hi = max(diag)
    brackets = [[lo - 2.0 * abs(b), lo], [-hi - 2.0 * abs(b), -hi]]
    stencils = [(diag, b), ([-a for a in diag], -b)]
    while True:
        smallest = [max(lower, -upper, 0.0) for lower, upper in brackets]
        largest = [max(-lower, upper) for lower, upper in brackets]
        moved = False
        for i, bracket in enumerate(brackets):
            mid = 0.5 * (bracket[0] + bracket[1])
            if largest[i] <= smallest[1 - i] or not bracket[0] < mid < bracket[1]:
                continue
            if positive_definite(*stencils[i], mid, periodic):
                bracket[0] = mid
            else:
                bracket[1] = mid
            moved = True
        if not moved:
            return math.ldexp(max(largest), -scale)


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

"""Grids, background potentials, and the symmetric lattice operator.

The operator assembled here is K = (hbar^2 / 2m) L - diag(V), where L is the
second-order central-difference Laplacian with either a Dirichlet closure
(fields pinned to zero at ghost points just outside the grid) or a periodic
one. K is symmetric by construction, which keeps every bracket identity
downstream an exact statement about finite matrices.

K is stored as its three-point stencil: a diagonal array plus one scalar
nearest-neighbour coupling hbar^2 / (2 m dx^2), which is also the value of
both corner entries on periodic grids. `apply` is an O(n) stencil product,
and `CayleySolver` solves the Crank-Nicolson system I - i a K in O(n) from
the same stencil, by cyclic reduction down to a dense tail of at most
_DENSE_TAIL unknowns. The solve is planned once (`_Plan`): a fixed list of
numpy calls into buffers and views made at construction, so it allocates
nothing. Inertia comes from one O(n) count per shift, the negative pivots
of the LDL^T factorization of K - x I (`_count_below`,
`_count_below_periodic`; Sturm sequences, Barth, Martin and Wilkinson 1967),
and `_bisect` is the one scalar bisection on it. `spectral_radius` bisects
both ends of the spectrum so, and `zero_mode_count` takes two counts.
`eigenpairs` finds chosen eigenpairs of a Dirichlet K, O(n) per mode: it
narrows all requested eigenvalues in lockstep, counting each pass's shifts
together by odd-even reduction of K - x I over a (shifts, n) array
(`_counts_below`), then checks each result on the scalar count, so it
returns what bisection on that count alone returns. The stencil is K's only
definition: `eigendecompose` hands `eigh` the dense K read off the stencil
products of comb probes (`_dense`) and keeps none once `eigh` returns.

Discrete conventions shared by the whole package:

    integral over x   ->  dx * sum over grid points
    delta(x - y)      ->  identity / dx
    eigenvectors      ->  orthonormal under the dx-weighted inner product

Eigenvalues of K are denoted kappa; the physical energies of the associated
Schrodinger problem are -kappa, so bound spectra sit at negative kappa.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import setitem

import numpy as np

from .errors import EllipticObstructionError

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

# Eigenvalues below ZERO_MODE_RTOL * max|kappa| count as zero modes.
ZERO_MODE_RTOL = 1e-10
# Entries within SIGN_RTOL of a vector's largest magnitude are its peaks, and
# `_signed` makes the first one positive. The mirror-image peaks of an
# antisymmetric mode on a mirror-symmetric grid differ by roundoff alone (1e-15
# to 5e-14 relative), and the stencil and dense vectors of an isolated mode by
# under 1e-9 (see ISOLATION_RTOL), so both land on the same peak.
SIGN_RTOL = 1e-8
# `eigenpairs` declines an eigenvalue that has another within ISOLATION_RTOL *
# (max|a| + 2|b|) of it, the Gershgorin bound on max|kappa|: its vector is then
# fixed only to about eps max|kappa| / gap. Measured against dense `eigh` on
# double wells at n = 200, 800 and 3000, the vectors differ by at most 4e-17 /
# (gap / max|kappa|), so by under 4e-10 at this gap.
ISOLATION_RTOL = 1e-7


def _read_only(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid holding n stored points and a boundary closure."""

    n: int
    dx: float
    x_min: float
    boundary: str

    def points(self):
        """Coordinates of the stored points."""
        if self.boundary == DIRICHLET:
            return self.x_min + self.dx * np.arange(1, self.n + 1)
        return self.x_min + self.dx * np.arange(self.n)


@dataclass(frozen=True)
class Potential:
    """Background potential sampled on the grid points (energy units)."""

    values: np.ndarray

    def __post_init__(self):
        v = _read_only(np.atleast_1d(self.values))
        if v.ndim != 1:
            raise ValueError("potential values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class Operator:
    """Symmetric K = (hbar^2/2m) L - diag(V) on a grid, stored as its stencil.

    `diagonal` holds K[i, i]; `coupling` is every nearest-neighbour entry,
    including the two corner entries of a periodic grid.
    """

    diagonal: np.ndarray
    coupling: float
    hbar: float
    mass: float
    grid: Grid

    @property
    def n(self):
        return self.grid.n


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition of an operator.

    Columns of `vectors` are orthonormal under the dx-weighted inner product,
    eigenvalues ascend, and `zero_modes` indexes eigenvalues within
    ZERO_MODE_RTOL * max|kappa| of zero. Each column's first peak, its lowest
    index within SIGN_RTOL of its largest magnitude, is positive.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    zero_modes: tuple
    operator: Operator

    @property
    def grid(self):
        return self.operator.grid

    @property
    def hbar(self):
        return self.operator.hbar

    @property
    def zero_mode_tolerance(self):
        scale = float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0
        return ZERO_MODE_RTOL * scale

    def coefficients(self, f):
        """Expansion coefficients of f in the eigenbasis (dx-weighted)."""
        return self.grid.dx * (self.vectors.T @ np.asarray(f, dtype=float))

    def synthesize(self, coeffs):
        """Grid function with the given eigenbasis coefficients."""
        return self.vectors @ np.asarray(coeffs, dtype=float)


def build_grid(n, x_min, x_max, boundary=DIRICHLET):
    """Uniform grid on [x_min, x_max] with n stored points.

    Dirichlet grids store interior points only (dx = span / (n + 1)); periodic
    grids identify the point after the last with the first (dx = span / n).
    """
    n = int(n)
    if n < 3:
        raise ValueError(f"need at least 3 grid points, got {n}")
    x_min = float(x_min)
    x_max = float(x_max)
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise ValueError("grid bounds must be finite")
    if x_max <= x_min:
        raise ValueError(f"x_max={x_max} must exceed x_min={x_min}")
    if boundary not in (DIRICHLET, PERIODIC):
        raise ValueError(f"unknown boundary {boundary!r}")
    span = x_max - x_min
    dx = span / (n + 1) if boundary == DIRICHLET else span / n
    return Grid(n=n, dx=dx, x_min=x_min, boundary=boundary)


def build_operator(grid, potential, hbar=1.0, mass=1.0):
    """Assemble the stencil of K = (hbar^2/2m) L - diag(V); exactly symmetric."""
    hbar = float(hbar)
    mass = float(mass)
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    v = potential.values
    if v.shape != (grid.n,):
        raise ValueError(
            f"potential has {v.shape[0]} values for a grid of {grid.n} points"
        )
    scale = hbar * hbar / (2.0 * mass)
    dx2 = grid.dx * grid.dx
    w = 1.0 / dx2 if dx2 > 0.0 else math.inf
    # Same rounding as scaling the assembled Laplacian, then subtracting V.
    coupling = scale * w
    diagonal = scale * (-2.0 * w) - v
    if not (math.isfinite(coupling) and np.all(np.isfinite(diagonal))):
        raise ValueError(
            f"operator entries must be finite: hbar={hbar!r}, mass={mass!r} and "
            f"dx={grid.dx!r} give hbar^2 / (2 mass dx^2) = {coupling!r}"
        )
    # hbar^2 / 2m can underflow to 0; `eigenpairs` and the stability bounds need K coupled.
    if not coupling > 0.0:
        raise ValueError(
            f"kinetic coefficient must be positive: hbar={hbar!r}, mass={mass!r} and "
            f"dx={grid.dx!r} give hbar^2 / (2 mass dx^2) = {coupling!r}"
        )
    return Operator(
        diagonal=_read_only(diagonal),
        coupling=coupling,
        hbar=hbar,
        mass=mass,
        grid=grid,
    )


def apply(op, f):
    """Stencil product K f in O(n); f may be a stack of fields, shape (..., n)."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (op.n,):
        raise ValueError(f"field has shape {f.shape}, expected (..., {op.n})")
    return stencil_product(op, f)


def stencil_product(op, f, out=None, scratch=None):
    """K f for a float array f of shape (..., n), unchecked, written into out if given.

    out may be f itself. coupling * f goes into scratch if given, an array of
    f's shape other than out. `apply` checks f first.
    """
    cf = np.multiply(op.coupling, f, out=scratch)
    out = np.multiply(op.diagonal, f, out=out)
    out[..., 1:] += cf[..., :-1]
    out[..., :-1] += cf[..., 1:]
    if op.grid.boundary == PERIODIC:
        # Corners in one strided update: out[0] += cf[-1], out[-1] += cf[0].
        last = op.n - 1
        out[..., ::last] += cf[..., ::-last]
    return out


# Cyclic reduction in `CayleySolver` stops once the reduced system has at most
# this many unknowns, which one product with its precomputed inverse then
# solves. A planned level is 11 numpy calls, 4 to 8 us at n = 200 to 3200, and
# a 32 x 32 complex product under 2 us. Measured on the planned solve on one
# core of a shared 2-core x86 host (best of 30 blocks of 500 solves), tails of
# 8, 16, 32, 64 and 128 took 21, 17, 15, 14 and 18 us a solve at n = 200; 33,
# 29, 29, 30 and 39 us at n = 800; and 61, 59, 56, 57 and 66 us at n = 3200.
# From 16 to 64 the tail is not a lever.
_DENSE_TAIL = 32


class _Plan:
    """One cyclic solve x with T x = rhs along the first axis, T the tridiagonal that `levels` reduce.

    `rhs` and `x` are buffers of the given shape, and `run` overwrites x with
    the solution for rhs, leaving rhs as it was. The plan makes each level's
    buffers and views once: the level's right-hand side rhs_k (rhs itself at
    level 0), whose even rows plus the level's multipliers times its odd rows
    make rhs_{k+1}, and its solution x_k, whose even rows are x_{k+1} and
    whose odd rows the multipliers recover from rhs_k and x_{k+1}. One
    scratch buffer takes every product. `calls` is then the whole solve as
    (function, arguments) pairs: 5 a level down, `reduced(rhs_L, x_L)` for
    the system left after the last level, and 6 a level back up. Each is a
    numpy ufunc or `np.dot` with its output last, or a copy
    `setitem(dst, ..., src)`, a third of the call cost of `np.copyto`. The
    operations, their operand order and each operand's memory layout are
    those of a level-by-level solve with a fresh array for every result
    (`cayley_oracle` in the tests), so its bits are too: numpy's complex
    multiply rounds through FMA, so operand order matters. Each level's
    multipliers are columns for a matrix of right-hand sides. `inputs` are
    the rhs_k, level 0 first.
    """

    def __init__(self, levels, shape, reduced):
        trailing = (None,) * (len(shape) - 1)
        self.rhs = r = np.empty(shape, dtype=complex)
        self.x = x = np.empty(shape, dtype=complex)
        self.inputs = [r]
        scratch = np.empty((shape[0] // 2,) + shape[1:], dtype=complex)
        down, up = [], []
        for level in levels:
            alpha, beta, inv, p, q = (m[(slice(None),) + trailing] for m in level)
            r_odd, x_odd = r[1::2], x[1::2]
            r_even = np.empty((len(r) - len(r_odd),) + shape[1:], dtype=complex)
            x_even = np.empty_like(r_even)
            na, nb, nq = len(alpha), len(beta), len(q)
            down += [
                (setitem, (r_even, ..., r[::2])),
                (np.multiply, (alpha, r_odd[:na], scratch[:na])),
                (np.add, (r_even[1:], scratch[:na], r_even[1:])),
                (np.multiply, (beta, r_odd, scratch[:nb])),
                (np.add, (r_even[:nb], scratch[:nb], r_even[:nb])),
            ]
            up[:0] = [
                (setitem, (x[::2], ..., x_even)),
                (np.multiply, (r_odd, inv, x_odd)),
                (np.multiply, (p, x_even[: len(p)], scratch[: len(p)])),
                (np.subtract, (x_odd, scratch[: len(p)], x_odd)),
                (np.multiply, (q, x_even[1:], scratch[:nq])),
                (np.subtract, (x_odd[:nq], scratch[:nq], x_odd[:nq])),
            ]
            r, x = r_even, x_even
            self.inputs.append(r)
        self.calls = down + reduced(r, x) + up

    def run(self):
        for f, args in self.calls:
            f(*args)


class CayleySolver(_Plan):
    """Solves (I - i a K) x = r for a fixed real a; factored and planned once, O(n) per solve.

    Odd-even cyclic reduction down to a dense tail: each level eliminates the
    odd-numbered unknowns from the even-numbered equations and keeps its
    multipliers, until at most _DENSE_TAIL unknowns are left. Their system is
    solved by one product with its inverse, which the remaining levels of the
    same reduction compute at construction from identity columns, so a solve
    is about 2 log2(n / _DENSE_TAIL) levels of array operations and one small
    product, with no loop over grid points (partial cyclic reduction, Hockney
    and Jesshope, Parallel Computers 2, section 5.4). No pivoting is needed
    for any a: the Hermitian part of I - i a K is I, each Schur complement
    keeps a positive definite Hermitian part, and Gaussian elimination in a
    symmetric ordering (cyclic reduction is one) is stable for such matrices
    (Higham, Accuracy and Stability of Numerical Algorithms, section 10.4).

    The solve is a `_Plan`, made at construction: its buffers and every
    view of them that a level reads or writes are made once, so `run` is a
    fixed list of numpy calls into those buffers and allocates nothing.
    `run` solves for the right-hand side in `rhs` into `x`; `solve` copies
    its argument in and the answer out.

    On a periodic grid the corner entries s = -i a coupling are written as
    s w w^T minus s on the two end diagonals, with w = e_0 + e_{n-1}. The rest
    is tridiagonal and still of the form I - i a (real symmetric), and one
    Sherman-Morrison correction, with its vector solved here, puts the corners
    back (Numerical Recipes, section 2.7).
    """

    def __init__(self, op, a):
        n = op.n
        a = float(a)
        s = -1j * a * op.coupling
        diag = 1.0 - 1j * a * op.diagonal
        periodic = op.grid.boundary == PERIODIC
        if periodic:
            diag[[0, -1]] -= s
        lower = np.full(n, s)
        upper = np.full(n, s)
        lower[0] = upper[-1] = 0.0
        system = diag, lower, upper
        levels = []
        while system[0].size > _DENSE_TAIL:
            level, system = _reduce(*system)
            levels.append(level)
        size, tail = system[0].size, []
        while system[0].size > 1:
            level, system = _reduce(*system)
            tail.append(level)
        inv_last = 1.0 / system[0]
        # Column j solves the tail system for e_j.
        inverse = _Plan(tail, (size, size), lambda r, x: [(np.multiply, (inv_last, r, x))])
        inverse.rhs[...] = np.eye(size)
        inverse.run()
        self._tail_inverse = inverse.x
        super().__init__(levels, (n,), lambda r, x: [(np.dot, (self._tail_inverse, r, x))])
        if periodic:
            self.rhs[...] = 0.0
            self.rhs[[0, -1]] = s
            self.run()
            z = self.x
            correction = z / (1.0 + z[0] + z[-1])
            # x -= correction (x[0] + x[-1]), through a preallocated row
            ends, row = np.empty(1, dtype=complex), np.empty(n, dtype=complex)
            self.calls += [
                (np.add, (self.x[:1], self.x[-1:], ends)),
                (np.multiply, (correction, ends, row)),
                (np.subtract, (self.x, row, self.x)),
            ]

    def solve(self, rhs):
        """x with (I - i a K) x = rhs, for one field rhs of shape (n,); a fresh array."""
        if np.shape(rhs) != self.rhs.shape:
            raise ValueError(f"rhs has shape {np.shape(rhs)}, expected {self.rhs.shape}")
        self.rhs[...] = rhs
        self.run()
        return self.x.copy()


def _reduce(diag, lower, upper):
    """One cyclic reduction level of the tridiagonal (lower, diag, upper).

    Returns the level's multipliers and the system of the even-numbered
    unknowns left after the odd-numbered ones are eliminated.
    """
    d_odd, l_odd, u_odd = diag[1::2], lower[1::2], upper[1::2]
    n_even, n_odd = (diag.size + 1) // 2, d_odd.size
    alpha = -lower[2::2] / d_odd[: n_even - 1]
    beta = -upper[: 2 * n_odd : 2] / d_odd
    diag = diag[::2].copy()
    diag[1:] += alpha * u_odd[: n_even - 1]
    diag[:n_odd] += beta * l_odd
    lower = np.zeros(n_even, dtype=complex)
    lower[1:] = alpha * l_odd[: n_even - 1]
    upper = np.zeros(n_even, dtype=complex)
    upper[:n_odd] = beta * u_odd
    inv = 1.0 / d_odd
    level = (alpha, beta, inv, l_odd * inv, u_odd[: n_even - 1] * inv[: n_even - 1])
    return level, (diag, lower, upper)


def inner_product(f, g, grid):
    """dx-weighted inner product, the discrete integral of f*g."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch {f.shape} vs {g.shape}")
    return grid.dx * float(np.dot(f, g))


def eigendecompose(op):
    """Full spectral decomposition with dx-orthonormal eigenvectors, by dense `eigh`.

    O(n^3) time and O(n^2) memory; the dense K (`_dense`) is dropped once
    `eigh` returns. Each vector is signed so that its first peak, the lowest
    index within SIGN_RTOL of its largest magnitude, is positive (`_signed`),
    as `eigenpairs` signs its vectors.
    """
    w, v = np.linalg.eigh(_dense(op))
    v = _signed(v / np.sqrt(op.grid.dx))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    zero = tuple(int(i) for i in np.nonzero(np.abs(w) <= ZERO_MODE_RTOL * scale)[0])
    return Spectrum(
        eigenvalues=_read_only(w),
        vectors=_read_only(v),
        zero_modes=zero,
        operator=op,
    )


def _comb(n, reach, periodic):
    """Comb probes of n columns for a map that reads the offsets -reach..reach.

    Returns (colour, colours, cols, inside). A comb probe is 1 on every
    column of one colour, i % (2 reach + 1) for column i, so no point reads
    two columns of a colour; on a ring the last n % (2 reach + 1) columns
    wrap too close to the first and get a colour each. cols[k, i] is the
    column at offset k - reach from point i, wrapped on a ring, or i itself
    past a wall, where `inside` is False.
    """
    width = 2 * reach + 1
    points = np.arange(n)
    colour = points % width
    combed = n - n % width if periodic else n
    colour[combed:] = width + np.arange(n - combed)
    cols = points + np.arange(-reach, reach + 1)[:, None]
    inside = periodic | ((cols >= 0) & (cols < n))
    return colour, width + n - combed, np.where(inside, cols % n, points), inside


def _dense(op):
    """K as a dense n x n array, read off the stencil products of its comb probes (`_comb`).

    Bit for bit the stencil product of the identity, signed zeros included.
    """
    n = op.n
    points = np.arange(n)
    colour, colours, cols, inside = _comb(n, 1, op.grid.boundary == PERIODIC)
    probes = np.zeros((colours, n))
    probes[colour, points] = 1.0
    response = stencil_product(op, probes, out=probes)
    rows, at = cols[inside], np.broadcast_to(points, cols.shape)[inside]
    k = np.zeros((n, n))
    k[rows, at] = response[colour[rows], at]
    return k


def _signed(v):
    """Columns of v, each signed so that its first peak is positive.

    A column's first peak is its lowest index whose magnitude is within
    SIGN_RTOL of the column's largest, so the sign does not depend on which
    of two mirror-image peaks roundoff makes the larger.
    """
    mag = np.abs(v)
    peak = np.argmax(mag >= (1.0 - SIGN_RTOL) * np.max(mag, axis=0), axis=0)
    return v * np.where(v[peak, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)


# Pivots below this count as negative, as LAPACK's dstebz floors its pivots
# at pivmin. It applies to K scaled to entries of at most 1/4, where it moves
# the answer far less than one ulp of max|kappa| and keeps every quotient of
# the inertia counts finite.
_PIVMIN = 2.0**-500


def _scaled_stencil(op):
    """(s, diagonal, coupling) of 2^s K, the power of two that puts its entries in [1/8, 1/4)."""
    top = max(float(np.max(np.abs(op.diagonal))), abs(op.coupling))
    scale = -math.frexp(top)[1] - 2
    return scale, np.ldexp(op.diagonal, scale).tolist(), math.ldexp(op.coupling, scale)


@lru_cache(maxsize=64)
def spectral_radius(op):
    """max |kappa| of the operator, by bisection; cached per operator instance.

    Each end of the spectrum is bisected (`_bisect`) on its closure's count
    stopped at the first negative pivot (`_counter` at j = 0; Golub and Van
    Loan section 8.4), the top end as the bottom end of -K, from the diagonal
    and Gershgorin's discs: min kappa lies in [min a - 2|b|, min a] and max
    kappa in [max a, max a + 2|b|]. The end that may reach the larger
    magnitude goes first; an end is skipped when its magnitudes cannot
    exceed the other end's, which on a grid with V >= 0 is the top end. An
    end takes about 52 O(n) counts. K is scaled by a power of two first,
    which is exact, and the returned value is the bracket's outer edge:
    within an ulp or two of the exact max |kappa| of a matrix within a few
    ulp of K.
    """
    periodic = op.grid.boundary == PERIODIC
    scale, diag, b = _scaled_stencil(op)
    lo, hi = min(diag), max(diag)
    # Brackets on the bottom ends of the spectra of K and of -K.
    ends = [(lo - 2.0 * abs(b), lo), (-hi - 2.0 * abs(b), -hi)]
    counts = [_counter(diag, b, periodic), _counter([-a for a in diag], -b, periodic)]

    def largest(i):
        return max(-ends[i][0], ends[i][1])

    def smallest(i):
        return max(ends[i][0], -ends[i][1], 0.0)

    for i in sorted((0, 1), key=largest, reverse=True):
        if largest(i) > smallest(1 - i):
            ends[i] = _bisect(counts[i], 0, *ends[i])
    return math.ldexp(max(largest(0), largest(1)), -scale)


def _counter(diag, b, periodic):
    """The inertia count of the stencil (diag, b) on its closure, as a function of (x, j)."""
    if periodic:
        return partial(_count_below_periodic, diag, b)
    return partial(_count_below, diag, b * b)


def _count_below(diag, b2, x, j=math.inf):
    """Number of eigenvalues below x of the Dirichlet stencil (diag, b), b2 = b^2.

    The Sturm count: the negative pivots of the LDL^T factorization of
    K - x I. A pivot below _PIVMIN counts as negative, and one of smaller
    magnitude is replaced by -_PIVMIN, as LAPACK's dstebz does. It stops once
    it passes j, so it is exact up to j + 1; at j = 0, 0 says K - x I is
    positive definite (Sylvester's law of inertia).
    """
    count = 0
    d = math.inf
    for a in diag:
        d = a - x - b2 / d
        if d < _PIVMIN:
            count += 1
            if count > j:
                return count
            if d > -_PIVMIN:
                d = -_PIVMIN
    return count


def _count_below_periodic(diag, b, x, j=math.inf):
    """Number of eigenvalues below x of the periodic stencil (diag, b), exact up to j + 1.

    The negative pivots of the LDL^T factorization of the cyclic K - x I,
    floored and stopped past j as in `_count_below`. The pivots d_i follow
    the Sturm recurrence d_i = (a_i - x) - b^2 / d_{i-1}; the corners fill in
    only the last column, e_{i+1} = -b e_i / d_i, and the last pivot is its
    Schur complement (a_{n-1} - x) - sum e_i^2 / d_i. While the pivots are
    positive every term of that sum is, so it only falls.
    """
    b2 = b * b
    count = 0
    last = diag[-1] - x
    d = diag[0] - x
    e = b
    for a in diag[1:-1]:
        if d < _PIVMIN:
            count += 1
            if count > j:
                return count
            if d > -_PIVMIN:
                d = -_PIVMIN
        g = e / d
        last -= e * g
        e = -b * g
        d = a - x - b2 / d
    if d < _PIVMIN:
        count += 1
        if d > -_PIVMIN:
            d = -_PIVMIN
    e += b
    return count + (last - e * e / d < _PIVMIN)


def zero_mode_count(op):
    """Number of eigenvalues of K in [-tol, tol], tol = ZERO_MODE_RTOL * spectral_radius(op).

    The count of zero modes that `eigendecompose` finds, from two inertia
    counts on the stencil (`_counter`) at -tol and tol, without a dense K:
    O(n) time and memory. K is scaled as in `spectral_radius`.
    """
    scale, diag, b = _scaled_stencil(op)
    tol = math.ldexp(ZERO_MODE_RTOL * spectral_radius(op), scale)
    count = _counter(diag, b, op.grid.boundary == PERIODIC)
    return count(tol) - count(-tol)


def _pivots(shifted, b2):
    """The LDL^T pivots of the tridiagonal (shifted, b), floored as in `_count_below`."""
    out = []
    d = math.inf
    for a in shifted:
        d = a - b2 / d
        if -_PIVMIN < d < _PIVMIN:
            d = -_PIVMIN
        out.append(d)
    return np.array(out)


# A pass of `eigenpairs` counts its shifts together by `_counts_below` once
# shifts x n reaches this, one at a time by `_count_below` below it, and a
# request of columns x n below it takes no secant steps, which need the
# reduction's log|det|, so it bisects on `_count_below` alone. One reduction
# costs as much as about 9 scalar counts at n = 200, 2.5 at n = 800 and 1.8 at
# n = 1200, and less than one from n = 3200 (one core of a shared 2-vCPU
# host), but it also gives log|det| for the secant steps, which halve the
# passes. Over whole requests for the 1, 2, 4 and 8 top modes of Dirichlet
# harmonic grids at n = 200 to 3200, 1000 was as fast as 500, 1500 and 2000
# or faster, and no request was slower than per-column bisection.
_REDUCTION_MIN_SIZE = 1000
# `_counts_below` reduces at most this many shifts x n at a time. Its scratch
# is about 36 bytes per element, so 2.4 MB at most however many shifts a pass
# takes.
_REDUCTION_BLOCK = 2**16
# Below this bracket width (K scaled as in `_scaled_stencil`, so max|kappa| is
# under 3/4), a secant step that does not halve the bracket is taken to be
# lost in roundoff, and its column bisects from then on.
_SECANT_FLOOR = 2.0**-48


def _counts_below(diag, b2, shifts):
    """`_count_below` at every shift at once, with log|det(K - x I)| at each.

    Odd-even reduction of K - x I over a (shifts, n) array, diag an array,
    in blocks of at most _REDUCTION_BLOCK elements (`_reduction_inertia`).
    """
    shifts = np.asarray(shifts, dtype=float)
    rows = max(1, _REDUCTION_BLOCK // diag.size)
    count = np.empty(shifts.size, dtype=np.intp)
    logdet = np.empty(shifts.size)
    for start in range(0, shifts.size, rows):
        block = slice(start, start + rows)
        count[block], logdet[block] = _reduction_inertia(diag, b2, shifts[block])
    return count, logdet


def _reduction_inertia(diag, b2, shifts):
    """The count of eigenvalues below each shift and log|det(K - x I)|, by odd-even reduction.

    At each level the odd-numbered rows are coupled only to even-numbered
    ones, so their diagonals are pivots of a congruence, and eliminating them
    leaves a tridiagonal Schur complement on the even-numbered rows: d_2k
    loses c_2k-1 / d_2k-1 + c_2k / d_2k+1, and the squared couplings become
    c_2k c_2k+1 / d_2k+1^2. By Sylvester's law of inertia the count is the
    number of negative pivots over all levels. Pivots are floored as in
    `_count_below`. This is not the Sturm recurrence's arithmetic, so near an
    eigenvalue a count can differ from `_count_below`'s, and a coupling that
    overflows leaves its shift's count and log|det| meaningless; neither
    raises a warning. O(n) work per shift in about log2(n) levels.
    """
    d = diag - shifts[:, None]
    pivots = np.empty_like(d)
    done = 0
    with np.errstate(all="ignore"):
        c = np.full((shifts.size, d.shape[1] - 1), b2)
        while True:
            odd = d[:, 1::2] if d.shape[1] > 1 else d
            np.minimum(odd, -_PIVMIN, out=odd, where=odd < _PIVMIN)
            pivots[:, done : done + odd.shape[1]] = odd
            done += odd.shape[1]
            if d.shape[1] == 1:
                count = np.count_nonzero(pivots < _PIVMIN, axis=1)
                return count, np.log(np.abs(pivots)).sum(axis=1)
            left = c[:, ::2] / odd
            right = c[:, 1::2] / odd[:, : c.shape[1] // 2]
            d = d[:, ::2].copy()
            d[:, : left.shape[1]] -= left
            d[:, 1:] -= right
            right *= left[:, : right.shape[1]]
            c = right


class _Bracket:
    """A bracket lo < hi on the eigenvalue of ascending index j, and what is known at its ends.

    Index 0 of `count`, `logdet` and `exact` is lo, index 1 is hi: the number
    of eigenvalues below the end, log|det(K - x I)| there (nan where not
    known) and whether `_count_below` gave the count. `kept` is the end that
    the last `run` secant passes kept, `stalls` the passes running in which
    the bracket did not halve, and `noisy` whether the bracket takes no more
    secant points: from the start unless `secants`, or once they stop paying.
    """

    __slots__ = (
        "j", "lo", "hi", "count", "logdet", "exact", "stepped", "kept", "run", "stalls", "noisy"
    )

    def __init__(self, j, lo, hi, n, secants):
        self.j, self.lo, self.hi = j, lo, hi
        self.count = [0, n]
        self.logdet = [math.nan, math.nan]
        self.exact = [True, True]
        self.stepped, self.kept, self.run, self.stalls = False, None, 0, 0
        self.noisy = not secants

    def open(self):
        return self.lo < 0.5 * (self.lo + self.hi) < self.hi

    def shift(self):
        """The midpoint, or where the secant through (lo, det lo) and (hi, det hi) crosses zero.

        The secant point when the bracket holds one eigenvalue and both
        logdets are known, unless `noisy` or after five stalls. Sets
        `stepped` to whether it is the secant point.
        """
        lo, hi = self.lo, self.hi
        self.stepped = (
            not self.noisy
            and self.stalls < 5
            and self.count[1] - self.count[0] == 1
            and math.isfinite(self.logdet[0])
            and math.isfinite(self.logdet[1])
        )
        if not self.stepped:
            return 0.5 * (lo + hi)
        # det has opposite signs at the ends, so the crossing is at
        # lo + (hi - lo) |det lo| / (|det lo| + |det hi|).
        d = self.logdet[1] - self.logdet[0]
        e = math.exp(-abs(d))
        x = lo + (hi - lo) * (e if d > 0.0 else 1.0) / (1.0 + e)
        if self.run >= 3:
            # One end moved three times running, so the root is likely much
            # closer to it than the secant step says. Step the geometric mean
            # of that step and the width: that brings the other end in if so,
            # and moves this end further if not.
            near = (lo, hi)[1 - self.kept]
            x = near + math.copysign(math.sqrt(abs(x - near) * (hi - lo)), x - near)
        return min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))

    def narrow(self, xs, counts, logdets, exact, start):
        """Move the ends in to every counted shift that falls inside.

        xs ascends, and xs[start] is the first shift above lo.
        """
        lo, hi = self.lo, self.hi
        previous = self.logdet[:]
        for i in range(start, len(xs)):
            x = xs[i]
            if x >= self.hi:
                break
            end = int(counts[i] > self.j)
            if end:
                self.hi = x
            else:
                self.lo = x
            self.count[end], self.logdet[end], self.exact[end] = counts[i], logdets[i], exact
        if self.noisy:
            return
        halved = self.hi - self.lo <= 0.5 * (hi - lo)
        self.stalls = 0 if halved else self.stalls + 1
        if not self.stepped:
            self.kept, self.run = None, 0
            return
        self.noisy |= not halved and hi - lo < _SECANT_FLOOR
        moved = (self.lo != lo, self.hi != hi)
        kept = moved.index(False) if moved.count(True) == 1 else None
        again = kept is not None and kept == self.kept
        if again:
            # Anderson and Bjorck: scale |det| at the end kept twice running by
            # 1 - det_new / det_old of the end that moved, or else halve it.
            ratio = math.exp(min(self.logdet[1 - kept] - previous[1 - kept], 0.0))
            self.logdet[kept] += math.log(1.0 - ratio if ratio < 1.0 else 0.5)
        self.kept, self.run = kept, (self.run + 1 if again else int(kept is not None))


def _bracket_eigenvalues(diag, b, cols, gap):
    """Adjacent floats lo < hi with `_count_below` at most j at lo and above j at hi.

    One pair per column j of `cols`, or None once a column is found not
    isolated (`_isolated`), which is when `eigenpairs` declines. The columns
    are bracketed in lockstep. Each pass takes one shift per unfinished
    column: the midpoint of its bracket, or, once the bracket holds exactly
    one eigenvalue and log|det(K - x I)| is known at both ends, the regula
    falsi point of det with the Anderson-Bjorck scaling of an end kept twice
    running (Galdino, "A family of regula falsi root-finding methods",
    2011), pushed further after three (`_Bracket.shift`). A column takes the
    midpoint after five passes running in which its bracket did not halve,
    and for good once a secant step fails to halve a bracket narrower than
    _SECANT_FLOOR, where log|det| is roundoff. Every count narrows every
    bracket it falls into. A pass counts by `_counts_below` when it takes a
    secant point or its shifts times n reach _REDUCTION_MIN_SIZE, otherwise
    by `_count_below`. A request whose columns times n fall below
    _REDUCTION_MIN_SIZE takes no secant points, so it bisects on
    `_count_below` alone.

    A column that closes has each end that a `_counts_below` count set
    checked by `_count_below`, and where the two disagree its bracket is
    mended (`_mend`); then its isolation is checked. The floating-point Sturm
    count is monotone in the shift (Kahan's argument; Demmel, Dhillon and
    Ren, ETNA 3, 1995), so each pair is the one that bisection on
    `_count_below` alone finds.
    """
    from bisect import bisect_right

    b2 = b * b
    n = len(diag)
    lo, hi = min(diag) - 2.0 * b, max(diag) + 2.0 * b
    secants = len(cols) * n >= _REDUCTION_MIN_SIZE
    diag_row = np.array(diag)
    brackets = live = [_Bracket(j, lo, hi, n, secants) for j in cols]
    while live:
        xs = sorted(set(map(_Bracket.shift, live)))
        if secants and (len(xs) * n >= _REDUCTION_MIN_SIZE or any(br.stepped for br in live)):
            counts, logdets = (a.tolist() for a in _counts_below(diag_row, b2, xs))
            exact = False
        else:
            counts = [_count_below(diag, b2, x) for x in xs]
            logdets, exact = [math.nan] * len(xs), True
        still = []
        for br in live:
            br.narrow(xs, counts, logdets, exact, bisect_right(xs, br.lo))
            if br.open():
                still.append(br)
                continue
            if not br.exact[0] and _count_below(diag, b2, br.lo) > br.j:
                br.lo, br.hi = _mend(diag, b2, br.j, br.lo, -1.0)
            elif not br.exact[1] and _count_below(diag, b2, br.hi) <= br.j:
                br.lo, br.hi = _mend(diag, b2, br.j, br.hi, 1.0)
            if not _isolated(diag, b2, br.j, br.lo, br.hi, gap):
                return None
        live = still
    return [(br.lo, br.hi) for br in brackets]


def _isolated(diag, b2, j, lo, hi, gap):
    """Whether `_count_below` is j one gap below lo and j + 1 one gap above hi."""
    return (_count_below(diag, b2, lo - gap), _count_below(diag, b2, hi + gap)) == (j, j + 1)


def _mend(diag, b2, j, edge, direction):
    """The bracket of column j found beyond `edge`, past which `_count_below` puts eigenvalue j.

    Steps from edge in `direction` (-1 or 1) by 1, 2, 4, ... ulps until the
    count crosses j, then bisects the last step (`_bisect`).
    """
    step = math.ulp(edge)
    while True:
        far = edge + direction * step
        if (_count_below(diag, b2, far) > j) != (direction < 0):
            break
        edge = far
        step *= 2.0
    return _bisect(partial(_count_below, diag, b2), j, *sorted((edge, far)))


def _bisect(count, j, lo, hi):
    """Bisect (lo, hi) to adjacent floats on `count`, keeping eigenvalue j inside.

    count(x, j) is an inertia count exact up to j + 1 (`_counter`). The pair
    depends on (lo, hi) and the count alone; the Sturm count is monotone in x
    (Kahan's argument; Demmel, Dhillon and Ren, ETNA 3, 1995). Serves
    `spectral_radius` (j = 0) and `_mend`.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if count(mid, j) <= j:
            lo = mid
        else:
            hi = mid
    return lo, hi


def eigenpairs(op, cols):
    """Eigenpairs of a Dirichlet K in the ascending-kappa columns `cols`, from the stencil.

    Returns (kappa, vectors) with kappa[j] and the dx-orthonormal vectors[:, j]
    of column cols[j], signed as `eigendecompose` signs its columns; or None
    when a requested eigenvalue is not isolated, that is when another lies
    within ISOLATION_RTOL * (max|a| + 2|b|) of it, or when a vector comes out
    non-finite. Never forms a dense K: O(n) time and memory per column.

    K is scaled as in `spectral_radius`. Each eigenvalue is bracketed to
    adjacent floats lo < hi on Sturm counts, all columns in lockstep
    (`_bracket_eigenvalues`), and kappa is lo: bit for bit what one
    bisection per column on `_count_below` gives, at about 20 to 60 passes
    of one odd-even reduction for all columns instead of about 55 scalar
    counts each. Dirichlet K is an unreduced tridiagonal
    (coupling > 0), so its eigenvalues are simple. The vector is one twisted
    factorization at that shift (Dhillon and Parlett 2004): the pivots of
    K - kappa I factored from the top and from the bottom meet at the index r
    where |gamma_r| is least, and z with z_r = 1 follows from the two unit
    bidiagonal factors as running products.
    """
    n = op.n
    if op.grid.boundary != DIRICHLET:
        raise ValueError("eigenpairs needs a Dirichlet grid")
    if not all(0 <= j < n for j in cols):
        raise ValueError(f"columns {list(cols)} out of range 0..{n - 1}")
    scale, diag, b = _scaled_stencil(op)
    b2 = b * b
    gap = ISOLATION_RTOL * (max(map(abs, diag)) + 2.0 * b)
    brackets = _bracket_eigenvalues(diag, b, cols, gap)
    if brackets is None:
        return None
    vectors = np.empty((n, len(brackets)))
    for k, (lo, _) in enumerate(brackets):
        shifted = [a - lo for a in diag]
        down = _pivots(shifted, b2)
        up = _pivots(shifted[::-1], b2)[::-1]
        r = int(np.argmin(np.abs(down + up - shifted)))
        z = np.ones(n)
        z[:r] = np.cumprod(-b / down[:r][::-1])[::-1]
        z[r + 1 :] = np.cumprod(-b / up[r + 1 :])
        norm = float(np.linalg.norm(z))
        if not math.isfinite(norm):
            return None
        vectors[:, k] = z / (norm * math.sqrt(op.grid.dx))
    return np.ldexp(np.array([lo for lo, _ in brackets]), -scale), _signed(vectors)


def solve_elliptic(spec, rhs, tol=1e-10):
    """Solve K c = rhs mode-wise, returning the zero-mode-free solution.

    Zero modes of K make the system unsolvable whenever the right-hand side
    has content along them; such content above `tol` (relative to |rhs|)
    raises EllipticObstructionError carrying the offending magnitude. Any
    zero-mode component of the answer is set to zero (minimum-norm choice).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (spec.operator.n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({spec.operator.n},)")
    c = spec.coefficients(rhs)
    total = float(np.linalg.norm(c))
    zero = list(spec.zero_modes)
    if zero and total > 0.0:
        offending = float(np.linalg.norm(c[zero])) / total
        if offending > tol:
            raise EllipticObstructionError(offending, tol)
    out = np.zeros_like(c)
    live = np.ones(c.shape[0], dtype=bool)
    live[zero] = False
    out[live] = c[live] / spec.eigenvalues[live]
    return spec.synthesize(out)

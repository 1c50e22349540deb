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
the same stencil. `Operator.matrix` is a dense view that the spectral and
bracket layers build on first use and keep for the operator's lifetime.

Discrete conventions shared by the whole package:

    integral over x   ->  dx * sum over grid points
    delta(x - y)      ->  identity / dx
    eigenvectors      ->  orthonormal under the dx-weighted inner product

Eigenvalues of K are denoted kappa; the physical energies of the associated
Schrodinger problem are -kappa, so bound spectra sit at negative kappa.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EllipticObstructionError

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

# Eigenvalues below ZERO_MODE_RTOL * max|kappa| count as zero modes.
ZERO_MODE_RTOL = 1e-10


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

    @cached_property
    def matrix(self):
        """Dense read-only K, assembled on first use and kept."""
        n = self.n
        k = np.zeros((n, n))
        np.fill_diagonal(k, self.diagonal)
        idx = np.arange(n - 1)
        k[idx, idx + 1] = self.coupling
        k[idx + 1, idx] = self.coupling
        if self.grid.boundary == PERIODIC:
            k[0, n - 1] = self.coupling
            k[n - 1, 0] = self.coupling
        k.setflags(write=False)
        return k


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition of an operator.

    Columns of `vectors` are orthonormal under the dx-weighted inner product,
    eigenvalues ascend, and `zero_modes` indexes eigenvalues within
    ZERO_MODE_RTOL * max|kappa| of zero.
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
    w = 1.0 / (grid.dx * grid.dx)
    # Same rounding as scaling the assembled Laplacian, then subtracting V.
    return Operator(
        diagonal=_read_only(scale * (-2.0 * w) - v),
        coupling=scale * w,
        hbar=hbar,
        mass=mass,
        grid=grid,
    )


def apply(op, f):
    """Stencil product K f in O(n); f may be a stack of fields, shape (..., n)."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (op.n,):
        raise ValueError(f"field has shape {f.shape}, expected (..., {op.n})")
    cf = op.coupling * f
    out = op.diagonal * f
    out[..., 1:] += cf[..., :-1]
    out[..., :-1] += cf[..., 1:]
    if op.grid.boundary == PERIODIC:
        # Corners in one strided update: out[0] += cf[-1], out[-1] += cf[0].
        last = op.n - 1
        out[..., ::last] += cf[..., ::-last]
    return out


class CayleySolver:
    """Solves (I - i a K) x = r for a fixed real a; factored once, O(n) per solve.

    Odd-even cyclic reduction: each level eliminates the odd-numbered unknowns
    from the even-numbered equations and keeps its multipliers, so a solve is
    about 2 log2(n) levels of array operations with no loop over grid points.
    No pivoting is needed for any a: the Hermitian part of I - i a K is I, and
    Gaussian elimination in a symmetric ordering (cyclic reduction is one) is
    stable for matrices with positive definite Hermitian part (Higham,
    Accuracy and Stability of Numerical Algorithms, section 10.4).

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
        self._levels = []
        while diag.size > 1:
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
            self._levels.append(
                (alpha, beta, inv, l_odd * inv, u_odd[: n_even - 1] * inv[: n_even - 1])
            )
        self._inv_last = 1.0 / diag
        self._correction = None
        if periodic:
            sw = np.zeros(n, dtype=complex)
            sw[[0, -1]] = s
            z = self._solve_tridiagonal(sw)
            self._correction = z / (1.0 + z[0] + z[-1])

    def _solve_tridiagonal(self, r):
        odd_parts = []
        for alpha, beta, _, _, _ in self._levels:
            r_odd = r[1::2]
            r_even = r[::2].copy()
            r_even[1:] += alpha * r_odd[: alpha.size]
            r_even[: beta.size] += beta * r_odd
            odd_parts.append(r_odd)
            r = r_even
        x = r * self._inv_last
        for (_, _, inv, p, q), r_odd in zip(reversed(self._levels), reversed(odd_parts)):
            x_odd = r_odd * inv - p * x[: p.size]
            x_odd[: q.size] -= q * x[1:]
            out = np.empty(x.size + p.size, dtype=complex)
            out[::2] = x
            out[1::2] = x_odd
            x = out
        return x

    def solve(self, rhs):
        """x with (I - i a K) x = rhs, for one field rhs of shape (n,)."""
        x = self._solve_tridiagonal(np.asarray(rhs, dtype=complex))
        if self._correction is not None:
            x = x - self._correction * (x[0] + x[-1])
        return x


def inner_product(f, g, grid):
    """dx-weighted inner product, the discrete integral of f*g."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch {f.shape} vs {g.shape}")
    return grid.dx * float(np.dot(f, g))


def eigendecompose(op):
    """Full spectral decomposition with dx-orthonormal eigenvectors."""
    w, v = np.linalg.eigh(op.matrix)
    v = v / np.sqrt(op.grid.dx)
    # Fix each eigenvector's overall sign so output is reproducible.
    pick = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[pick, np.arange(v.shape[1])])
    signs[signs == 0.0] = 1.0
    v = v * signs
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    zero = tuple(int(i) for i in np.nonzero(np.abs(w) <= ZERO_MODE_RTOL * scale)[0])
    return Spectrum(
        eigenvalues=_read_only(w),
        vectors=_read_only(v),
        zero_modes=zero,
        operator=op,
    )


@lru_cache(maxsize=64)
def spectral_radius(op):
    """max |kappa| of the operator; cached per operator instance."""
    return float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))


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

"""The Schrodinger equation as a Hamiltonian system for two real fields.

A wave function is stored as the pair of real grid functions (re, im) rather
than as complex amplitudes: the constrained formulation needs the real and
imaginary parts as first-class phase-space fields. With the symmetric lattice
operator K the evolution reads

    hbar d(re)/dt = -K im,        hbar d(im)/dt = K re,

which is i hbar dPsi/dt = -K Psi in complex form. Exact propagation is a
phase rotation of each eigenmode coefficient (the reference oracle for every
convergence study), or, with no eigenvectors, a Chebyshev series of stencil
products (`_chebyshev_flow`). The Crank-Nicolson step is the Cayley transform
of K, taken in O(n) by a tridiagonal solve, and therefore preserves the norm
functional to roundoff for any step size.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import quadrature
from .lattice import CayleySolver, apply, stencil_product
from .quadrature import Trajectory


class _State:
    """Validation of the state classes: frozen dataclasses of fields, then `time`, the last.

    In field order, each field becomes a read-only finite 1-D float array, and
    time a float. A field whose shape differs from the first's raises the
    class's `_MISMATCH` message.
    """

    _MISMATCH = "{name} has shape {shape}, expected {expected}"

    def __post_init__(self):
        expected = None
        for name in [f.name for f in fields(self)][:-1]:
            v = np.array(getattr(self, name), dtype=float)
            if v.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            expected = expected or v.shape
            if v.shape != expected:
                message = self._MISMATCH.format(name=name, shape=v.shape, expected=expected)
                raise ValueError(message)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        object.__setattr__(self, "time", float(self.time))


@dataclass(frozen=True)
class WaveFunction(_State):
    """Real and imaginary parts of the wave function at one instant."""

    _MISMATCH = "shape mismatch {expected} vs {shape}"

    re: np.ndarray
    im: np.ndarray
    time: float = 0.0


def schrodinger_rhs(op, psi):
    """Time derivatives (d re/dt, d im/dt) of the two-field system."""
    dre = -apply(op, psi.im) / op.hbar
    dim = apply(op, psi.re) / op.hbar
    return dre, dim


class CrankNicolson:
    """Cayley-form stepper for a fixed operator and step size.

    One step applies (I - i a K)^{-1} (I + i a K), a = dt / 2 hbar, to
    Psi = re + i im: one stacked stencil product forms the right-hand side and
    a tridiagonal solve factored and planned at construction inverts the
    left, both O(n).
    Unitary up to roundoff because K is symmetric, for any dt.
    """

    def __init__(self, op, dt):
        dt = float(dt)
        if not 0.0 < dt < np.inf:
            raise ValueError("dt must be positive and finite")
        self.op = op
        self.dt = dt
        self._a = 0.5 * dt / op.hbar
        self._solver = CayleySolver(op, self._a)
        self._row = np.empty(op.n)
        # (real, imaginary) views of the solver's right-hand side and solution
        self._rhs = self._solver.rhs.real, self._solver.rhs.imag
        self._x = self._solver.x.real, self._solver.x.imag

    def advance(self, y, ky, out):
        """Write (re, im) one step on into out, shape (2, n), from y = (re, im) and ky = K y.

        The right-hand side goes straight into the solver's `rhs`, through a
        scratch row, and its `x` is split into out: a step allocates no arrays.
        """
        a, row, (rhs_re, rhs_im) = self._a, self._row, self._rhs
        np.multiply(a, ky[1], out=row)
        np.subtract(y[0], row, out=rhs_re)
        np.multiply(a, ky[0], out=row)
        np.add(y[1], row, out=rhs_im)
        self._solver.run()
        out[0], out[1] = self._x

    def steps(self, ys, ky):
        """The one CN loop: step ys[0], with ky = K ys[0], on into ys[1:]; return K ys[1:]."""
        kys = np.empty_like(ys[1:])
        scratch = np.empty(ys.shape[1:])
        for j in range(1, len(ys)):
            self.advance(ys[j - 1], ky, ys[j])
            ky = stencil_product(self.op, ys[j], kys[j - 1], scratch=scratch)
        return kys

    def step(self, psi):
        y = np.stack([psi.re, psi.im])
        out = np.empty_like(y)
        self.advance(y, apply(self.op, y), out)
        return WaveFunction(re=out[0], im=out[1], time=psi.time + self.dt)


def step_crank_nicolson(op, psi, dt):
    """Single Crank-Nicolson step; keep a `CrankNicolson` for repeated steps."""
    return CrankNicolson(op, dt).step(psi)


def crank_nicolson_trajectory(op, psi0, dt, nsteps):
    """Trajectory of nsteps Crank-Nicolson steps from psi0, by `CrankNicolson.steps`."""
    y = np.empty((int(nsteps) + 1, 2, op.n))
    y[0] = psi0.re, psi0.im
    CrankNicolson(op, dt).steps(y, stencil_product(op, y[0]))
    times = psi0.time + dt * np.arange(y.shape[0])
    return Trajectory(times, re=y[:, 0], im=y[:, 1])


def propagate_spectral(spec, psi0, t):
    """Exact evolution by time t: each eigencoefficient picks up e^{i kappa t / hbar}."""
    re, im = _flow(spec, psi0.re, psi0.im)(t)
    return WaveFunction(re=re, im=im, time=psi0.time + t)


def _flow(spec, re, im):
    """Exact flow of (re, im), coefficients taken once: t -> (re, im) at t, shape (2, n).

    Each coefficient turns by the phase kappa t / hbar. A 1-D array of T
    times gives one state per time, shape (T, 2, n).
    """
    r, s = spec.coefficients(re), spec.coefficients(im)

    def at(t):
        theta = spec.eigenvalues * (np.reshape(t, (-1, 1)) / spec.hbar)
        c, sn = np.cos(theta), np.sin(theta)
        return _synthesize(spec, (r * c - s * sn, s * c + r * sn), t)

    return at


# A Chebyshev series stops at the first term N with 2 sum_{k >= N} |J_k| below
# this: |T_k(X)| <= 1 on [-1, 1] in the 2-norm, so the dropped terms move the
# state by less than this times its 2-norm, far below one ulp of its entries.
_CHEBYSHEV_TAIL = 2.0**-60
# Terms of a Chebyshev series kept at once, then multiplied into the
# accumulators by one matrix product per parity; even, so a chunk starts on an
# even term. At n = 6401 a chunk is 3.3 MB.
_CHEBYSHEV_CHUNK = 32
# The fixed cost of one term of a Chebyshev series, in multiply-adds of its
# accumulators: the Python and numpy calls of a stencil product and of a step
# of the Bessel recurrence, about 11 us on a 2-core x86 host at 1 BLAS thread,
# where a multiply-add of a term costs about 0.35 ns.
_CHEBYSHEV_TERM_OVERHEAD = 2**15


def _chebyshev_flow(op, re, im):
    """Exact flow of (re, im) from the stencil alone: t -> (re, im) at t, shape (2, n).

    A 1-D array of T times gives (T, 2, n), as `_flow` does. The flow is

        exp(i K tau) Psi = e^{i c tau} sum_k eps_k i^k J_k(r tau) T_k(X) Psi,

    tau = t / hbar, X = (K - c) / r, eps_0 = 1 and eps_k = 2 (the
    Jacobi-Anger expansion; Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967,
    1984), where [c - r, c + r] = [min a - 2|b|, max a + 2|b|] is the
    Gershgorin interval of the stencil, so the spectrum of X lies in [-1, 1].
    One recurrence T_{k+1}(X) Psi = 2 X T_k(X) Psi - T_{k-1}(X) Psi, one
    stencil product a term, serves every time: its terms are multiplied into
    one accumulator per parity of k a chunk at a time, so memory stays
    O((T + _CHEBYSHEV_CHUNK) n). The term count comes from the Bessel tail
    (`_chebyshev_coefficients`), about r tau_max + O((r tau_max)^(1/3)).
    """
    y = np.array([re, im], dtype=float)
    n = op.n
    c, r = _gershgorin(op)
    # 2 X as a stencil, so that each term is one product
    two_x = replace(op, diagonal=(op.diagonal - c) * (2.0 / r), coupling=op.coupling * (2.0 / r))

    def at(t):
        tau = np.reshape(t, -1) / op.hbar
        coeffs = _chebyshev_coefficients(r * tau)
        last = len(coeffs) - 1
        # acc[0] sums the even terms and acc[1] the odd ones, each term a row (re, im)
        acc = np.zeros((2, tau.size, 2 * n))
        # rows 0 and 1 carry the last two terms of the previous chunk
        terms = np.empty((_CHEBYSHEV_CHUNK + 2, 2, n))
        first = 0
        for k in range(last + 1):
            j = 2 + k % _CHEBYSHEV_CHUNK
            if k == 0:
                terms[j] = y
            else:
                stencil_product(two_x, terms[j - 1], terms[j])
                if k == 1:
                    terms[j] *= 0.5
                else:
                    terms[j] -= terms[j - 2]
            if j == _CHEBYSHEV_CHUNK + 1 or k == last:
                rows = terms[2 : j + 1].reshape(j - 1, 2 * n)
                acc[0] += coeffs[first : k + 1 : 2].T @ rows[0::2]
                acc[1] += coeffs[first + 1 : k + 1 : 2].T @ rows[1::2]
                terms[:2] = terms[j - 1 : j + 1]
                first = k + 1
        # the odd terms carry a factor i: sum = acc[0] + i acc[1]
        s_re = acc[0, :, :n] - acc[1, :, n:]
        s_im = acc[0, :, n:] + acc[1, :, :n]
        cos, sin = np.cos(c * tau)[:, None], np.sin(c * tau)[:, None]
        out = np.stack([cos * s_re - sin * s_im, sin * s_re + cos * s_im], axis=1)
        return out if np.ndim(t) else out[0]

    return at


def _gershgorin(op):
    """(c, r): the Gershgorin interval [min a - 2|b|, max a + 2|b|] of the stencil is [c - r, c + r]."""
    lo = float(np.min(op.diagonal)) - 2.0 * op.coupling
    hi = float(np.max(op.diagonal)) + 2.0 * op.coupling
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _chebyshev_is_cheaper(op, times):
    """Whether `_chebyshev_flow(op, ...)(times)` costs less than `eigendecompose(op)` and `_flow`.

    The series takes N terms, N at most the order `_bessel_order` of r tau_max,
    which grows with 1/(mass dx^2) and with the range of the potential, and each
    term costs about n (T + 16) multiply-adds for T times (its stencil product,
    its accumulation and its Bessel values) plus _CHEBYSHEV_TERM_OVERHEAD. The
    dense path costs about n^3 of them, nearly all in `eigh`. Timed against
    each other at n = 200 to 3215 and T = 9 to 33, this rule picks a path
    within 1.5 times the cheaper one. The series' Bessel table, N T floats,
    then holds fewer than n^2 of them, so the chosen path is also bounded in
    memory by the dense one, whose K alone is n^2.
    """
    n, samples = op.n, np.size(times)
    terms = _bessel_order(_gershgorin(op)[1] * float(np.max(np.abs(times))) / op.hbar)
    return terms * (n * (samples + 16) + _CHEBYSHEV_TERM_OVERHEAD) <= n**3


def _chebyshev_coefficients(z):
    """eps_k i^k J_k(z) of `_chebyshev_flow` without the factor i of odd k, shape (N, T).

    That is eps_k (-1)^(k // 2) J_k(z_t) for each of the T arguments z_t, for
    the N leading orders that the tail rule of _CHEBYSHEV_TAIL keeps.
    """
    j = _bessel_j(z)
    tail = 2.0 * np.cumsum(np.maximum(j.max(axis=1), -j.min(axis=1))[::-1])[::-1]
    coeffs = j[: max(1, int(np.count_nonzero(tail > _CHEBYSHEV_TAIL)))]
    coeffs[1:] *= 2.0
    coeffs[2::4] *= -1.0
    coeffs[3::4] *= -1.0
    return coeffs


def _bessel_j(z):
    """J_k(z_t) for k = 0, ..., m and each entry z_t of the 1-D array z, shape (m + 1, T).

    Miller's backward recurrence J_{k-1} = (2k / z) J_k - J_{k+1}, run on the
    ratios J_k / J_{k-1} = z / (2k - z J_{k+1} / J_k) from J_{m+1} = 0, so that
    nothing overflows, and normalised by J_0 + 2 sum_k J_2k = 1 (Abramowitz and
    Stegun 9.1.46; Numerical Recipes, section 6.5). The recurrence starts at
    m = |z| + 18 |z|^(1/3) + 40, past the order where J_m falls below 1e-30 (the
    transition region of J_k is about (|z| / 2)^(1/3) wide), so the orders the
    series keeps come out to roundoff. z = 0 gives J_0 = 1 and J_k = 0.
    """
    m = _bessel_order(float(np.max(np.abs(z))))
    j = np.empty((m + 1, z.size))
    j[0] = 1.0
    ratio = np.zeros(z.size)
    for k in range(m, 0, -1):
        ratio = z / (2.0 * k - z * ratio)
        j[k] = ratio
    np.cumprod(j, axis=0, out=j)
    j /= j[0] + 2.0 * j[2::2].sum(axis=0)
    return j


def _bessel_order(top):
    """The order m at which `_bessel_j` starts its recurrence for arguments up to |z| = top."""
    return int(top + 18.0 * math.cbrt(top) + 40.0)


def _synthesize(spec, coeffs, t):
    """The states, (T, 2, n) or (2, n) for a scalar t, of coefficient rows (a, b), each (T, n).

    A one-row product, as for a scalar t, gives the bits of `Spectrum.synthesize`.
    """
    y = np.stack([c @ spec.vectors.T for c in coeffs], axis=1)
    return y if np.ndim(t) else y[0]


def spectral_trajectory(spec, psi0, dt, nsteps):
    """Exact trajectory sampled at uniform dt, the flow evaluated at all times at once."""
    offsets = dt * np.arange(int(nsteps) + 1)
    y = _flow(spec, psi0.re, psi0.im)(offsets)
    return Trajectory(psi0.time + offsets, re=y[:, 0], im=y[:, 1])


def schrodinger_residual(op, traj):
    """Residual of i hbar dPsi/dt + K Psi on the interior time samples.

    Time derivatives are central differences, so the residual of an exact
    trajectory decays at second order in the sampling step. Returns the two
    real components (hbar d(re)/dt + K im, hbar d(im)/dt - K re) as arrays of
    shape (len(times) - 2, n).
    """
    dt = quadrature.uniform_dt(traj.times)
    re, im = traj.re, traj.im
    re_dot = quadrature.ddt_interior(re, dt)
    im_dot = quadrature.ddt_interior(im, dt)
    r1 = op.hbar * re_dot + apply(op, im[1:-1])
    r2 = op.hbar * im_dot - apply(op, re[1:-1])
    return r1, r2


def wave_hamiltonian(op, psi):
    """Energy functional: (⟨re, -K re⟩ + ⟨im, -K im⟩) / 2 hbar.

    Equals the gradient-plus-potential form after integration by parts, which
    is exact under both boundary closures.
    """
    y = (psi.re, psi.im)
    return float(_energy(op, y, apply(op, y)))


def _energy(op, y, ky):
    """wave_hamiltonian of y = (re, im), given ky = K y.

    Reduces over the grid axis, the last: y[0] and y[1] may be blocks of
    states, one per row, and the result is then one energy per row.
    """
    dx = op.grid.dx
    quad = dx * np.vecdot(y[0], ky[0]) + dx * np.vecdot(y[1], ky[1])
    return -0.5 * quad / op.hbar


def norm_hamiltonian(op, psi):
    """Free-field Hamiltonian of the non-canonical form: integral of |Psi|^2 / 2 hbar."""
    return float(_norm(op, psi.re, psi.im))


def _norm(op, re, im):
    """norm_hamiltonian of the wave function re + i im, reduced over the last axis as `_energy`."""
    dx = op.grid.dx
    return 0.5 * (dx * np.vecdot(re, re) + dx * np.vecdot(im, im)) / op.hbar


def hamiltonian_action(op, traj):
    """Time integral of ⟨im, d(re)/dt⟩ - H over a uniformly sampled trajectory.

    Stationary to O(eps^2) under interior perturbations of exact solutions.
    """
    dt = quadrature.uniform_dt(traj.times)
    re_dot = quadrature.ddt(traj.re, dt)
    y = np.stack([traj.re, traj.im])
    integrand = op.grid.dx * np.vecdot(y[1], re_dot) - _energy(op, y, stencil_product(op, y))
    return quadrature.trapezoid(integrand, dt)

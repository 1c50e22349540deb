"""The Schrodinger equation as a Hamiltonian system for two real fields.

A wave function is stored as the pair of real grid functions (re, im) rather
than as complex amplitudes: the constrained formulation needs the real and
imaginary parts as first-class phase-space fields. With the symmetric lattice
operator K the evolution reads

    hbar d(re)/dt = -K im,        hbar d(im)/dt = K re,

which is i hbar dPsi/dt = -K Psi in complex form. Exact propagation is a
phase rotation of each eigenmode coefficient (the reference oracle for every
convergence study). The Crank-Nicolson step is the Cayley transform of K,
taken in O(n) by a tridiagonal solve, and therefore preserves the norm
functional to roundoff for any step size.
"""

from dataclasses import dataclass, fields

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
    a tridiagonal solve factored at construction inverts the left, both O(n).
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

    def advance(self, y, ky, out):
        """Write (re, im) one step on into out, shape (2, n), from y = (re, im) and ky = K y."""
        rhs = np.empty(self.op.n, dtype=complex)
        rhs.real = y[0] - self._a * ky[1]
        rhs.imag = y[1] + self._a * ky[0]
        z = self._solver.solve(rhs)
        out[0] = z.real
        out[1] = z.imag

    def steps(self, ys, ky):
        """The one CN loop: step ys[0], with ky = K ys[0], on into ys[1:]; return K ys[1:]."""
        kys = np.empty_like(ys[1:])
        for j in range(1, len(ys)):
            self.advance(ys[j - 1], ky, ys[j])
            ky = stencil_product(self.op, ys[j], kys[j - 1])
        return kys

    def step(self, psi):
        y = np.stack([psi.re, psi.im])
        out = np.empty_like(y)
        self.advance(y, apply(self.op, y), out)
        return WaveFunction(re=out[0], im=out[1], time=psi.time + self.dt)


def step_crank_nicolson(op, psi, dt):
    """Single Crank-Nicolson step; use the CrankNicolson class for long runs."""
    return CrankNicolson(op, dt).step(psi)


def crank_nicolson_trajectory(op, psi0, dt, nsteps):
    """Trajectory of nsteps Crank-Nicolson steps starting from psi0."""
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

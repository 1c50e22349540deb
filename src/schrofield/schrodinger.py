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

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .lattice import CayleySolver, apply, stencil_product
from .quadrature import Trajectory


def _field_array(values, name):
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class WaveFunction:
    """Real and imaginary parts of the wave function at one instant."""

    re: np.ndarray
    im: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        re = _field_array(self.re, "re")
        im = _field_array(self.im, "im")
        if re.shape != im.shape:
            raise ValueError(f"shape mismatch {re.shape} vs {im.shape}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "time", float(self.time))


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

    def advance(self, y, ky):
        """Stacked (re, im) one step on, from y = (re, im) and ky = K y."""
        z = self._solver.solve((y[0] - self._a * ky[1]) + 1j * (y[1] + self._a * ky[0]))
        return np.stack([z.real, z.imag])

    def step(self, psi):
        y = (psi.re, psi.im)
        re, im = self.advance(y, apply(self.op, y))
        return WaveFunction(re=re, im=im, time=psi.time + self.dt)


def step_crank_nicolson(op, psi, dt):
    """Single Crank-Nicolson step; use the CrankNicolson class for long runs."""
    return CrankNicolson(op, dt).step(psi)


def crank_nicolson_trajectory(op, psi0, dt, nsteps):
    """Trajectory of nsteps Crank-Nicolson steps starting from psi0."""
    stepper = CrankNicolson(op, dt)
    y = np.empty((int(nsteps) + 1, 2, op.n))
    y[0] = psi0.re, psi0.im
    for k in range(int(nsteps)):
        y[k + 1] = stepper.advance(y[k], stencil_product(op, y[k]))
    times = psi0.time + dt * np.arange(y.shape[0])
    return Trajectory(times, re=y[:, 0], im=y[:, 1])


def propagate_spectral(spec, psi0, t):
    """Exact evolution by time t: each eigencoefficient picks up e^{i kappa t / hbar}."""
    re, im = _rotate(spec, spec.coefficients(psi0.re), spec.coefficients(psi0.im), t)
    return WaveFunction(re=re, im=im, time=psi0.time + t)


def _rotate(spec, r, s, t):
    """(re, im) at time t of the state with eigencoefficients (r, s) at time 0."""
    theta = spec.eigenvalues * (t / spec.hbar)
    c, sn = np.cos(theta), np.sin(theta)
    return spec.synthesize(r * c - s * sn), spec.synthesize(s * c + r * sn)


def spectral_trajectory(spec, psi0, dt, nsteps):
    """Exact trajectory sampled at uniform dt (vectorized over samples)."""
    r = spec.coefficients(psi0.re)
    s = spec.coefficients(psi0.im)
    offsets = dt * np.arange(int(nsteps) + 1)
    theta = np.outer(offsets, spec.eigenvalues) / spec.hbar
    c, sn = np.cos(theta), np.sin(theta)
    re_all = (r * c - s * sn) @ spec.vectors.T
    im_all = (s * c + r * sn) @ spec.vectors.T
    return Trajectory(psi0.time + offsets, re=re_all, im=im_all)


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
    return _energy(op, y, apply(op, y))


def _energy(op, y, ky):
    """wave_hamiltonian of y = (re, im), given ky = K y."""
    dx = op.grid.dx
    quad = dx * float(np.dot(y[0], ky[0])) + dx * float(np.dot(y[1], ky[1]))
    return -0.5 * quad / op.hbar


def norm_hamiltonian(op, psi):
    """Free-field Hamiltonian of the non-canonical form: integral of |Psi|^2 / 2 hbar."""
    return _norm(op, psi.re, psi.im)


def _norm(op, re, im):
    """norm_hamiltonian of the wave function re + i im."""
    dx = op.grid.dx
    return 0.5 * (dx * float(np.dot(re, re)) + dx * float(np.dot(im, im))) / op.hbar


def hamiltonian_action(op, traj):
    """Time integral of ⟨im, d(re)/dt⟩ - H over a uniformly sampled trajectory.

    Stationary to O(eps^2) under interior perturbations of exact solutions.
    """
    dt = quadrature.uniform_dt(traj.times)
    re_dot = quadrature.ddt(traj.re, dt)
    y = np.stack([traj.re, traj.im], axis=1)
    ky = stencil_product(op, y)
    integrand = [
        op.grid.dx * float(np.dot(y_k[1], re_dot_k)) - _energy(op, y_k, ky_k)
        for y_k, ky_k, re_dot_k in zip(y, ky, re_dot)
    ]
    return quadrature.trapezoid(integrand, dt)

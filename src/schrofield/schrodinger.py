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
from .lattice import CayleySolver, apply, inner_product


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


@dataclass(frozen=True)
class WaveTrajectory:
    """Time-ordered wave function samples."""

    times: np.ndarray
    states: tuple

    def __post_init__(self):
        t = _field_array(self.times, "times")
        states = tuple(self.states)
        if len(states) != t.shape[0]:
            raise ValueError("times and states must align")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)

    def re_matrix(self):
        return np.stack([s.re for s in self.states])

    def im_matrix(self):
        return np.stack([s.im for s in self.states])


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

    def step(self, psi):
        k_re, k_im = apply(self.op, np.stack([psi.re, psi.im]))
        rhs = (psi.re - self._a * k_im) + 1j * (psi.im + self._a * k_re)
        z = self._solver.solve(rhs)
        return WaveFunction(re=z.real, im=z.imag, time=psi.time + self.dt)


def step_crank_nicolson(op, psi, dt):
    """Single Crank-Nicolson step; use the CrankNicolson class for long runs."""
    return CrankNicolson(op, dt).step(psi)


def crank_nicolson_trajectory(op, psi0, dt, nsteps):
    """Trajectory of nsteps Crank-Nicolson steps starting from psi0."""
    stepper = CrankNicolson(op, dt)
    states = [psi0]
    for _ in range(int(nsteps)):
        states.append(stepper.step(states[-1]))
    times = psi0.time + dt * np.arange(len(states))
    return WaveTrajectory(times=times, states=tuple(states))


def propagate_spectral(spec, psi0, t):
    """Exact evolution by time t: each eigencoefficient picks up e^{i kappa t / hbar}."""
    r = spec.coefficients(psi0.re)
    s = spec.coefficients(psi0.im)
    theta = spec.eigenvalues * (t / spec.hbar)
    c, sn = np.cos(theta), np.sin(theta)
    return WaveFunction(
        re=spec.synthesize(r * c - s * sn),
        im=spec.synthesize(s * c + r * sn),
        time=psi0.time + t,
    )


def spectral_trajectory(spec, psi0, dt, nsteps):
    """Exact trajectory sampled at uniform dt (vectorized over samples)."""
    r = spec.coefficients(psi0.re)
    s = spec.coefficients(psi0.im)
    offsets = dt * np.arange(int(nsteps) + 1)
    theta = np.outer(offsets, spec.eigenvalues) / spec.hbar
    c, sn = np.cos(theta), np.sin(theta)
    re_all = (r * c - s * sn) @ spec.vectors.T
    im_all = (s * c + r * sn) @ spec.vectors.T
    times = psi0.time + offsets
    states = tuple(
        WaveFunction(re=re_all[k], im=im_all[k], time=times[k])
        for k in range(offsets.size)
    )
    return WaveTrajectory(times=times, states=states)


def schrodinger_residual(op, traj):
    """Residual of i hbar dPsi/dt + K Psi on the interior time samples.

    Time derivatives are central differences, so the residual of an exact
    trajectory decays at second order in the sampling step. Returns the two
    real components (hbar d(re)/dt + K im, hbar d(im)/dt - K re) as arrays of
    shape (len(times) - 2, n).
    """
    dt = quadrature.uniform_dt(traj.times)
    re = traj.re_matrix()
    im = traj.im_matrix()
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
    grid = op.grid
    quad = inner_product(psi.re, apply(op, psi.re), grid) + inner_product(
        psi.im, apply(op, psi.im), grid
    )
    return -0.5 * quad / op.hbar


def norm_hamiltonian(op, psi):
    """Free-field Hamiltonian of the non-canonical form: integral of |Psi|^2 / 2 hbar."""
    grid = op.grid
    return 0.5 * (
        inner_product(psi.re, psi.re, grid) + inner_product(psi.im, psi.im, grid)
    ) / op.hbar


def hamiltonian_action(op, traj):
    """Time integral of ⟨im, d(re)/dt⟩ - H over a uniformly sampled trajectory.

    Stationary to O(eps^2) under interior perturbations of exact solutions.
    """
    dt = quadrature.uniform_dt(traj.times)
    re_dot = quadrature.ddt(traj.re_matrix(), dt)
    grid = op.grid
    integrand = np.array(
        [
            inner_product(state.im, re_dot[k], grid) - wave_hamiltonian(op, state)
            for k, state in enumerate(traj.states)
        ]
    )
    return quadrature.trapezoid(integrand, dt)

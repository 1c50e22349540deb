"""Dynamics of the real wave-potential field.

The field phi obeys hbar^2 d2(phi)/dt2 + K^2 phi = 0 on the lattice, stored as
the first-order pair (phi, p) with p = hbar d(phi)/dt. Every eigenmode is a
harmonic oscillator of frequency |kappa| / hbar; zero modes of K drift
linearly and are deliberately kept (they carry the kernel of the map to wave
functions). Besides the exact spectral propagator there is a velocity-Verlet
step, symplectic and time-reversible, with the oscillator stability bound
enforced rather than warned about.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import StabilityError
from .lattice import Grid, apply, spectral_radius, stencil_product
from .quadrature import Trajectory
from .schrodinger import _field_array


@dataclass(frozen=True)
class FieldState:
    """Field phi and conjugate momentum p = hbar d(phi)/dt at one instant."""

    phi: np.ndarray
    p: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        phi = _field_array(self.phi, "phi")
        p = _field_array(self.p, "p")
        if phi.shape != p.shape:
            raise ValueError(f"shape mismatch {phi.shape} vs {p.shape}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "time", float(self.time))


def field_rhs(op, s):
    """Time derivatives (d phi/dt, d p/dt) = (p/hbar, -K^2 phi/hbar)."""
    dphi = s.p / op.hbar
    dp = -apply(op, apply(op, s.phi)) / op.hbar
    return dphi, dp


def leapfrog_stability_bound(op):
    """Largest |dt| the velocity-Verlet step tolerates: 2 hbar / max|kappa|."""
    return 2.0 * op.hbar / spectral_radius(op)


def step_leapfrog(op, s, dt):
    """One kick-drift-kick velocity-Verlet step.

    Negative dt is allowed (the scheme is time-reversible); |dt| must stay
    under the oscillator stability bound or the step is rejected.
    """
    y, _, _ = _leapfrog(op, (s.phi, s.p), apply(op, apply(op, s.phi)), dt)
    return FieldState(phi=y[0], p=y[1], time=s.time + float(dt))


def _leapfrog(op, y, kk_phi, dt):
    """step_leapfrog on y = (phi, p), given kk_phi = K^2 phi.

    Returns the stacked (phi, p) one step on with its K phi and K^2 phi; the
    closing kick's K^2 phi is the next step's opening kick.
    """
    dt = float(dt)
    bound = leapfrog_stability_bound(op)
    if dt == 0.0 or abs(dt) >= bound:
        raise StabilityError(dt, bound, "leapfrog")
    half = 0.5 * dt / op.hbar
    p_half = y[1] - half * kk_phi
    phi = y[0] + dt * p_half / op.hbar
    k_phi = stencil_product(op, phi)
    kk_phi = stencil_product(op, k_phi)
    return np.stack([phi, p_half - half * kk_phi]), k_phi, kk_phi


def leapfrog_trajectory(op, s0, dt, nsteps):
    """Trajectory of nsteps leapfrog steps from s0; each step takes two stencil products."""
    y = np.empty((int(nsteps) + 1, 2, op.n))
    y[0] = s0.phi, s0.p
    kk_phi = stencil_product(op, stencil_product(op, y[0, 0]))
    for k in range(int(nsteps)):
        y[k + 1], _, kk_phi = _leapfrog(op, y[k], kk_phi, dt)
    times = s0.time + dt * np.arange(y.shape[0])
    return Trajectory(times, phi=y[:, 0], p=y[:, 1])


def _mode_evolution(spec, a, b, offsets):
    """Oscillator evolution of mode coefficients over the given time offsets.

    Returns (a(t), b(t)) with shape (len(offsets), n_modes). Zero modes drift:
    phi grows linearly with slope p / hbar while p stays put.
    """
    hbar = spec.hbar
    omega = np.abs(spec.eigenvalues) / hbar
    zero = np.zeros(omega.shape, dtype=bool)
    zero[list(spec.zero_modes)] = True
    omega_safe = np.where(zero, 1.0, omega)
    theta = np.outer(offsets, omega_safe)
    c, sn = np.cos(theta), np.sin(theta)
    a_t = a * c + (b / (hbar * omega_safe)) * sn
    b_t = -(hbar * omega_safe) * a * sn + b * c
    if zero.any():
        drift = np.outer(offsets, b[zero]) / hbar
        a_t[:, zero] = a[zero] + drift
        b_t[:, zero] = b[zero]
    return a_t, b_t


def propagate_spectral_field(spec, s0, t):
    """Exact field evolution by time t in the eigenbasis."""
    phi, p = _propagate(spec, spec.coefficients(s0.phi), spec.coefficients(s0.p), t)
    return FieldState(phi=phi, p=p, time=s0.time + t)


def _propagate(spec, a, b, t):
    """(phi, p) at time t of the state with eigencoefficients (a, b) at time 0."""
    a_t, b_t = _mode_evolution(spec, a, b, np.array([float(t)]))
    return spec.synthesize(a_t[0]), spec.synthesize(b_t[0])


def spectral_field_trajectory(spec, s0, dt, nsteps):
    """Exact field trajectory sampled at uniform dt."""
    a = spec.coefficients(s0.phi)
    b = spec.coefficients(s0.p)
    offsets = dt * np.arange(int(nsteps) + 1)
    a_t, b_t = _mode_evolution(spec, a, b, offsets)
    phi_all = a_t @ spec.vectors.T
    p_all = b_t @ spec.vectors.T
    return Trajectory(s0.time + offsets, phi=phi_all, p=p_all)


def energy_densities(op, s):
    """Pointwise kinetic, potential, and total energy densities (T, U, E)."""
    kphi = apply(op, s.phi)
    t = 0.5 * s.p * s.p / op.hbar
    u = 0.5 * kphi * kphi / op.hbar
    return t, u, t + u


def field_hamiltonian(op, s):
    """Total field energy (⟨p, p⟩ + ⟨K phi, K phi⟩) / 2 hbar."""
    return _energy(op, s.p, apply(op, s.phi))


def _energy(op, p, k_phi):
    """field_hamiltonian of a state with momentum p, given k_phi = K phi."""
    dx = op.grid.dx
    return 0.5 * (dx * float(np.dot(p, p)) + dx * float(np.dot(k_phi, k_phi))) / op.hbar


def field_action(op, traj):
    """Time integral of (hbar/2) phi_dot^2 - (K phi)^2 / 2 hbar over the grid."""
    dt = quadrature.uniform_dt(traj.times)
    phi = traj.phi
    phi_dot = quadrature.ddt(phi, dt)
    kphi = apply(op, phi)
    density = 0.5 * op.hbar * phi_dot * phi_dot - 0.5 * kphi * kphi / op.hbar
    integrand = op.grid.dx * density.sum(axis=1)
    return quadrature.trapezoid(integrand, dt)


def field_equation_residuals(op, traj):
    """Residuals of the first-order system on interior time samples.

    r1 = hbar d(phi)/dt - p and r2 = hbar d(p)/dt + K^2 phi, both of shape
    (len(times) - 2, n); second order small on exact trajectories.
    """
    dt = quadrature.uniform_dt(traj.times)
    phi, p = traj.phi, traj.p
    r1 = op.hbar * quadrature.ddt_interior(phi, dt) - p[1:-1]
    r2 = op.hbar * quadrature.ddt_interior(p, dt) + apply(op, apply(op, phi[1:-1]))
    return r1, r2


def second_order_residual(op, values, dt):
    """Residual of hbar^2 f_ddot + K^2 f for sampled f, on interior samples."""
    values = np.asarray(values, dtype=float)
    fddot = quadrature.d2dt2_interior(values, dt)
    return op.hbar * op.hbar * fddot + apply(op, apply(op, values[1:-1]))


def rescale_state(s, grid, hbar):
    """Map a field state of the hbar-theory to the equivalent unit-hbar one.

    Coordinates and times compress by hbar while the field and momentum pick
    up sqrt(hbar): new x = x / hbar, new t = t / hbar, new phi = sqrt(hbar) phi,
    new p = sqrt(hbar) p. The potential values are reused unchanged on the new
    grid (the old potential evaluated at the mapped points), and the companion
    operator is rebuilt with hbar = 1 and the same mass; it then equals the
    original matrix entry for entry, making the discrete action invariant.
    """
    hbar = float(hbar)
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    root = np.sqrt(hbar)
    new_grid = Grid(
        n=grid.n, dx=grid.dx / hbar, x_min=grid.x_min / hbar, boundary=grid.boundary
    )
    new_state = FieldState(phi=root * s.phi, p=root * s.p, time=s.time / hbar)
    return new_state, new_grid

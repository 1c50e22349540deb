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
from .schrodinger import _State, _synthesize


@dataclass(frozen=True)
class FieldState(_State):
    """Field phi and conjugate momentum p = hbar d(phi)/dt at one instant."""

    _MISMATCH = "shape mismatch {expected} vs {shape}"

    phi: np.ndarray
    p: np.ndarray
    time: float = 0.0


def field_rhs(op, s):
    """Time derivatives (d phi/dt, d p/dt) = (p/hbar, -K^2 phi/hbar)."""
    dphi = s.p / op.hbar
    dp = -apply(op, apply(op, s.phi)) / op.hbar
    return dphi, dp


def leapfrog_stability_bound(op):
    """Largest |dt| the velocity-Verlet step tolerates: 2 hbar / max|kappa|."""
    return 2.0 * op.hbar / spectral_radius(op)


def step_leapfrog(op, s, dt):
    """One kick-drift-kick velocity-Verlet step; keep a `Leapfrog` for repeated steps."""
    return Leapfrog(op, dt).step(s)


def _leapfrog(op, y, kk_phi, dt, out, k_phi, scratch):
    """step_leapfrog on y = (phi, p), given kk_phi = K^2 phi and a float dt already checked.

    Writes (phi, p) one step on into out (not y's memory), its K phi into
    k_phi and its K^2 phi into kk_phi, the next opening kick's. Products with
    dt go through the row `scratch`, so a step allocates no arrays.
    """
    half = 0.5 * dt / op.hbar
    np.multiply(kk_phi, half, out=scratch)
    np.subtract(y[1], scratch, out=out[1])
    np.multiply(out[1], dt, out=scratch)
    scratch /= op.hbar
    np.add(y[0], scratch, out=out[0])
    stencil_product(op, out[0], out=k_phi)
    stencil_product(op, k_phi, out=kk_phi)
    np.multiply(kk_phi, half, out=scratch)
    out[1] -= scratch


class Leapfrog:
    """step_leapfrog's map for a fixed operator and step size, dt checked once.

    Negative dt is allowed (the scheme is time-reversible); |dt| must stay
    under the oscillator stability bound or StabilityError is raised. Holds
    no state between calls: `steps` forms its opening kick's K^2 phi from
    the K phi it is given.
    """

    def __init__(self, op, dt):
        self.op, self.dt = op, float(dt)
        bound = leapfrog_stability_bound(op)
        if self.dt == 0.0 or abs(self.dt) >= bound:
            raise StabilityError(self.dt, bound, "leapfrog")

    def steps(self, ys, ky):
        """The one leapfrog loop: step ys[0] = (phi, p), with ky[0] = K phi, on into ys[1:].

        Returns K phi of ys[1:], shape (len(ys) - 1, 1, n); ys[0] and ky are only read.
        """
        kk_phi = stencil_product(self.op, ky[0])
        k_phis = np.empty((len(ys) - 1, 1, self.op.n))
        scratch = np.empty(self.op.n)
        for j in range(1, len(ys)):
            _leapfrog(self.op, ys[j - 1], kk_phi, self.dt, ys[j], k_phis[j - 1, 0], scratch)
        return k_phis

    def step(self, s):
        kk_phi = apply(self.op, apply(self.op, s.phi))
        y, rows = np.empty((2, self.op.n)), np.empty((2, self.op.n))
        _leapfrog(self.op, (s.phi, s.p), kk_phi, self.dt, y, *rows)
        return FieldState(phi=y[0], p=y[1], time=s.time + self.dt)


def leapfrog_trajectory(op, s0, dt, nsteps):
    """Trajectory of nsteps `Leapfrog` steps from s0; each step takes two stencil products."""
    y = np.empty((int(nsteps) + 1, 2, op.n))
    y[0] = s0.phi, s0.p
    Leapfrog(op, dt).steps(y, stencil_product(op, y[0, :1]))
    times = s0.time + dt * np.arange(y.shape[0])
    return Trajectory(times, phi=y[:, 0], p=y[:, 1])


def propagate_spectral_field(spec, s0, t):
    """Exact field evolution by time t in the eigenbasis."""
    phi, p = _flow(spec, s0.phi, s0.p)(t)
    return FieldState(phi=phi, p=p, time=s0.time + t)


def _flow(spec, phi, p):
    """Exact flow of (phi, p), coefficients taken once: t -> (phi, p) at t, shape (2, n).

    Each mode is an oscillator of frequency |kappa| / hbar; in a zero mode phi
    drifts with slope p / hbar. A 1-D array of T times gives (T, 2, n).
    """
    a, b = spec.coefficients(phi), spec.coefficients(p)
    hbar = spec.hbar
    omega = np.abs(spec.eigenvalues) / hbar
    zero = np.zeros(omega.shape, dtype=bool)
    zero[list(spec.zero_modes)] = True
    omega_safe = np.where(zero, 1.0, omega)
    # the sine coefficients of phi(t) and p(t)
    phi_sin = b / (hbar * omega_safe)
    p_sin = -(hbar * omega_safe) * a

    def at(t):
        offsets = np.reshape(t, -1)
        theta = np.outer(offsets, omega_safe)
        c, sn = np.cos(theta), np.sin(theta)
        a_t = a * c + phi_sin * sn
        b_t = p_sin * sn + b * c
        if zero.any():
            a_t[:, zero] = a[zero] + np.outer(offsets, b[zero]) / hbar
            b_t[:, zero] = b[zero]
        return _synthesize(spec, (a_t, b_t), t)

    return at


def spectral_field_trajectory(spec, s0, dt, nsteps):
    """Exact field trajectory sampled at uniform dt, the flow evaluated at all times at once."""
    offsets = dt * np.arange(int(nsteps) + 1)
    y = _flow(spec, s0.phi, s0.p)(offsets)
    return Trajectory(s0.time + offsets, phi=y[:, 0], p=y[:, 1])


def energy_densities(op, s):
    """Pointwise kinetic, potential, and total energy densities (T, U, E)."""
    return _energy_densities(op.hbar, apply(op, s.phi), s.p)


def _energy_densities(hbar, kphi, p):
    """energy_densities of a state with momentum p, given kphi = K phi."""
    t = 0.5 * p * p / hbar
    u = 0.5 * kphi * kphi / hbar
    return t, u, t + u


def field_hamiltonian(op, s):
    """Total field energy (⟨p, p⟩ + ⟨K phi, K phi⟩) / 2 hbar."""
    return float(_energy(op, s.p, apply(op, s.phi)))


def _energy(op, p, k_phi):
    """field_hamiltonian of a state with momentum p, given k_phi = K phi; per row of a block."""
    dx = op.grid.dx
    return 0.5 * (dx * np.vecdot(p, p) + dx * np.vecdot(k_phi, k_phi)) / op.hbar


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

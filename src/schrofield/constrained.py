"""Four-field constrained dynamics unifying the wave and field systems.

Phase space carries (phi, p, varphi, pi) with two second-class constraints:

    c1 = varphi + K phi = 0,        c2 = pi = 0.

Consistency of the constraints fixes the multiplier v = -K p / hbar, which is
always substituted analytically, so the evolution is an honest linear ODE
system: d(phi)/dt = p/hbar, d(p)/dt = K varphi / hbar, d(varphi)/dt = v, and
d(pi)/dt = 0 identically once v is in place (the off-shell rate
(varphi + K phi)/hbar is exposed separately as a diagnostic). Both constraints
are exact invariants of the substituted flow, which makes constraint drift a
sharp integrator diagnostic.

Parameterizing the constraint surface by (varphi, p) reproduces the
Schrodinger system; parameterizing by (phi, p) reproduces the field system.
The reductions refuse off-shell input.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import OffShellError, StabilityError
from .field import FieldState
from .lattice import apply, spectral_radius, stencil_product
from .quadrature import Trajectory
from .schrodinger import WaveFunction, _field_array

RK4_STABILITY = 2.8  # |kappa| dt / hbar must stay below this
ONSHELL_RTOL = 1e-6


@dataclass(frozen=True)
class ConstrainedState:
    """Fields (phi, varphi) and momenta (p, pi) at one instant."""

    phi: np.ndarray
    p: np.ndarray
    varphi: np.ndarray
    pi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        arrays = {}
        shape = None
        for name in ("phi", "p", "varphi", "pi"):
            a = _field_array(getattr(self, name), name)
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
            arrays[name] = a
        for name, a in arrays.items():
            object.__setattr__(self, name, a)
        object.__setattr__(self, "time", float(self.time))


def multiplier_v(op, s):
    """Lagrange multiplier fixed by constraint preservation: v = -K p / hbar."""
    return -apply(op, s.p) / op.hbar


def constrained_rhs(op, s):
    """Time derivatives of (phi, p, varphi, pi) with the multiplier substituted."""
    dphi = s.p / op.hbar
    dp = apply(op, s.varphi) / op.hbar
    dvarphi = multiplier_v(op, s)
    dpi = np.zeros_like(s.pi)
    return dphi, dp, dvarphi, dpi


def offshell_pi_rate(op, s):
    """Diagnostic rate of pi before substitution: (varphi + K phi) / hbar.

    Vanishes weakly; it is the c1 constraint over hbar, i.e. minus the
    functional derivative of the Hamiltonian with respect to varphi.
    """
    return (s.varphi + apply(op, s.phi)) / op.hbar


def constrained_hamiltonian(op, s):
    """Canonical Hamiltonian including the multiplier term.

    (⟨p,p⟩ - ⟨varphi,varphi⟩) / 2 hbar - ⟨varphi, K phi⟩ / hbar + ⟨v, pi⟩.
    On shell it collapses to the field energy and to the norm functional of
    the reduced wave state.
    """
    return _hamiltonian(op, (s.phi, s.p, s.varphi), apply(op, (s.phi, s.p)), s.pi)


def _hamiltonian(op, y, ky, pi):
    """constrained_hamiltonian of y = (phi, p, varphi) and pi, given ky[:2] = K (phi, p)."""
    dx = op.grid.dx
    _, p, varphi = y
    v = -ky[1] / op.hbar
    return (
        0.5 * (dx * float(np.dot(p, p)) - dx * float(np.dot(varphi, varphi))) / op.hbar
        - dx * float(np.dot(varphi, ky[0])) / op.hbar
        + dx * float(np.dot(v, pi))
    )


def constraint_residuals(op, s):
    """(c1, c2) = (varphi + K phi, pi); both vanish on the constraint surface."""
    return s.varphi + apply(op, s.phi), np.array(s.pi)


def make_onshell(op, phi, p, time=0.0):
    """Constrained state on the constraint surface: varphi = -K phi, pi = 0."""
    phi = np.asarray(phi, dtype=float)
    return ConstrainedState(
        phi=phi,
        p=p,
        varphi=-apply(op, phi),
        pi=np.zeros_like(phi),
        time=time,
    )


def rk4_stability_bound(op):
    """Largest dt the RK4 step accepts: 2.8 hbar / max|kappa|."""
    return RK4_STABILITY * op.hbar / spectral_radius(op)


def step_rk4(op, s, dt):
    """Classical fourth-order Runge-Kutta step of the substituted system."""
    y = np.stack([s.phi, s.p, s.varphi])
    phi, p, varphi = _rk4(op, y, apply(op, y[:0:-1]), dt)
    return ConstrainedState(phi=phi, p=p, varphi=varphi, pi=s.pi, time=s.time + float(dt))


def _rk4(op, y, k_varphi_p, dt):
    """step_rk4 on y = (phi, p, varphi), given k_varphi_p = K (varphi, p).

    Each of the later three stages takes one stencil product of its stacked
    (varphi, p). Returns the stacked (phi, p, varphi) one step on.
    """
    dt = float(dt)
    bound = rk4_stability_bound(op)
    if not 0.0 < dt < bound:
        raise StabilityError(dt, bound, "rk4")
    # Rates (p, K varphi, -K p) / hbar: x / -hbar is -(x / hbar) exactly.
    over = np.array([[op.hbar], [op.hbar], [-op.hbar]])

    def rate(z, kz):
        return np.concatenate((z[1:2], kz)) / over

    k1 = rate(y, k_varphi_p)
    z = y + 0.5 * dt * k1
    k2 = rate(z, stencil_product(op, z[:0:-1]))
    z = y + 0.5 * dt * k2
    k3 = rate(z, stencil_product(op, z[:0:-1]))
    z = y + dt * k3
    k4 = rate(z, stencil_product(op, z[:0:-1]))
    return y + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def rk4_trajectory(op, s0, dt, nsteps):
    """Trajectory of nsteps RK4 steps from s0; pi keeps its initial value."""
    y = np.empty((int(nsteps) + 1, 3, op.n))
    y[0] = s0.phi, s0.p, s0.varphi
    for k in range(int(nsteps)):
        y[k + 1] = _rk4(op, y[k], stencil_product(op, y[k, :0:-1]), dt)
    pi = np.broadcast_to(s0.pi, (y.shape[0], op.n))
    times = s0.time + dt * np.arange(y.shape[0])
    return Trajectory(times, phi=y[:, 0], p=y[:, 1], varphi=y[:, 2], pi=pi)


def _require_onshell(op, s):
    c1, c2 = constraint_residuals(op, s)
    scale = max(
        float(np.max(np.abs(s.varphi), initial=0.0)),
        float(np.max(np.abs(apply(op, s.phi)), initial=0.0)),
        float(np.max(np.abs(s.p), initial=0.0)),
        float(np.max(np.abs(s.pi), initial=0.0)),
    )
    tol = ONSHELL_RTOL * scale
    worst = max(float(np.max(np.abs(c1), initial=0.0)), float(np.max(np.abs(c2), initial=0.0)))
    if worst > tol:
        raise OffShellError(
            f"constraint residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )


def reduce_to_wave(op, s):
    """Wave-picture parameterization (re, im) = (varphi, p); on-shell only."""
    _require_onshell(op, s)
    return WaveFunction(re=s.varphi, im=s.p, time=s.time)


def reduce_to_field(op, s):
    """Field-picture parameterization (phi, p); on-shell only."""
    _require_onshell(op, s)
    return FieldState(phi=s.phi, p=s.p, time=s.time)


def lagrangian_residuals(op, traj):
    """Residuals of the two Euler-Lagrange equations along a trajectory.

    r1 = hbar^2 phi_ddot - K varphi on interior time samples (central second
    differences), r2 = varphi + K phi on all samples.
    """
    dt = quadrature.uniform_dt(traj.times)
    phi, varphi = traj.phi, traj.varphi
    r1 = op.hbar * op.hbar * quadrature.d2dt2_interior(phi, dt) - apply(op, varphi[1:-1])
    r2 = varphi + apply(op, phi)
    return r1, r2


def singular_action(op, traj):
    """Action of the two-field theory along a sampled trajectory.

    Integrand: (hbar/2) phi_dot^2 + varphi^2 / 2 hbar + varphi (K phi) / hbar.
    Shifting varphi by -K phi splits it into the field action plus the square
    of the shifted field, which is the decoupling checked in the tests.
    """
    dt = quadrature.uniform_dt(traj.times)
    phi, varphi = traj.phi, traj.varphi
    phi_dot = quadrature.ddt(phi, dt)
    kphi = apply(op, phi)
    density = (
        0.5 * op.hbar * phi_dot * phi_dot
        + 0.5 * varphi * varphi / op.hbar
        + varphi * kphi / op.hbar
    )
    integrand = op.grid.dx * density.sum(axis=1)
    return quadrature.trapezoid(integrand, dt)

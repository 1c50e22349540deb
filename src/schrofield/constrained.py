"""Four-field constrained dynamics unifying the wave and field systems.

Phase space carries (phi, p, varphi, pi) with two second-class constraints:

    c1 = varphi + K phi = 0,        c2 = pi = 0.

Consistency of the constraints fixes the multiplier v = -K p / hbar, which is
always substituted analytically, so the evolution is an honest linear ODE
system: d(phi)/dt = p/hbar, d(p)/dt = K varphi / hbar, d(varphi)/dt = v, and
d(pi)/dt = 0 identically once v is in place (the off-shell rate
(varphi + K phi)/hbar is exposed separately as a diagnostic). Both constraints
are exact invariants of the substituted flow, which makes constraint drift a
sharp integrator diagnostic. The pair (p, varphi) evolves on its own, as the
wave function (varphi, p) does, and phi integrates p; the RK4 kernel `_rk4`
uses this to evaluate the step as a Taylor polynomial by Horner's rule.

Parameterizing the constraint surface by (varphi, p) reproduces the
Schrodinger system; parameterizing by (phi, p) reproduces the field system.
The reductions refuse off-shell input. `_onshell_varphi` alone forms the
surface; `make_onshell` and every c1 (`_c1`), the run loop's too, read it.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import OffShellError, StabilityError
from .field import FieldState
from .lattice import apply, spectral_radius, stencil_product
from .quadrature import Trajectory
from .schrodinger import WaveFunction, _State

RK4_STABILITY = 2.8  # |kappa| dt / hbar must stay below this
ONSHELL_RTOL = 1e-6


@dataclass(frozen=True)
class ConstrainedState(_State):
    """Fields (phi, varphi) and momenta (p, pi) at one instant."""

    phi: np.ndarray
    p: np.ndarray
    varphi: np.ndarray
    pi: np.ndarray
    time: float = 0.0


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
    return _c1(s.varphi, apply(op, s.phi)) / op.hbar


def constrained_hamiltonian(op, s):
    """Canonical Hamiltonian including the multiplier term.

    (⟨p,p⟩ - ⟨varphi,varphi⟩) / 2 hbar - ⟨varphi, K phi⟩ / hbar + ⟨v, pi⟩.
    On shell it collapses to the field energy and to the norm functional of
    the reduced wave state.
    """
    return float(_hamiltonian(op, (s.phi, s.p, s.varphi), apply(op, (s.phi, s.p)), s.pi))


def _hamiltonian(op, y, ky, pi):
    """constrained_hamiltonian of y = (phi, p, varphi) and pi, given ky[:2] = K (phi, p).

    Reduces over the grid axis, the last, so each field may be a block of
    states, one per row.
    """
    dx = op.grid.dx
    _, p, varphi = y
    v = -ky[1] / op.hbar
    return (
        0.5 * (dx * np.vecdot(p, p) - dx * np.vecdot(varphi, varphi)) / op.hbar
        - dx * np.vecdot(varphi, ky[0]) / op.hbar
        + dx * np.vecdot(v, pi)
    )


def _onshell_varphi(kphi):
    """varphi on the constraint surface c1 = varphi + K phi = 0, given K phi."""
    return -kphi


def _c1(varphi, kphi):
    """c1 = varphi + K phi, given K phi: varphi's distance from its on-shell value."""
    return varphi - _onshell_varphi(kphi)


def constraint_residuals(op, s):
    """(c1, c2) = (varphi + K phi, pi); both vanish on the constraint surface."""
    return _c1(s.varphi, apply(op, s.phi)), np.array(s.pi)


def make_onshell(op, phi, p, time=0.0):
    """Constrained state on the constraint surface: varphi = -K phi, pi = 0."""
    phi = np.asarray(phi, dtype=float)
    return ConstrainedState(
        phi=phi,
        p=p,
        varphi=_onshell_varphi(apply(op, phi)),
        pi=np.zeros_like(phi),
        time=time,
    )


def rk4_stability_bound(op):
    """Largest dt the RK4 step accepts: 2.8 hbar / max|kappa|."""
    return RK4_STABILITY * op.hbar / spectral_radius(op)


def step_rk4(op, s, dt):
    """Classical fourth-order Runge-Kutta step of the substituted system."""
    y = np.stack([s.phi, s.p, s.varphi])
    phi, p, varphi = _rk4(op, y, dt, np.empty_like(y))
    return ConstrainedState(phi=phi, p=p, varphi=varphi, pi=s.pi, time=s.time + float(dt))


# Horner factors 1/4, 1/3, 1/2, 1 of the degree-4 Taylor polynomial, one (2, 1)
# column per stage, signed per row: tau times a column, applied to
# (K varphi, K p), gives the stage's factor times tau J K w.
_HORNER = np.outer([1.0 / 4.0, 1.0 / 3.0, 1.0 / 2.0, 1.0], [1.0, -1.0])[:, :, None]


def _rk4(op, y, dt, out):
    """step_rk4 on y = (phi, p, varphi), written into `out` (not y's memory).

    On a linear autonomous system classical RK4 is the degree-4 Taylor map of
    dt times the generator (Hairer, Norsett and Wanner, Solving ODEs I,
    section II.1), evaluated here by Horner's rule on the closed pair
    u = (p, varphi). With tau = dt / hbar and J K u = (K varphi, -K p):

        w = u + (tau/4) J K u,  w = u + (tau/3) J K w,  w = u + (tau/2) J K w,
        phi' = phi + tau w[0],  u' = u + tau J K w.

    That is four stencil products of a stacked pair per step.
    """
    dt = float(dt)
    bound = rk4_stability_bound(op)
    if not 0.0 < dt < bound:
        raise StabilityError(dt, bound, "rk4")
    tau = dt / op.hbar
    *stages, last = tau * _HORNER
    u = y[1:]
    w = u
    for scale in stages:
        w = stencil_product(op, w[::-1])
        w *= scale
        w += u
    np.multiply(w[0], tau, out=out[0])
    out[0] += y[0]
    w = stencil_product(op, w[::-1])
    w *= last
    np.add(u, w, out=out[1:])
    return out


def _rk4_steps(op, ys, dt):
    """The one RK4 loop: step ys[0] = (phi, p, varphi) on into ys[1:]."""
    for j in range(1, len(ys)):
        _rk4(op, ys[j - 1], dt, ys[j])


def rk4_trajectory(op, s0, dt, nsteps):
    """Trajectory of nsteps RK4 steps from s0; pi keeps its initial value."""
    y = np.empty((int(nsteps) + 1, 3, op.n))
    y[0] = s0.phi, s0.p, s0.varphi
    _rk4_steps(op, y, dt)
    pi = np.broadcast_to(s0.pi, (y.shape[0], op.n))
    times = s0.time + dt * np.arange(y.shape[0])
    return Trajectory(times, phi=y[:, 0], p=y[:, 1], varphi=y[:, 2], pi=pi)


def _require_onshell(op, s):
    def largest(*fields):
        return max(float(np.max(np.abs(f), initial=0.0)) for f in fields)

    kphi = apply(op, s.phi)
    tol = ONSHELL_RTOL * largest(s.varphi, kphi, s.p, s.pi)
    worst = largest(_c1(s.varphi, kphi), s.pi)
    if worst > tol:
        raise OffShellError(f"constraint residual {worst:.3e} exceeds tolerance {tol:.3e}")


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
    r2 = _c1(varphi, apply(op, phi))
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

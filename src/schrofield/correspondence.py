"""Maps between wave functions and the real potential field.

The central identity: Psi = -K phi + i p solves the Schrodinger system
whenever (phi, p) solves the field system, exactly at the discrete level.
`_wave` alone forms that map, and `_density_and_phase` alone reads P and S
off Psi; every consumer, the run loop included, calls them. `quantize`
applies the map; `dequantize` inverts it at t = 0 by solving the elliptic
equation K C = -re(Psi(0)) for the integration constant, so the field state
(C, im(Psi(0))) maps to Psi(0), and evolves that state by the exact field
flow (`dequantize_quadrature` instead integrates the imaginary part by the
trapezoid rule, which works on raw integrator output).

The inversion is unique only up to zero modes of K: the pure imaginary,
time-independent wave functions i Pi with K Pi = 0 map to nothing. That
kernel is surfaced explicitly through `kernel_basis` and through the
obstruction error of the elliptic solve, never hidden.

`wave_to_field` and `field_to_wave` are the two solution-transport maps
between the systems; their composition is -K applied componentwise.
"""

from dataclasses import dataclass

import numpy as np

from . import field as fd
from . import quadrature
from .field import FieldState, energy_densities
from .lattice import apply, solve_elliptic
from .quadrature import Trajectory
from .schrodinger import WaveFunction


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Orthonormal basis of the kernel of K (may be empty)."""

    modes: np.ndarray  # shape (n, n_kernel), dx-orthonormal columns
    tolerance: float

    def __post_init__(self):
        m = np.array(self.modes, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "modes", m)

    @property
    def count(self):
        return self.modes.shape[1]


def _wave(kphi, p):
    """(re, im) of the wave function Psi = -K phi + i p, given K phi and p."""
    return -kphi, p


def _density_and_phase(hbar, re, im):
    """P = |Psi|^2 and S = hbar arg(Psi) of Psi = re + i im."""
    return re * re + im * im, hbar * np.arctan2(im, re)


def quantize(op, s):
    """Wave function generated by a field state: re = -K phi, im = p."""
    return WaveFunction(*_wave(apply(op, s.phi), s.p), time=s.time)


def field_to_wave(op, s):
    """Transport a field-system solution to a wave-system solution (= quantize)."""
    return quantize(op, s)


def wave_to_field(op, psi):
    """Transport a wave-system solution to a field-system solution.

    phi = re(Psi), p = -K im(Psi). Annihilates exactly the kernel states
    i Pi, which is the non-invertible direction of the correspondence.
    """
    return FieldState(phi=psi.re, p=-apply(op, psi.im), time=psi.time)


def quantize_trajectory(op, traj):
    """Pointwise quantize; Schrodinger residual decays at second order in dt."""
    re, im = _wave(apply(op, traj.phi), traj.p)
    return Trajectory(traj.times, re=re, im=im)


def kernel_basis(spec):
    """Eigenvectors of K with |kappa| below the zero-mode tolerance."""
    idx = list(spec.zero_modes)
    modes = spec.vectors[:, idx] if idx else np.zeros((spec.operator.n, 0))
    return KernelBasis(modes=np.array(modes), tolerance=spec.zero_mode_tolerance)


def dequantize(spec, psi0, t, tol=1e-10):
    """Reconstruct the field state at time t from the t=0 wave function.

    At t = 0 the map Psi = -K phi + i p inverts to phi = C, the solution of
    K C = -re(psi0) (zero-mode-free convention; obstruction raised if re(psi0)
    has kernel content above tol), and p = im(psi0). The state at t is the
    exact field flow from there, so no quadrature error enters.
    """
    phi, p = fd._flow(spec, solve_elliptic(spec, -psi0.re, tol), psi0.im)(t)
    return FieldState(phi=phi, p=p, time=psi0.time + float(t))


def dequantize_quadrature(spec, traj, tol=1e-10):
    """Reconstruct a field trajectory from wave samples by trapezoid integration.

    Works on output of any integrator: p is copied from the stored imaginary
    parts and phi accumulates their running trapezoid integral on top of the
    elliptic constant. Requires a uniform time grid starting at t = 0.
    """
    dt = quadrature.uniform_dt(traj.times)
    if abs(float(traj.times[0])) > 1e-12 * max(dt, 1.0):
        raise ValueError("trajectory must start at t = 0")
    c_const = solve_elliptic(spec, -traj.re[0], tol)
    phi = c_const + quadrature.cumulative_trapezoid(traj.im, dt) / spec.hbar
    return Trajectory(traj.times, phi=phi, p=traj.im)


def probability_and_phase(op, s):
    """Probability density and phase of the generated wave function.

    P = p^2 + (K phi)^2 pointwise, which equals |quantize(s)|^2 exactly and
    2 hbar E with E the field energy density. The phase uses the
    quadrant-correct two-argument arctangent of (p, -K phi); only its
    squared-tangent relation tan^2(S/hbar) = T/U is branch-independent.
    """
    return _density_and_phase(op.hbar, *_wave(apply(op, s.phi), s.p))


def current_residual(op, traj, p_floor_rel=1e-8):
    """Residual of the energy-transport equation along a field trajectory.

    r = dE/dt + div(2 hbar^{-2} E grad S) with the gradient carrying the
    quantum scale hbar / sqrt(2m), time derivatives central on interior
    samples, and S unwrapped along x (period 2 pi hbar) before
    differentiating. Entries are NaN where the density falls below
    p_floor_rel times its trajectory maximum (the phase is undefined at
    nodes) and at the two points nearest each edge, where the spatial
    stencils do not fit. Returns an array of shape (len(times) - 2, n)
    aligned with traj.times[1:-1].
    """
    dt = quadrature.uniform_dt(traj.times)
    hbar = op.hbar
    scale = hbar / np.sqrt(2.0 * op.mass)
    dx = op.grid.dx

    e_all = energy_densities(op, traj)[2]
    p_all, phase = probability_and_phase(op, traj)
    s_all = np.unwrap(phase, period=2.0 * np.pi * hbar)

    def grad_x(f):
        out = np.full_like(f, np.nan)
        out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2.0 * dx)
        return out

    de_dt = quadrature.ddt_interior(e_all, dt)
    flux = 2.0 * e_all[1:-1] * (scale * grad_x(s_all[1:-1])) / (hbar * hbar)
    residual = de_dt + scale * grad_x(flux)

    floor = p_floor_rel * float(np.max(p_all))
    residual[p_all[1:-1] < floor] = np.nan
    return residual

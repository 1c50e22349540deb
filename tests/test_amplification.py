"""Each stepper against its exact discrete amplification, mode by mode.

The schemes are linear and time-invariant, so in the eigenbasis of K each
acts on every mode as a fixed small matrix that depends only on kappa dt /
hbar: a rotation by 2 atan(kappa dt / 2 hbar) for Crank-Nicolson, the
kick-drift-kick 2x2 map for leapfrog, and the degree-4 Taylor polynomial of
the mode generator for RK4. Stepping on the grid and applying the mode map
to the eigencoefficients must then agree to roundoff, far more sharply than
an order fit can tell. The periodic grid carries a zero mode.
"""

import numpy as np
import pytest

from schrofield import (
    ConstrainedState,
    CrankNicolson,
    FieldState,
    Leapfrog,
    Rk4,
    WaveFunction,
)
from schrofield.constrained import rk4_stability_bound
from schrofield.field import leapfrog_stability_bound

NSTEPS = 50
RTOL = 1e-12


@pytest.fixture(params=["small_harmonic", "periodic_free64"])
def scenario(request):
    return request.getfixturevalue(request.param)


def _relative_error(got, want):
    got, want = np.concatenate(got), np.concatenate(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _evolve_modes(spec, step_map, fields):
    """Apply step_map (shape (modes, d, d)) NSTEPS times to d grid fields."""
    coeffs = np.stack([spec.coefficients(f) for f in fields], axis=-1)
    amp = np.linalg.matrix_power(step_map, NSTEPS)
    out = np.einsum("mij,mj->mi", amp, coeffs)
    return tuple(spec.synthesize(out[:, i]) for i in range(len(fields)))


def test_periodic_scenario_has_zero_mode(periodic_free64):
    _, spec = periodic_free64
    assert len(spec.zero_modes) == 1


def test_crank_nicolson_is_cayley_rotation(scenario, rng):
    op, spec = scenario
    # max |kappa| dt / hbar = 3, far from the small-step regime.
    dt = 3.0 * op.hbar / np.max(np.abs(spec.eigenvalues))
    psi = WaveFunction(re=rng.standard_normal(op.n), im=rng.standard_normal(op.n))
    theta = 2.0 * np.arctan(spec.eigenvalues * dt / (2.0 * op.hbar))
    rotation = np.zeros((op.n, 2, 2))
    rotation[:, 0, 0] = rotation[:, 1, 1] = np.cos(theta)
    rotation[:, 0, 1] = -np.sin(theta)
    rotation[:, 1, 0] = np.sin(theta)
    want = _evolve_modes(spec, rotation, (psi.re, psi.im))
    stepper = CrankNicolson(op, dt)
    for _ in range(NSTEPS):
        psi = stepper.step(psi)
    assert _relative_error((psi.re, psi.im), want) < RTOL


def test_leapfrog_is_velocity_verlet_map(scenario, rng):
    op, spec = scenario
    dt = 0.8 * leapfrog_stability_bound(op)
    s = FieldState(phi=rng.standard_normal(op.n), p=rng.standard_normal(op.n))
    kick = np.zeros((op.n, 2, 2))
    kick[:, 0, 0] = kick[:, 1, 1] = 1.0
    kick[:, 1, 0] = -0.5 * dt * spec.eigenvalues**2 / op.hbar
    drift = np.array([[1.0, dt / op.hbar], [0.0, 1.0]])
    want = _evolve_modes(spec, kick @ drift @ kick, (s.phi, s.p))
    stepper = Leapfrog(op, dt)
    for _ in range(NSTEPS):
        s = stepper.step(s)
    assert _relative_error((s.phi, s.p), want) < RTOL


def test_rk4_is_degree_four_taylor_map(scenario, rng):
    op, spec = scenario
    dt = 0.8 * rk4_stability_bound(op)
    n = op.n
    s = ConstrainedState(
        phi=rng.standard_normal(n),
        p=rng.standard_normal(n),
        varphi=rng.standard_normal(n),
        pi=rng.standard_normal(n),
    )
    # Generator of (phi, p, varphi) on one mode, times dt.
    a = np.zeros((n, 3, 3))
    a[:, 0, 1] = dt / op.hbar
    a[:, 1, 2] = dt * spec.eigenvalues / op.hbar
    a[:, 2, 1] = -dt * spec.eigenvalues / op.hbar
    taylor = np.eye(3) + a
    term = a
    for k in (2, 3, 4):
        term = term @ a / k
        taylor = taylor + term
    want = _evolve_modes(spec, taylor, (s.phi, s.p, s.varphi))
    pi0 = s.pi
    stepper = Rk4(op, dt)
    for _ in range(NSTEPS):
        s = stepper.step(s)
    assert _relative_error((s.phi, s.p, s.varphi), want) < RTOL
    assert np.array_equal(s.pi, pi0)

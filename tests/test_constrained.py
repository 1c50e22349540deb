import numpy as np
import pytest

from schrofield import (
    ConstrainedState,
    FieldState,
    OffShellError,
    StabilityError,
    Trajectory,
    WaveFunction,
    apply,
    constrained_hamiltonian,
    constrained_rhs,
    constraint_residuals,
    field_action,
    field_hamiltonian,
    lagrangian_residuals,
    make_onshell,
    multiplier_v,
    norm_hamiltonian,
    propagate_spectral,
    propagate_spectral_field,
    reduce_to_field,
    reduce_to_wave,
    singular_action,
    step_rk4,
)
from schrofield.constrained import offshell_pi_rate, rk4_stability_bound, rk4_trajectory
from schrofield.field import spectral_field_trajectory

from conftest import low_mode_coefficients, stencil_error_bound


def _zero_state(n):
    z = np.zeros(n)
    return ConstrainedState(phi=z, p=z, varphi=z, pi=z)


def _row(traj, k):
    return ConstrainedState(phi=traj.phi[k], p=traj.p[k], varphi=traj.varphi[k], pi=traj.pi[k])


def _onshell(op, times, phi, p):
    """make_onshell on every sample: varphi = -K phi, pi = 0."""
    return Trajectory(times, phi=phi, p=p, varphi=-apply(op, phi), pi=np.zeros_like(phi))


def _onshell_trajectory(op, spec, s0, dt, nsteps):
    ftraj = spectral_field_trajectory(spec, s0, dt, nsteps)
    return _onshell(op, ftraj.times, ftraj.phi, ftraj.p)


def _constant(state):
    """Three samples 0.1 apart, each equal to the constrained state."""
    names = ("phi", "p", "varphi", "pi")
    return Trajectory([0.0, 0.1, 0.2], **{name: [getattr(state, name)] * 3 for name in names})


def test_multiplier_examples(small_harmonic, rng):
    op, spec = small_harmonic
    assert not multiplier_v(op, _zero_state(40)).any()
    un = spec.vectors[:, -2]
    kn = spec.eigenvalues[-2]
    s = ConstrainedState(phi=np.zeros(40), p=un, varphi=np.zeros(40), pi=np.zeros(40))
    assert np.max(np.abs(multiplier_v(op, s) + kn * un / op.hbar)) < 1e-10
    p = rng.standard_normal(40)
    s = ConstrainedState(phi=np.zeros(40), p=p, varphi=np.zeros(40), pi=np.zeros(40))
    err = np.abs(multiplier_v(op, s) + (op.matrix @ p) / op.hbar)
    assert np.all(err <= stencil_error_bound(op, p) / op.hbar)


def test_rhs_zero_and_onshell_eigenmode(small_harmonic):
    op, spec = small_harmonic
    for d in constrained_rhs(op, _zero_state(40)):
        assert not d.any()
    un = spec.vectors[:, -1]
    kn = spec.eigenvalues[-1]
    s = make_onshell(op, un / abs(kn), np.zeros(40))
    dphi, dp, dvarphi, dpi = constrained_rhs(op, s)
    assert not dphi.any()
    err = np.abs(dp - (op.matrix @ s.varphi) / op.hbar)
    assert np.all(err <= stencil_error_bound(op, s.varphi) / op.hbar)
    # varphi is proportional to the eigenmode, so dp = kappa_n varphi / hbar
    assert np.max(np.abs(dp - kn * s.varphi / op.hbar)) < 1e-9
    assert not dpi.any()
    # both constraints have identically vanishing time derivative
    c1_dot = dvarphi + apply(op, dphi)
    assert np.max(np.abs(c1_dot)) < 1e-14


def test_offshell_pi_rate_matches_hamiltonian_gradient(small_harmonic, rng):
    op, _ = small_harmonic
    s = ConstrainedState(
        phi=rng.standard_normal(40),
        p=rng.standard_normal(40),
        varphi=rng.standard_normal(40),
        pi=rng.standard_normal(40),
    )
    rate = offshell_pi_rate(op, s)
    eps = 1e-5
    dx = op.grid.dx
    for j in (0, 13, 39):
        bump = np.zeros(40)
        bump[j] = eps
        plus = constrained_hamiltonian(
            op, ConstrainedState(phi=s.phi, p=s.p, varphi=s.varphi + bump, pi=s.pi)
        )
        minus = constrained_hamiltonian(
            op, ConstrainedState(phi=s.phi, p=s.p, varphi=s.varphi - bump, pi=s.pi)
        )
        functional_grad = (plus - minus) / (2.0 * eps * dx)
        assert abs(rate[j] + functional_grad) < 1e-8 * max(1.0, abs(rate[j]))


def test_hamiltonian_values_on_shell(small_harmonic, rng):
    op, _ = small_harmonic
    assert constrained_hamiltonian(op, _zero_state(40)) == 0.0
    phi = rng.standard_normal(40)
    p = rng.standard_normal(40)
    s = make_onshell(op, phi, p)
    h = constrained_hamiltonian(op, s)
    h_field = field_hamiltonian(op, FieldState(phi=phi, p=p))
    h_wave = norm_hamiltonian(op, WaveFunction(re=s.varphi, im=s.p))
    assert abs(h - h_field) < 1e-10 * abs(h_field)
    assert abs(h - h_wave) < 1e-10 * abs(h_wave)


def test_constraint_residuals_linear(small_harmonic, rng):
    op, spec = small_harmonic
    s = make_onshell(op, rng.standard_normal(40), rng.standard_normal(40))
    c1, c2 = constraint_residuals(op, s)
    assert np.max(np.abs(c1)) == 0.0 and np.max(np.abs(c2)) == 0.0
    un = spec.vectors[:, -4]
    eps = 1e-4
    bumped = ConstrainedState(
        phi=s.phi, p=s.p, varphi=s.varphi + eps * un, pi=s.pi
    )
    c1, _ = constraint_residuals(op, bumped)
    # cancellation noise from forming varphi = -K phi + eps u_n caps accuracy
    assert np.max(np.abs(c1 - eps * un)) < 1e-13


def test_rk4_zero_fixed_point_and_pi_exactly_zero(small_harmonic, rng):
    op, _ = small_harmonic
    out = step_rk4(op, _zero_state(40), 1e-3)
    for name in ("phi", "p", "varphi", "pi"):
        assert not getattr(out, name).any()
    s = make_onshell(op, rng.standard_normal(40), rng.standard_normal(40))
    traj = rk4_trajectory(op, s, 1e-2, 200)
    assert not traj.pi.any()


def test_rk4_rejects_unstable_dt(small_harmonic):
    op, _ = small_harmonic
    bound = rk4_stability_bound(op)
    with pytest.raises(StabilityError) as err:
        step_rk4(op, _zero_state(40), bound * 1.05)
    assert err.value.bound == bound


def test_rk4_fourth_order_vs_spectral(small_harmonic, rng):
    op, spec = small_harmonic
    phi0 = spec.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    p0 = spec.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    t_final = 2.0
    errors = []
    for steps in (50, 100, 200):
        dt = t_final / steps
        got = rk4_trajectory(op, make_onshell(op, phi0, p0), dt, steps)
        ref = propagate_spectral_field(spec, FieldState(phi=phi0, p=p0), t_final)
        errors.append(
            max(np.max(np.abs(got.phi[-1] - ref.phi)), np.max(np.abs(got.p[-1] - ref.p)))
        )
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders > 3.6) & (orders < 4.4))


def test_rk4_constraint_drift_small(small_harmonic, rng):
    op, _ = small_harmonic
    s = make_onshell(op, rng.standard_normal(40), rng.standard_normal(40))
    traj = rk4_trajectory(op, s, 1e-2, 500)
    worst = np.max(np.abs(constraint_residuals(op, traj)[0]))
    assert worst < 1e-10


def test_make_onshell_contract(small_harmonic, rng):
    op, _ = small_harmonic
    z = make_onshell(op, np.zeros(40), np.zeros(40))
    for name in ("phi", "p", "varphi", "pi"):
        assert not getattr(z, name).any()
    phi = rng.standard_normal(40)
    p = rng.standard_normal(40)
    s = make_onshell(op, phi, p)
    back = reduce_to_field(op, s)
    assert np.array_equal(back.phi, phi) and np.array_equal(back.p, p)


def test_reductions_reject_offshell(small_harmonic, rng):
    op, _ = small_harmonic
    s = make_onshell(op, rng.standard_normal(40), rng.standard_normal(40))
    bad = ConstrainedState(
        phi=s.phi, p=s.p, varphi=s.varphi + 1e-3, pi=s.pi
    )
    with pytest.raises(OffShellError):
        reduce_to_wave(op, bad)
    with pytest.raises(OffShellError):
        reduce_to_field(op, bad)


def test_reduced_eigenmode_matches_wave_evolution(small_harmonic):
    # on-shell eigenmode data reduces to the eigenstate phase trajectory
    op, spec = small_harmonic
    u0 = spec.vectors[:, -1]
    e0 = -spec.eigenvalues[-1]
    s0 = make_onshell(op, u0 / e0, np.zeros(40))
    dt, steps = 5e-4, 400
    traj = rk4_trajectory(op, s0, dt, steps)
    for k in (100, 250, 400):
        t = k * dt
        psi = reduce_to_wave(op, _row(traj, k))
        assert np.max(np.abs(psi.re - u0 * np.cos(e0 * t))) < 1e-9
        assert np.max(np.abs(psi.im + u0 * np.sin(e0 * t))) < 1e-9


def test_commuting_diagram_wave_side(small_harmonic, rng):
    op, spec = small_harmonic
    phi0 = spec.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    p0 = spec.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    s0 = make_onshell(op, phi0, p0)
    errors = []
    t_final = 1.0
    for steps in (50, 100, 200):
        dt = t_final / steps
        evolved = _row(rk4_trajectory(op, s0, dt, steps), -1)
        red_then_ev = propagate_spectral(spec, reduce_to_wave(op, s0), t_final)
        ev_then_red = reduce_to_wave(op, evolved)
        errors.append(
            max(
                np.max(np.abs(ev_then_red.re - red_then_ev.re)),
                np.max(np.abs(ev_then_red.im - red_then_ev.im)),
            )
        )
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders > 3.6) & (orders < 4.4))


def test_commuting_diagram_field_side(small_harmonic, rng):
    op, spec = small_harmonic
    phi0 = spec.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    p0 = spec.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    s0 = make_onshell(op, phi0, p0)
    errors = []
    t_final = 1.0
    for steps in (50, 100, 200):
        dt = t_final / steps
        evolved = _row(rk4_trajectory(op, s0, dt, steps), -1)
        red_then_ev = propagate_spectral_field(spec, reduce_to_field(op, s0), t_final)
        ev_then_red = reduce_to_field(op, evolved)
        errors.append(
            max(
                np.max(np.abs(ev_then_red.phi - red_then_ev.phi)),
                np.max(np.abs(ev_then_red.p - red_then_ev.p)),
            )
        )
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders > 3.6) & (orders < 4.4))


def test_lagrangian_residuals_on_exact_data(small_harmonic, rng):
    op, spec = small_harmonic
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = _onshell_trajectory(op, spec, s0, dt, 16)
        r1, r2 = lagrangian_residuals(op, traj)
        assert np.max(np.abs(r2)) < 1e-12
        errs.append(np.max(np.abs(r1)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_lagrangian_residuals_zero_and_injected_violation(small_harmonic, rng):
    op, _ = small_harmonic
    r1, r2 = lagrangian_residuals(op, _constant(_zero_state(40)))
    assert not r1.any() and not r2.any()
    bump = rng.standard_normal(40)
    bad = ConstrainedState(
        phi=np.zeros(40), p=np.zeros(40), varphi=bump, pi=np.zeros(40)
    )
    _, r2 = lagrangian_residuals(op, _constant(bad))
    assert np.array_equal(r2[0], bump)


def test_singular_action_values(small_harmonic, rng):
    op, spec = small_harmonic
    assert singular_action(op, _constant(_zero_state(40))) == 0.0

    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    dt, steps = 5e-3, 200
    traj = _onshell_trajectory(op, spec, s0, dt, steps)
    s_sing = singular_action(op, traj)
    s_field = field_action(op, Trajectory(traj.times, phi=traj.phi, p=traj.p))
    assert abs(s_sing - s_field) < 1e-9 * max(1.0, abs(s_field))


def test_shifted_field_decoupling_offshell(small_harmonic, rng):
    # singular action minus the field action of the phi part equals the
    # square of the shifted field, for arbitrary off-shell trajectories
    op, spec = small_harmonic
    from schrofield import quadrature

    dt, steps = 5e-3, 100
    times = dt * np.arange(steps + 1)
    phi = rng.standard_normal((steps + 1, 40))
    varphi = rng.standard_normal((steps + 1, 40))
    zero = np.zeros_like(phi)
    traj = Trajectory(times, phi=phi, p=zero, varphi=varphi, pi=zero)
    ftraj = Trajectory(times, phi=phi, p=zero)
    shifted = varphi + phi @ op.matrix
    integrand = 0.5 * op.grid.dx * np.sum(shifted * shifted, axis=1) / op.hbar
    extra = quadrature.trapezoid(integrand, dt)
    gap = singular_action(op, traj) - field_action(op, ftraj) - extra
    assert abs(gap) < 1e-9 * max(1.0, abs(extra))


def test_singular_action_stationary(small_harmonic, rng):
    op, spec = small_harmonic
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    dt, steps = 5e-3, 200
    base = _onshell_trajectory(op, spec, s0, dt, steps)
    s_base = singular_action(op, base)
    bump = np.sin(np.pi * np.arange(steps + 1) / steps) ** 2
    dphi = rng.standard_normal((steps + 1, 40)) * bump[:, None]

    def perturbed(eps):
        return singular_action(op, _onshell(op, base.times, base.phi + eps * dphi, base.p))

    deltas = [abs(perturbed(eps) - s_base) for eps in (1e-2, 1e-3)]
    c_fit = deltas[0] / 1e-4
    assert deltas[1] <= 2.0 * c_fit * 1e-6

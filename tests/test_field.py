import numpy as np
import pytest

from schrofield import (
    FieldState,
    StabilityError,
    Trajectory,
    apply,
    build_operator,
    Potential,
    energy_densities,
    field_action,
    field_hamiltonian,
    field_rhs,
    propagate_spectral_field,
    rescale_state,
    step_leapfrog,
)
from schrofield.field import (
    field_equation_residuals,
    leapfrog_stability_bound,
    leapfrog_trajectory,
    second_order_residual,
    spectral_field_trajectory,
)

from conftest import low_mode_coefficients


def test_rhs_zero(free3):
    s = FieldState(phi=np.zeros(3), p=np.zeros(3))
    dphi, dp = field_rhs(free3, s)
    assert not dphi.any() and not dp.any()


def test_rhs_eigenmode(harmonic400):
    op, spec = harmonic400
    un = spec.vectors[:, -3]
    kn = spec.eigenvalues[-3]
    dphi, dp = field_rhs(op, FieldState(phi=un, p=np.zeros(400)))
    assert not dphi.any()
    assert np.max(np.abs(dp + kn * kn * un)) < 1e-9


def test_rhs_induces_second_order_equation(harmonic400, rng):
    op, _ = harmonic400
    s = FieldState(phi=rng.standard_normal(400), p=rng.standard_normal(400))
    _, dp = field_rhs(op, s)
    # hbar^2 phi_ddot = hbar * dp, so hbar dp + K^2 phi must vanish
    residual = op.hbar * dp + apply(op, apply(op, s.phi))
    assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(apply(op, apply(op, s.phi))))


def test_leapfrog_euler_consistency(small_harmonic, rng):
    op, _ = small_harmonic
    s = FieldState(phi=rng.standard_normal(40), p=rng.standard_normal(40))
    dphi, dp = field_rhs(op, s)
    gaps = []
    for dt in (1e-3, 5e-4):
        stepped = step_leapfrog(op, s, dt)
        gaps.append(
            max(
                np.max(np.abs(stepped.phi - (s.phi + dt * dphi))),
                np.max(np.abs(stepped.p - (s.p + dt * dp))),
            )
        )
    assert 3.5 < gaps[0] / gaps[1] < 4.5


def test_leapfrog_single_mode_energy_bounded(small_harmonic):
    op, spec = small_harmonic
    u0 = spec.vectors[:, -1]
    s = FieldState(phi=u0, p=np.zeros(40))
    h0 = field_hamiltonian(op, s)
    dt = 1e-4  # omega*dt = 5e-5: bounded oscillation sits under 1e-10
    worst = 0.0
    for _ in range(10_000):
        s = step_leapfrog(op, s, dt)
        worst = max(worst, abs(field_hamiltonian(op, s) - h0))
    assert worst < 1e-10


def test_leapfrog_reversible(small_harmonic, rng):
    op, _ = small_harmonic
    s = FieldState(phi=rng.standard_normal(40), p=rng.standard_normal(40))
    back = step_leapfrog(op, step_leapfrog(op, s, 1e-2), -1e-2)
    assert np.max(np.abs(back.phi - s.phi)) < 1e-12
    assert np.max(np.abs(back.p - s.p)) < 1e-12


def test_leapfrog_rejects_unstable_dt(small_harmonic):
    op, _ = small_harmonic
    bound = leapfrog_stability_bound(op)
    s = FieldState(phi=np.zeros(40), p=np.zeros(40))
    with pytest.raises(StabilityError) as err:
        step_leapfrog(op, s, bound * 1.01)
    assert err.value.bound == bound
    with pytest.raises(StabilityError):
        step_leapfrog(op, s, 0.0)


def test_leapfrog_second_order(small_harmonic, rng):
    op, spec = small_harmonic
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    t_final = 2.0
    errors = []
    for steps in (100, 200, 400):
        dt = t_final / steps
        got = leapfrog_trajectory(op, s0, dt, steps)
        ref = propagate_spectral_field(spec, s0, t_final)
        errors.append(
            max(np.max(np.abs(got.phi[-1] - ref.phi)), np.max(np.abs(got.p[-1] - ref.p)))
        )
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_leapfrog_drift_over_long_stable_run(small_harmonic):
    op, spec = small_harmonic
    u1 = spec.vectors[:, -2]
    s = FieldState(phi=u1, p=np.zeros(40))
    h0 = field_hamiltonian(op, s)
    dt = 1e-4  # omega*dt = 1.5e-4: energy oscillation ~3e-9 relative, no secular term
    worst = 0.0
    for _ in range(10_000):
        s = step_leapfrog(op, s, dt)
        worst = max(worst, abs(field_hamiltonian(op, s) - h0) / h0)
    assert worst < 1e-8


def test_spectral_field_identity_at_zero(small_harmonic, rng):
    _, spec = small_harmonic
    s = FieldState(phi=rng.standard_normal(40), p=rng.standard_normal(40))
    out = propagate_spectral_field(spec, s, 0.0)
    assert np.max(np.abs(out.phi - s.phi)) < 1e-12
    assert np.max(np.abs(out.p - s.p)) < 1e-12


def test_spectral_field_mode_cosine(small_harmonic):
    op, spec = small_harmonic
    un = spec.vectors[:, -1]
    omega = abs(spec.eigenvalues[-1]) / op.hbar
    t = 0.9
    out = propagate_spectral_field(spec, FieldState(phi=un, p=np.zeros(40)), t)
    assert np.max(np.abs(out.phi - un * np.cos(omega * t))) < 1e-12


def test_spectral_field_mode_periods(small_harmonic):
    op, spec = small_harmonic
    for col in (-1, -2, -5):
        un = spec.vectors[:, col]
        period = 2.0 * np.pi * op.hbar / abs(spec.eigenvalues[col])
        out = propagate_spectral_field(spec, FieldState(phi=un, p=0.3 * un), period)
        assert np.max(np.abs(out.phi - un)) < 1e-10
        assert np.max(np.abs(out.p - 0.3 * un)) < 1e-10


def test_zero_mode_linear_drift(periodic_free64):
    op, spec = periodic_free64
    pi0 = spec.vectors[:, spec.zero_modes[0]]
    s0 = FieldState(phi=np.zeros(64), p=2.0 * pi0)
    t = 3.7
    out = propagate_spectral_field(spec, s0, t)
    assert np.max(np.abs(out.phi - 2.0 * pi0 * t / op.hbar)) < 1e-12
    assert np.max(np.abs(out.p - 2.0 * pi0)) < 1e-12
    # zero-mode energy density is purely kinetic and time independent
    t_dens, u_dens, e_dens = energy_densities(op, out)
    assert np.max(np.abs(u_dens)) < 1e-20
    assert np.max(np.abs(e_dens - t_dens)) == 0.0


def test_energy_densities_values(harmonic400):
    op, spec = harmonic400
    zero = FieldState(phi=np.zeros(400), p=np.zeros(400))
    for d in energy_densities(op, zero):
        assert not d.any()
    u0 = spec.vectors[:, -1]
    e0 = -spec.eigenvalues[-1]
    s = FieldState(phi=u0 / e0, p=np.zeros(400))
    t_dens, u_dens, _ = energy_densities(op, s)
    assert not t_dens.any()
    assert np.max(np.abs(u_dens - 0.5 * u0 * u0 / op.hbar)) < 1e-10


def test_energy_density_sums_to_hamiltonian(harmonic400, rng):
    op, _ = harmonic400
    s = FieldState(phi=rng.standard_normal(400), p=rng.standard_normal(400))
    _, _, e_dens = energy_densities(op, s)
    total = op.grid.dx * np.sum(e_dens)
    h = field_hamiltonian(op, s)
    assert abs(total - h) < 1e-12 * abs(h)


def test_field_hamiltonian_mode_formula(small_harmonic):
    op, spec = small_harmonic
    un = spec.vectors[:, -2]
    kn = spec.eigenvalues[-2]
    a, b = 0.7, -0.4
    h = field_hamiltonian(op, FieldState(phi=a * un, p=b * un))
    assert abs(h - (b * b + kn * kn * a * a) / (2.0 * op.hbar)) < 1e-12


def test_field_hamiltonian_conserved(periodic_free64, rng):
    op, spec = periodic_free64
    s0 = FieldState(phi=rng.standard_normal(64), p=rng.standard_normal(64))
    h0 = field_hamiltonian(op, s0)
    for t in (0.5, 2.0, 8.0):
        st = propagate_spectral_field(spec, s0, t)
        assert abs(field_hamiltonian(op, st) - h0) < 1e-10 * abs(h0)


def test_field_action_zero():
    import schrofield as sf

    op = build_operator(sf.build_grid(5, 0.0, 1.0), Potential(np.zeros(5)))
    traj = Trajectory([0.0, 0.1, 0.2], phi=np.zeros((3, 5)), p=np.zeros((3, 5)))
    assert field_action(op, traj) == 0.0


def test_field_action_single_mode_period(small_harmonic):
    op, spec = small_harmonic
    u0 = spec.vectors[:, -1]
    omega = abs(spec.eigenvalues[-1]) / op.hbar
    period = 2.0 * np.pi / omega
    steps = 2000
    traj = spectral_field_trajectory(
        spec, FieldState(phi=u0, p=np.zeros(40)), period / steps, steps
    )
    assert abs(field_action(op, traj)) < 3e-5


def test_field_action_stationary(small_harmonic, rng):
    op, spec = small_harmonic
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    dt, steps = 5e-3, 200
    traj = spectral_field_trajectory(spec, s0, dt, steps)
    s_base = field_action(op, traj)
    bump = np.sin(np.pi * np.arange(steps + 1) / steps) ** 2
    dphi = rng.standard_normal((steps + 1, 40)) * bump[:, None]

    def perturbed(eps):
        return field_action(op, Trajectory(traj.times, phi=traj.phi + eps * dphi, p=traj.p))

    deltas = [abs(perturbed(eps) - s_base) for eps in (1e-2, 1e-3)]
    c_fit = deltas[0] / 1e-4
    assert deltas[1] <= 2.0 * c_fit * 1e-6


def test_first_and_second_order_residuals_decay(small_harmonic, rng):
    op, spec = small_harmonic
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    errs1, errs2 = [], []
    for dt in (4e-2, 2e-2, 1e-2):
        traj = spectral_field_trajectory(spec, s0, dt, 16)
        r1, r2 = field_equation_residuals(op, traj)
        errs1.append(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
        res_phi = second_order_residual(op, traj.phi, dt)
        res_p = second_order_residual(op, traj.p, dt)
        errs2.append(max(np.max(np.abs(res_phi)), np.max(np.abs(res_p))))
    for errs in (errs1, errs2):
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 1.7) & (orders < 2.3))


def test_rescale_identity(small_harmonic, rng):
    op, _ = small_harmonic
    s = FieldState(phi=rng.standard_normal(40), p=rng.standard_normal(40), time=0.4)
    out, grid = rescale_state(s, op.grid, 1.0)
    assert np.array_equal(out.phi, s.phi) and np.array_equal(out.p, s.p)
    assert grid == op.grid


def test_rescale_free_action_invariant(rng):
    import schrofield as sf

    grid = sf.build_grid(48, -6.0, 6.0, "dirichlet")
    hbar = 0.6
    op = sf.build_operator(grid, Potential(np.zeros(48)), hbar=hbar, mass=1.0)
    spec = sf.eigendecompose(op)
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 48, 5)),
        p=spec.synthesize(low_mode_coefficients(rng, 48, 5)),
    )
    dt, steps = 0.01, 150
    traj = spectral_field_trajectory(spec, s0, dt, steps)
    act = field_action(op, traj)

    rows = [rescale_state(FieldState(phi, p), grid, hbar) for phi, p in zip(traj.phi, traj.p)]
    new_grid = rows[0][1]
    new_traj = Trajectory(
        traj.times / hbar, phi=[ns.phi for ns, _ in rows], p=[ns.p for ns, _ in rows]
    )
    op_unit = sf.build_operator(new_grid, Potential(np.zeros(48)), hbar=1.0, mass=1.0)
    act_unit = field_action(op_unit, new_traj)
    assert abs(act - act_unit) < 1e-10 * max(1.0, abs(act))


def test_rescale_harmonic_trajectory_reproduced(rng):
    import schrofield as sf

    grid = sf.build_grid(40, -8.0, 8.0, "dirichlet")
    x = grid.points()
    pot = Potential(0.5 * x * x)
    hbar = 0.7
    op = sf.build_operator(grid, pot, hbar=hbar, mass=1.0)
    spec = sf.eigendecompose(op)
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    t = 1.3
    final = propagate_spectral_field(spec, s0, t)
    final_mapped, new_grid = rescale_state(final, grid, hbar)

    # evolve the mapped initial state with the unit-hbar operator instead
    s0_mapped, _ = rescale_state(s0, grid, hbar)
    op_unit = sf.build_operator(new_grid, pot, hbar=1.0, mass=1.0)
    spec_unit = sf.eigendecompose(op_unit)
    evolved = propagate_spectral_field(spec_unit, s0_mapped, t / hbar)
    assert np.max(np.abs(evolved.phi - final_mapped.phi)) < 1e-8
    assert np.max(np.abs(evolved.p - final_mapped.p)) < 1e-8

import numpy as np
import pytest

from schrofield import (
    EllipticObstructionError,
    FieldState,
    Potential,
    Trajectory,
    WaveFunction,
    apply,
    build_grid,
    build_operator,
    current_residual,
    dequantize,
    dequantize_quadrature,
    eigendecompose,
    energy_densities,
    field_to_wave,
    kernel_basis,
    probability_and_phase,
    propagate_spectral,
    quantize,
    quantize_trajectory,
    schrodinger_residual,
    solve_elliptic,
    wave_to_field,
)
from schrofield.field import (
    field_equation_residuals,
    leapfrog_trajectory,
    propagate_spectral_field,
    spectral_field_trajectory,
)
from schrofield.schrodinger import crank_nicolson_trajectory, spectral_trajectory

from conftest import dense_k, low_frequency_wave, low_mode_coefficients


def _ground(spec):
    return spec.vectors[:, -1], -spec.eigenvalues[-1]


def test_quantize_zero(free3):
    psi = quantize(free3, FieldState(phi=np.zeros(3), p=np.zeros(3)))
    assert not psi.re.any() and not psi.im.any()


def test_quantize_eigenmode_arithmetic(harmonic400):
    op, spec = harmonic400
    u0, e0 = _ground(spec)
    t = 0.8
    s = FieldState(
        phi=(u0 / e0) * np.cos(e0 * t), p=-u0 * np.sin(e0 * t), time=t
    )
    psi = quantize(op, s)
    assert np.max(np.abs(psi.re - u0 * np.cos(e0 * t))) < 1e-10
    assert np.max(np.abs(psi.im + u0 * np.sin(e0 * t))) < 1e-12
    assert psi.time == t


def test_quantize_kernel_mode_is_stationary_imaginary(periodic_free64):
    op, spec = periodic_free64
    pi0 = spec.vectors[:, spec.zero_modes[0]]
    psi = quantize(op, FieldState(phi=np.zeros(64), p=3.0 * pi0))
    assert np.max(np.abs(psi.re)) < 1e-12
    assert np.max(np.abs(psi.im - 3.0 * pi0)) == 0.0


def test_quantized_spectral_trajectory_residual_and_match(harmonic400, rng):
    op, spec = harmonic400
    dt = 1e-3
    psi0 = low_frequency_wave(spec, rng, dt)
    s0 = dequantize(spec, psi0, 0.0)
    traj = spectral_field_trajectory(spec, s0, dt, 40)
    wtraj = quantize_trajectory(op, traj)
    r1, r2 = schrodinger_residual(op, wtraj)
    assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) <= 1e-8
    # independent oracle: spectral propagation of the quantized initial state
    psi0 = WaveFunction(re=wtraj.re[0], im=wtraj.im[0])
    for k, t in enumerate(wtraj.times):
        ref = propagate_spectral(spec, psi0, float(t))
        assert np.max(np.abs(wtraj.re[k] - ref.re)) < 1e-9
        assert np.max(np.abs(wtraj.im[k] - ref.im)) < 1e-9


def test_quantized_leapfrog_trajectory_residual_decays(small_harmonic, rng):
    op, spec = small_harmonic
    s0 = FieldState(
        phi=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        p=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    errs = []
    for dt in (2e-2, 1e-2, 5e-3):
        traj = leapfrog_trajectory(op, s0, dt, 20)
        r1, r2 = schrodinger_residual(op, quantize_trajectory(op, traj))
        errs.append(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_dequantize_eigenstate_closed_form(harmonic400):
    op, spec = harmonic400
    u0, e0 = _ground(spec)
    psi0 = WaveFunction(re=u0, im=np.zeros(400))
    for t in (0.0, 0.7, 3.1):
        s = dequantize(spec, psi0, t)
        assert np.max(np.abs(s.phi - (u0 / e0) * np.cos(e0 * t))) < 1e-10
        assert np.max(np.abs(s.p + u0 * np.sin(e0 * t))) < 1e-10


def test_dequantize_kernel_state_drifts(periodic_free64):
    op, spec = periodic_free64
    pi0 = spec.vectors[:, spec.zero_modes[0]]
    psi0 = WaveFunction(re=np.zeros(64), im=pi0)
    t = 2.5
    s = dequantize(spec, psi0, t)
    assert np.max(np.abs(s.phi - pi0 * t / op.hbar)) < 1e-12
    assert np.max(np.abs(s.p - pi0)) < 1e-12
    back = quantize(op, s)
    assert np.max(np.abs(back.re)) < 1e-12
    assert np.max(np.abs(back.im - pi0)) < 1e-12


def test_dequantize_round_trip_random(harmonic400, rng):
    op, spec = harmonic400
    for _ in range(5):
        psi0 = WaveFunction(
            re=rng.standard_normal(400), im=rng.standard_normal(400)
        )
        t = float(rng.uniform(0.2, 6.0))
        back = quantize(op, dequantize(spec, psi0, t))
        ref = propagate_spectral(spec, psi0, t)
        assert np.max(np.abs(back.re - ref.re)) < 1e-10
        assert np.max(np.abs(back.im - ref.im)) < 1e-10


def _barrier_ring():
    grid = build_grid(48, -10.0, 10.0, "periodic")
    x = grid.points()
    op = build_operator(grid, Potential(5.0 * np.exp(-0.5 * x * x)), hbar=1.0, mass=1.0)
    return op, eigendecompose(op)


@pytest.fixture(params=["dirichlet_harmonic", "periodic_barrier", "periodic_free"])
def closure(request, small_harmonic, periodic_free64):
    """One grid per closure: Dirichlet, periodic, and periodic with a zero mode."""
    if request.param == "periodic_barrier":
        return _barrier_ring()
    return small_harmonic if request.param == "dirichlet_harmonic" else periodic_free64


def test_dequantize_is_the_field_flow_from_the_integration_constant(closure, rng):
    # Psi = -K phi + i p at t = 0 gives phi = C (K C = -re) and p = im; on the
    # free ring the imaginary part keeps its zero-mode content, which drifts
    op, spec = closure
    kernel = kernel_basis(spec).modes
    re = rng.standard_normal(op.n)
    im = 1.0 + rng.standard_normal(op.n)
    psi0 = WaveFunction(re=re - kernel @ (op.grid.dx * (kernel.T @ re)), im=im)
    if spec.zero_modes:
        assert abs(float(spec.coefficients(psi0.im)[spec.zero_modes[0]])) > 0.1
    s0 = FieldState(phi=solve_elliptic(spec, -psi0.re), p=psi0.im)
    for t in (0.0, 0.3, 2.7):
        got = dequantize(spec, psi0, t)
        want = propagate_spectral_field(spec, s0, t)
        assert np.array_equal(got.phi, want.phi) and np.array_equal(got.p, want.p)
        assert got.time == want.time == t


def test_spectral_trajectories_sample_the_single_time_flows(closure, rng):
    op, spec = closure
    a, b = rng.standard_normal(op.n), rng.standard_normal(op.n)
    dt, steps = 0.05, 20
    wave = spectral_trajectory(spec, WaveFunction(re=a, im=b), dt, steps)
    field = spectral_field_trajectory(spec, FieldState(phi=a, p=b), dt, steps)
    for k, t in enumerate(dt * np.arange(steps + 1)):
        psi = propagate_spectral(spec, WaveFunction(re=a, im=b), t)
        s = propagate_spectral_field(spec, FieldState(phi=a, p=b), t)
        for row, state in ((wave.re[k], psi.re), (wave.im[k], psi.im),
                           (field.phi[k], s.phi), (field.p[k], s.p)):
            assert np.max(np.abs(row - state)) <= 1e-14 * np.max(np.abs(state))


def test_dequantize_obstruction(periodic_free64):
    _, spec = periodic_free64
    psi0 = WaveFunction(re=np.ones(64), im=np.zeros(64))
    with pytest.raises(EllipticObstructionError) as err:
        dequantize(spec, psi0, 1.0)
    assert err.value.magnitude > 0.9


def test_dequantize_quadrature_zero(free3):
    spec = eigendecompose(free3)
    traj = Trajectory([0.0, 0.1, 0.2], re=np.zeros((3, 3)), im=np.zeros((3, 3)))
    out = dequantize_quadrature(spec, traj)
    assert not out.phi.any() and not out.p.any()


def test_dequantize_quadrature_matches_closed_form_second_order(harmonic400):
    op, spec = harmonic400
    u0, _ = _ground(spec)
    psi0 = WaveFunction(re=u0, im=np.zeros(400))
    t_final = 0.64
    errs = []
    for steps in (16, 32, 64):
        dt = t_final / steps
        traj = crank_nicolson_trajectory(op, psi0, dt, steps)
        out = dequantize_quadrature(spec, traj)
        ref = dequantize(spec, psi0, t_final)
        errs.append(np.max(np.abs(out.phi[-1] - ref.phi)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_dequantize_quadrature_round_trip_residual_decays(small_harmonic, rng):
    op, spec = small_harmonic
    psi0 = WaveFunction(
        re=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        im=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    errs = []
    for dt in (2e-2, 1e-2, 5e-3):
        traj = spectral_trajectory(spec, psi0, dt, 20)
        ftraj = dequantize_quadrature(spec, traj)
        r1, r2 = schrodinger_residual(op, quantize_trajectory(op, ftraj))
        errs.append(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.6) & (orders < 2.4))


def test_dequantize_quadrature_rejects_bad_time_grids(free3):
    spec = eigendecompose(free3)
    zero = np.zeros((3, 3))
    with pytest.raises(ValueError):
        dequantize_quadrature(spec, Trajectory([0.0, 0.1, 0.3], re=zero, im=zero))
    with pytest.raises(ValueError):
        dequantize_quadrature(spec, Trajectory([1.0, 1.1, 1.2], re=zero, im=zero))


def test_wave_to_field_zero_and_eigenstate(harmonic400):
    op, spec = harmonic400
    zero = wave_to_field(op, WaveFunction(re=np.zeros(400), im=np.zeros(400)))
    assert not zero.phi.any() and not zero.p.any()
    u0, e0 = _ground(spec)
    t = 1.1
    psi = WaveFunction(re=u0 * np.cos(e0 * t), im=-u0 * np.sin(e0 * t), time=t)
    s = wave_to_field(op, psi)
    assert np.max(np.abs(s.phi - u0 * np.cos(e0 * t))) == 0.0
    assert np.max(np.abs(s.p + e0 * u0 * np.sin(e0 * t))) < 1e-9


def test_wave_to_field_annihilates_kernel(periodic_free64):
    op, spec = periodic_free64
    pi0 = spec.vectors[:, spec.zero_modes[0]]
    s = wave_to_field(op, WaveFunction(re=np.zeros(64), im=pi0))
    assert np.max(np.abs(s.phi)) == 0.0
    assert np.max(np.abs(s.p)) < 1e-10


def test_wave_to_field_transports_solutions(small_harmonic, rng):
    op, spec = small_harmonic
    psi0 = WaveFunction(
        re=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
        im=spec.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = spectral_trajectory(spec, psi0, dt, 16)
        rows = [wave_to_field(op, WaveFunction(re, im)) for re, im in zip(traj.re, traj.im)]
        ftraj = Trajectory(traj.times, phi=[s.phi for s in rows], p=[s.p for s in rows])
        r1, r2 = field_equation_residuals(op, ftraj)
        errs.append(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_composition_is_minus_K_componentwise(harmonic400, rng):
    op, _ = harmonic400
    re = rng.standard_normal(400)
    im = rng.standard_normal(400)
    psi = WaveFunction(re=re, im=im)
    out = field_to_wave(op, wave_to_field(op, psi))
    # dense oracle: block-diagonal -K acting on the stacked components
    block = np.zeros((800, 800))
    block[:400, :400] = block[400:, 400:] = -dense_k(op)
    expected = block @ np.concatenate([re, im])
    got = np.concatenate([out.re, out.im])
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_reverse_round_trip_modulo_kernel(periodic_free64, rng):
    # reconstructing from the quantized state recovers the field trajectory
    # up to zero-mode content in phi (the map's kernel)
    op, spec = periodic_free64
    s0 = FieldState(phi=rng.standard_normal(64), p=rng.standard_normal(64))
    psi0 = quantize(op, s0)
    basis = kernel_basis(spec)
    for t in (0.0, 0.7, 3.4):
        want = propagate_spectral_field(spec, s0, t)
        got = dequantize(spec, psi0, t, tol=1e-6)
        diff = got.phi - want.phi
        diff = diff - basis.modes @ (op.grid.dx * (basis.modes.T @ diff))
        assert np.max(np.abs(diff)) < 1e-9
        assert np.max(np.abs(got.p - want.p)) < 1e-9


def test_kernel_basis_harmonic_empty(harmonic400):
    _, spec = harmonic400
    assert kernel_basis(spec).count == 0


def test_kernel_basis_periodic_constant(periodic_free64):
    op, spec = periodic_free64
    basis = kernel_basis(spec)
    assert basis.count == 1
    const = np.ones(64) / np.sqrt(64 * op.grid.dx)
    overlap = op.grid.dx * float(const @ basis.modes[:, 0])
    assert abs(abs(overlap) - 1.0) < 1e-12
    assert np.max(np.abs(apply(op, basis.modes[:, 0]))) <= basis.tolerance * max(
        1.0, np.max(np.abs(basis.modes[:, 0]))
    )


def test_kernel_basis_constructed_dirichlet_zero_mode():
    # constant potential equal to a Laplacian eigenvalue of K's kinetic part
    n = 31
    grid = build_grid(n, 0.0, 1.0, "dirichlet")
    k_mode = 3
    lam = -(4.0 / grid.dx**2) * np.sin(np.pi * k_mode / (2 * (n + 1))) ** 2
    kinetic_scale = 1.0  # hbar=1, m=1/2 makes the prefactor unity
    op = build_operator(
        grid, Potential(np.full(n, kinetic_scale * lam)), hbar=1.0, mass=0.5
    )
    spec = eigendecompose(op)
    basis = kernel_basis(spec)
    assert basis.count == 1
    j = np.arange(1, n + 1)
    target = np.sin(np.pi * k_mode * j / (n + 1))
    target /= np.sqrt(grid.dx * target @ target)
    overlap = grid.dx * float(target @ basis.modes[:, 0])
    assert abs(abs(overlap) - 1.0) < 1e-8


def test_probability_stationary_for_eigenmode(harmonic400):
    op, spec = harmonic400
    u0, e0 = _ground(spec)
    psi0 = WaveFunction(re=u0, im=np.zeros(400))
    for t in (0.0, 0.9, 4.2):
        s = dequantize(spec, psi0, t)
        p_dens, _ = probability_and_phase(op, s)
        assert np.max(np.abs(p_dens - u0 * u0)) < 1e-9


def test_density_equals_energy_density(harmonic400, rng):
    op, _ = harmonic400
    s = FieldState(phi=rng.standard_normal(400), p=rng.standard_normal(400))
    p_dens, _ = probability_and_phase(op, s)
    _, _, e_dens = energy_densities(op, s)
    assert np.max(np.abs(p_dens - 2.0 * op.hbar * e_dens)) < 1e-13 * np.max(p_dens)
    psi = quantize(op, s)
    assert np.max(np.abs(p_dens - (psi.re**2 + psi.im**2))) == 0.0


def test_phase_squared_tangent_relation(harmonic400, rng):
    op, _ = harmonic400
    s = FieldState(phi=rng.standard_normal(400), p=rng.standard_normal(400))
    t_dens, u_dens, _ = energy_densities(op, s)
    _, phase = probability_and_phase(op, s)
    mask = u_dens > 1e-6 * np.max(u_dens)
    tan2 = np.tan(phase[mask] / op.hbar) ** 2
    ratio = t_dens[mask] / u_dens[mask]
    assert np.max(np.abs(tan2 - ratio) / (1.0 + ratio)) < 1e-10


def test_current_residual_stationary_eigenmode(harmonic400):
    op, spec = harmonic400
    u0, _ = _ground(spec)
    psi0 = WaveFunction(re=u0, im=np.zeros(400))
    s0 = dequantize(spec, psi0, 0.0)
    traj = spectral_field_trajectory(spec, s0, 1e-3, 8)
    res = current_residual(op, traj)
    assert np.nanmax(np.abs(res)) < 1e-9


def _gaussian_packet_scenario(n):
    grid = build_grid(n, -15.0, 15.0, "dirichlet")
    op = build_operator(grid, Potential(np.zeros(n)), hbar=1.0, mass=1.0)
    spec = eigendecompose(op)
    x = grid.points()
    envelope = np.exp(-((x / 1.2) ** 2) / 4.0)
    re = envelope * np.cos(x)
    im = envelope * np.sin(x)
    return op, spec, WaveFunction(re=re, im=im)


def test_current_residual_matches_complex_current(rng):
    # the scaled residual 2 hbar r must agree with the standard probability
    # continuity residual, their gap shrinking at second order
    gaps = []
    levels = [(150, 0.02), (301, 0.01)]
    for n, dt in levels:
        op, spec, psi0 = _gaussian_packet_scenario(n)
        s0 = dequantize(spec, psi0, 0.0)
        traj = spectral_field_trajectory(spec, s0, dt, 8)
        res = current_residual(op, traj)

        wtraj = quantize_trajectory(op, traj)
        psi_mat = wtraj.re + 1j * wtraj.im
        dx = op.grid.dx
        dpsi = np.full_like(psi_mat, np.nan + 0j)
        dpsi[:, 1:-1] = (psi_mat[:, 2:] - psi_mat[:, :-2]) / (2.0 * dx)
        current = (op.hbar / op.mass) * np.imag(np.conj(psi_mat) * dpsi)
        div = np.full_like(current, np.nan)
        div[:, 1:-1] = (current[:, 2:] - current[:, :-2]) / (2.0 * dx)
        p_mat = np.abs(psi_mat) ** 2
        dp_dt = (p_mat[2:] - p_mat[:-2]) / (2.0 * dt)
        r_std = dp_dt + div[1:-1]
        gap = np.abs(2.0 * op.hbar * res - r_std)
        gaps.append(np.nanmax(gap))
    assert gaps[0] / gaps[1] > 2.5

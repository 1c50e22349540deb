import numpy as np
import pytest

from schrofield import (
    Potential,
    Trajectory,
    WaveFunction,
    build_grid,
    build_operator,
    hamiltonian_action,
    norm_hamiltonian,
    propagate_spectral,
    schrodinger_residual,
    schrodinger_rhs,
    step_crank_nicolson,
    wave_hamiltonian,
)
from schrofield import lattice
from schrofield.schrodinger import CrankNicolson, crank_nicolson_trajectory, spectral_trajectory

from conftest import count_calls, dense_k, low_mode_coefficients


def _ground(spec):
    return spec.vectors[:, -1], -spec.eigenvalues[-1]


def test_rhs_zero(free3):
    psi = WaveFunction(re=np.zeros(3), im=np.zeros(3))
    dre, dim = schrodinger_rhs(free3, psi)
    assert not dre.any() and not dim.any()


def test_rhs_eigenstate(harmonic400):
    op, spec = harmonic400
    u0, e0 = _ground(spec)
    dre, dim = schrodinger_rhs(op, WaveFunction(re=u0, im=np.zeros(400)))
    assert not dre.any()
    assert np.max(np.abs(dim - spec.eigenvalues[-1] * u0)) < 1e-10


def test_rhs_matches_complex_assembly(harmonic400, rng):
    op, _ = harmonic400
    re = rng.standard_normal(400)
    im = rng.standard_normal(400)
    dre, dim = schrodinger_rhs(op, WaveFunction(re=re, im=im))
    # oracle: i hbar Psi_dot = -K Psi evaluated in complex arithmetic
    psi = re + 1j * im
    psi_dot = (-dense_k(op) @ psi) / (1j * op.hbar)
    assert np.max(np.abs(dre - psi_dot.real)) < 1e-13 * np.max(np.abs(psi_dot.real))
    assert np.max(np.abs(dim - psi_dot.imag)) < 1e-13 * np.max(np.abs(psi_dot.imag))


def test_crank_nicolson_cayley_phase_on_eigenline(harmonic400):
    op, spec = harmonic400
    u0, e0 = _ground(spec)
    dt = 0.3
    kappa0 = spec.eigenvalues[-1]
    stepped = step_crank_nicolson(op, WaveFunction(re=u0, im=np.zeros(400)), dt)
    a = 0.5 * dt * kappa0 / op.hbar
    phase = (1.0 + 1j * a) / (1.0 - 1j * a)  # scalar Cayley factor on the eigenline
    assert np.max(np.abs(stepped.re - phase.real * u0)) < 1e-12
    assert np.max(np.abs(stepped.im - phase.imag * u0)) < 1e-12


@pytest.mark.parametrize("dt", [1e-3, 0.1, 2.5, 50.0])
def test_crank_nicolson_norm_preserving_any_dt(harmonic400, rng, dt):
    op, _ = harmonic400
    psi = WaveFunction(re=rng.standard_normal(400), im=rng.standard_normal(400))
    before = norm_hamiltonian(op, psi)
    after = norm_hamiltonian(op, step_crank_nicolson(op, psi, dt))
    assert abs(after - before) < 1e-12 * before


def test_crank_nicolson_second_order(small_harmonic, rng):
    op, spec = small_harmonic
    c = low_mode_coefficients(rng, 40, 4)
    psi0 = WaveFunction(re=spec.synthesize(c), im=np.zeros(40))
    t_final = 2.0
    errors = []
    for steps in (100, 200, 400):
        dt = t_final / steps
        got = crank_nicolson_trajectory(op, psi0, dt, steps)
        ref = propagate_spectral(spec, psi0, t_final)
        errors.append(
            max(np.max(np.abs(got.re[-1] - ref.re)), np.max(np.abs(got.im[-1] - ref.im)))
        )
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_propagate_spectral_identity_at_zero(harmonic400, rng):
    _, spec = harmonic400
    psi = WaveFunction(re=rng.standard_normal(400), im=rng.standard_normal(400))
    out = propagate_spectral(spec, psi, 0.0)
    assert np.max(np.abs(out.re - psi.re)) < 1e-12
    assert np.max(np.abs(out.im - psi.im)) < 1e-12


def test_propagate_spectral_eigenstate_phase(harmonic400):
    op, spec = harmonic400
    u0, e0 = _ground(spec)
    t = 1.7
    out = propagate_spectral(spec, WaveFunction(re=u0, im=np.zeros(400)), t)
    assert np.max(np.abs(out.re - u0 * np.cos(e0 * t))) < 1e-12
    assert np.max(np.abs(out.im + u0 * np.sin(e0 * t))) < 1e-12


def test_two_mode_recurrence(harmonic400):
    op, spec = harmonic400
    u0, u1 = spec.vectors[:, -1], spec.vectors[:, -2]
    k0, k1 = spec.eigenvalues[-1], spec.eigenvalues[-2]
    psi0 = WaveFunction(re=(u0 + u1) / np.sqrt(2.0), im=np.zeros(400))
    t_rec = 2.0 * np.pi * op.hbar / (k0 - k1)
    out = propagate_spectral(spec, psi0, t_rec)
    dens0 = psi0.re**2 + psi0.im**2
    dens = out.re**2 + out.im**2
    assert np.max(np.abs(dens - dens0)) < 1e-8


def test_wave_hamiltonian_values(harmonic400):
    op, spec = harmonic400
    zero = WaveFunction(re=np.zeros(400), im=np.zeros(400))
    assert wave_hamiltonian(op, zero) == 0.0
    u0, e0 = _ground(spec)
    h = wave_hamiltonian(op, WaveFunction(re=u0, im=np.zeros(400)))
    assert abs(h - 0.5 * e0) < 1e-12  # E0 ||Psi||^2 / 2 hbar on the eigenline
    assert abs(h - 0.25) < 1.5e-3


def test_hamiltonians_conserved_spectrally(harmonic400, rng):
    op, spec = harmonic400
    psi0 = WaveFunction(re=rng.standard_normal(400), im=rng.standard_normal(400))
    h0 = wave_hamiltonian(op, psi0)
    n0 = norm_hamiltonian(op, psi0)
    for t in (0.3, 2.7, 9.9):
        psi_t = propagate_spectral(spec, psi0, t)
        assert abs(wave_hamiltonian(op, psi_t) - h0) < 1e-10 * abs(h0)
        assert abs(norm_hamiltonian(op, psi_t) - n0) < 1e-12 * n0


def test_norm_hamiltonian_values(harmonic400):
    op, spec = harmonic400
    u0, _ = _ground(spec)
    assert abs(norm_hamiltonian(op, WaveFunction(re=u0, im=np.zeros(400))) - 0.5) < 1e-12
    zero = WaveFunction(re=np.zeros(400), im=np.zeros(400))
    assert norm_hamiltonian(op, zero) == 0.0


def test_action_zero_trajectory(free3):
    traj = Trajectory([0.0, 0.1, 0.2], re=np.zeros((3, 3)), im=np.zeros((3, 3)))
    assert hamiltonian_action(free3, traj) == 0.0


def test_action_eigenstate_closed_form(harmonic400):
    # integrand on u0 e^{-i E0 t} is -(omega/2) cos(2 omega t), so the action
    # over [0, T] is -sin(2 omega T)/4 (zero over full periods)
    op, spec = harmonic400
    u0, e0 = _ground(spec)
    omega = e0 / op.hbar
    dt = 1e-3
    steps = 3000
    t_final = dt * steps
    traj = spectral_trajectory(spec, WaveFunction(re=u0, im=np.zeros(400)), dt, steps)
    expected = -np.sin(2.0 * omega * t_final) / 4.0
    assert abs(hamiltonian_action(op, traj) - expected) < 5e-7


def test_action_stationary_at_solutions(small_harmonic, rng):
    op, spec = small_harmonic
    c = low_mode_coefficients(rng, 40, 4)
    psi0 = WaveFunction(re=spec.synthesize(c), im=np.zeros(40))
    dt, steps = 5e-3, 200
    traj = spectral_trajectory(spec, psi0, dt, steps)
    s0 = hamiltonian_action(op, traj)
    bump = np.sin(np.pi * np.arange(1, steps) / steps) ** 2  # vanishes at ends
    dre = rng.standard_normal((steps + 1, 40))
    dim = rng.standard_normal((steps + 1, 40))
    dre[0] = dre[-1] = 0.0
    dim[0] = dim[-1] = 0.0
    dre[1:-1] *= bump[:, None]
    dim[1:-1] *= bump[:, None]

    def perturbed(eps):
        moved = Trajectory(traj.times, re=traj.re + eps * dre, im=traj.im + eps * dim)
        return hamiltonian_action(op, moved)

    deltas = [abs(perturbed(eps) - s0) for eps in (1e-2, 1e-3)]
    # second-order scaling: fitting |dS| = C eps^2 at eps=1e-2 must bound eps=1e-3
    c_fit = deltas[0] / 1e-4
    assert deltas[1] <= 2.0 * c_fit * 1e-6


def test_action_requires_three_samples(free3):
    traj = Trajectory([0.0, 0.1], re=np.zeros((2, 3)), im=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hamiltonian_action(free3, traj)


def test_residual_second_order_on_exact_samples(small_harmonic, rng):
    op, spec = small_harmonic
    c = low_mode_coefficients(rng, 40, 4)
    psi0 = WaveFunction(re=spec.synthesize(c), im=spec.synthesize(c[::-1].copy()))
    errs = []
    for dt in (4e-2, 2e-2, 1e-2):
        traj = spectral_trajectory(spec, psi0, dt, 16)
        r1, r2 = schrodinger_residual(op, traj)
        errs.append(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_stepper_class_matches_one_shot(harmonic400, rng):
    op, _ = harmonic400
    psi = WaveFunction(re=rng.standard_normal(400), im=rng.standard_normal(400))
    a = CrankNicolson(op, 0.05).step(psi)
    b = step_crank_nicolson(op, psi, 0.05)
    assert np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65])
@pytest.mark.parametrize("dt", [1e-3, 0.3, 20.0])
def test_crank_nicolson_step_matches_dense_cayley_oracle(boundary, n, dt, rng, monkeypatch):
    # Cyclic reduction changes its level layout with n's binary digits, and the
    # periodic corners go through a Sherman-Morrison correction; V of either
    # sign and large dt keep the system far from the identity.
    grid = build_grid(n, -3.0, 3.0, boundary)
    op = build_operator(grid, Potential(rng.uniform(-30.0, 30.0, n)), hbar=0.7, mass=1.3)
    psi = WaveFunction(re=rng.standard_normal(n), im=rng.standard_normal(n))
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    got = CrankNicolson(op, dt).step(psi)
    assert eighs == []
    a = 0.5 * dt / op.hbar
    eye, k = np.eye(n), dense_k(op)
    want = np.linalg.solve(eye - 1j * a * k, (eye + 1j * a * k) @ (psi.re + 1j * psi.im))
    err = np.max(np.abs(got.re + 1j * got.im - want)) / np.max(np.abs(want))
    assert err < 1e-11
    assert got.time == dt

"""Acceptance suite: one test per criterion, printed as a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Scenario scale stays at or below n = 400 grid points and every
criterion pins its tolerance explicitly.
"""

import numpy as np
import pytest

from schrofield import (
    ConstrainedState,
    FieldState,
    Potential,
    Rk4,
    Trajectory,
    WaveFunction,
    build_grid,
    build_operator,
    dequantize,
    dirac_flow_check,
    dirac_structure,
    eigendecompose,
    energy_densities,
    field_to_wave,
    generalized_hamiltonian_check,
    inner_product,
    kernel_basis,
    make_onshell,
    norm_hamiltonian,
    probability_and_phase,
    propagate_spectral,
    propagate_spectral_field,
    quantize,
    quantize_trajectory,
    reduce_to_field,
    reduce_to_wave,
    schrodinger_residual,
    verify_dirac_relations,
    wave_to_field,
)
from schrofield.constrained import constraint_residuals, rk4_trajectory
from schrofield.correspondence import current_residual
from schrofield.field import (
    leapfrog_trajectory,
    spectral_field_trajectory,
)
from schrofield.schrodinger import (
    CrankNicolson,
    crank_nicolson_trajectory,
    spectral_trajectory,
)

from conftest import dense_k, low_frequency_wave, low_mode_coefficients


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def scenarios(harmonic400):
    """The four preset scenarios: harmonic, well, barrier, free."""
    out = {"harmonic": harmonic400}
    g = build_grid(300, -12.0, 12.0, "dirichlet")
    x = g.points()
    well = np.where(np.abs(x) <= 2.0, -5.0, 0.0)
    op = build_operator(g, Potential(well))
    out["well"] = (op, eigendecompose(op))
    g = build_grid(300, -15.0, 15.0, "dirichlet")
    x = g.points()
    barrier = 1.0 * np.exp(-0.5 * x * x)
    op = build_operator(g, Potential(barrier))
    out["barrier"] = (op, eigendecompose(op))
    g = build_grid(200, -10.0, 10.0, "dirichlet")
    op = build_operator(g, Potential(np.zeros(200)))
    out["free"] = (op, eigendecompose(op))
    return out


def test_criterion_01_potential_map_soundness(scenarios):
    rng = np.random.default_rng(101)
    dt = 1e-3
    for name, (op, spec) in scenarios.items():
        psi0 = low_frequency_wave(spec, rng, dt)
        s0 = dequantize(spec, psi0, 0.0)
        traj = spectral_field_trajectory(spec, s0, dt, 40)
        wtraj = quantize_trajectory(op, traj)
        r1, r2 = schrodinger_residual(op, wtraj)
        residual = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        assert residual <= 1e-8, (name, residual)
        wave0 = WaveFunction(re=wtraj.re[0], im=wtraj.im[0])
        for k, t in enumerate(wtraj.times):
            ref = propagate_spectral(spec, wave0, float(t))
            gap = max(
                np.max(np.abs(wtraj.re[k] - ref.re)),
                np.max(np.abs(wtraj.im[k] - ref.im)),
            )
            assert gap <= 1e-9, (name, gap)
    # the identity clause holds for arbitrary states, not just low-frequency ones
    op, spec = scenarios["harmonic"]
    psi0 = WaveFunction(re=rng.standard_normal(400), im=rng.standard_normal(400))
    s0 = dequantize(spec, psi0, 0.0)
    for t in (0.4, 2.9):
        got = quantize(op, propagate_spectral_field(spec, s0, t))
        ref = propagate_spectral(spec, psi0, t)
        assert np.max(np.abs(got.re - ref.re)) <= 1e-9
        assert np.max(np.abs(got.im - ref.im)) <= 1e-9
    _report(1, "quantized exact field trajectories solve the wave equation "
               "(residual <= 1e-8, spectral match <= 1e-9, all four scenarios)")


def test_criterion_02_reconstruction_theorem(scenarios, periodic_free64):
    op, spec = scenarios["harmonic"]
    rng = np.random.default_rng(202)
    times = np.linspace(0.25, 8.0, 8)
    for _ in range(50):
        psi0 = WaveFunction(
            re=rng.standard_normal(400), im=rng.standard_normal(400)
        )
        t = float(rng.choice(times))
        back = quantize(op, dequantize(spec, psi0, t, tol=1e-10))
        ref = propagate_spectral(spec, psi0, t)
        err = max(np.max(np.abs(back.re - ref.re)), np.max(np.abs(back.im - ref.im)))
        assert err <= 1e-10, err

    op_p, spec_p = periodic_free64
    pi0 = spec_p.vectors[:, spec_p.zero_modes[0]]
    psi0 = WaveFunction(re=np.zeros(64), im=pi0)
    from schrofield import solve_elliptic

    c_const = solve_elliptic(spec_p, -psi0.re, tol=1e-10)
    assert np.max(np.abs(c_const)) == 0.0
    for t in (0.0, 1.5, 6.0):
        back = quantize(op_p, dequantize(spec_p, psi0, t))
        assert np.max(np.abs(back.re)) <= 1e-12
        assert np.max(np.abs(back.im - pi0)) <= 1e-12
    _report(2, "round trip equals exact evolution to 1e-10 on 50 random states; "
               "kernel scenario gives C = 0 and an exact round trip")


def test_criterion_03_density_identity_and_conservation(scenarios):
    rng = np.random.default_rng(303)
    for name, (op, spec) in scenarios.items():
        n = op.n
        s = FieldState(phi=rng.standard_normal(n), p=rng.standard_normal(n))
        p_dens, _ = probability_and_phase(op, s)
        _, _, e_dens = energy_densities(op, s)
        gap = np.max(np.abs(p_dens - 2.0 * op.hbar * e_dens))
        assert gap <= 1e-13 * np.max(p_dens), (name, gap)

    op, spec = scenarios["harmonic"]
    psi0 = WaveFunction(re=rng.standard_normal(400), im=rng.standard_normal(400))
    s0 = dequantize(spec, psi0, 0.0)
    ones = np.ones(400)
    total0 = None
    for t in np.linspace(0.0, 10.0, 101):
        st = propagate_spectral_field(spec, s0, float(t))
        p_dens, _ = probability_and_phase(op, st)
        total = inner_product(p_dens, ones, op.grid)
        if total0 is None:
            total0 = total
        assert abs(total - total0) <= 1e-10 * total0
    _report(3, "P = 2 hbar E pointwise to 1e-13 on all scenarios; total "
               "probability drifts < 1e-10 along exact flow over T = 10")


def test_criterion_04_current_equation():
    residuals = []
    gaps = []
    n, dt = 150, 0.02
    for level in range(3):
        grid = build_grid(n, -15.0, 15.0, "dirichlet")
        op = build_operator(grid, Potential(np.zeros(n)))
        spec = eigendecompose(op)
        x = grid.points()
        env = np.exp(-(x**2) / (4.0 * 1.2**2))
        psi0 = WaveFunction(re=env * np.cos(x), im=env * np.sin(x))
        s0 = dequantize(spec, psi0, 0.0)
        steps = 8 * 2**level
        traj = spectral_field_trajectory(spec, s0, dt / 2**level, steps)
        res = current_residual(op, traj)
        residuals.append(np.nanmax(np.abs(res)))

        # oracle: standard complex probability-current divergence
        wtraj = quantize_trajectory(op, traj)
        psi_mat = wtraj.re + 1j * wtraj.im
        dx = grid.dx
        dpsi = np.full_like(psi_mat, np.nan + 0j)
        dpsi[:, 1:-1] = (psi_mat[:, 2:] - psi_mat[:, :-2]) / (2.0 * dx)
        current = (op.hbar / op.mass) * np.imag(np.conj(psi_mat) * dpsi)
        div = np.full_like(current, np.nan)
        div[:, 1:-1] = (current[:, 2:] - current[:, :-2]) / (2.0 * dx)
        p_mat = np.abs(psi_mat) ** 2
        dp_dt = (p_mat[2:] - p_mat[:-2]) / (2.0 * (dt / 2**level))
        r_std = dp_dt + div[1:-1]
        gaps.append(np.nanmax(np.abs(2.0 * op.hbar * res - r_std)))
        n = 2 * n + 1
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert np.all(orders >= 1.7), orders
    gap_orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(gap_orders >= 1.7), gap_orders
    _report(4, f"current-equation residual decays at order {orders.min():.2f} "
               f"and matches the complex current at order {gap_orders.min():.2f}")


def test_criterion_05_constrained_dynamics(harmonic400, small_harmonic):
    op, spec = harmonic400
    rng = np.random.default_rng(505)
    phi0 = spec.synthesize(low_mode_coefficients(rng, 400, 6))
    p0 = spec.synthesize(low_mode_coefficients(rng, 400, 6))
    state = make_onshell(op, phi0, p0)
    rk4 = Rk4(op, 1e-3)
    worst_c1 = 0.0
    worst_c2 = 0.0
    for _ in range(10_000):
        state = rk4.step(state)
        c1, c2 = constraint_residuals(op, state)
        worst_c1 = max(worst_c1, float(np.max(np.abs(c1))))
        worst_c2 = max(worst_c2, float(np.max(np.abs(c2))))
    assert worst_c1 <= 1e-8 and worst_c2 <= 1e-8, (worst_c1, worst_c2)

    # commuting diagrams and RK4 order on the coarse scenario
    op_s, spec_s = small_harmonic
    phi0 = spec_s.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    p0 = spec_s.synthesize(low_mode_coefficients(rng, 40, 5, decay=1.0))
    s0 = make_onshell(op_s, phi0, p0)
    errs_wave, errs_field = [], []
    t_final = 1.0
    for steps in (50, 100, 200):
        d = t_final / steps
        traj = rk4_trajectory(op_s, s0, d, steps)
        end = ConstrainedState(
            phi=traj.phi[-1], p=traj.p[-1], varphi=traj.varphi[-1], pi=traj.pi[-1]
        )
        ref_w = propagate_spectral(spec_s, reduce_to_wave(op_s, s0), t_final)
        got_w = reduce_to_wave(op_s, end)
        errs_wave.append(
            max(np.max(np.abs(got_w.re - ref_w.re)), np.max(np.abs(got_w.im - ref_w.im)))
        )
        ref_f = propagate_spectral_field(spec_s, reduce_to_field(op_s, s0), t_final)
        got_f = reduce_to_field(op_s, end)
        errs_field.append(
            max(np.max(np.abs(got_f.phi - ref_f.phi)), np.max(np.abs(got_f.p - ref_f.p)))
        )
    for errs in (errs_wave, errs_field):
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 3.6) & (orders < 4.4)), orders
    _report(5, f"constraints hold to {worst_c1:.1e} over T=10 at dt=1e-3; both "
               "commuting diagrams converge at measured RK4 order in [3.6, 4.4]")


def test_criterion_06_bracket_algebra(harmonic400):
    op, spec = harmonic400
    jd = dirac_structure(op)
    report = verify_dirac_relations(jd, tol=1e-10)
    for entry in report:
        assert entry["passed"], entry
    rng = np.random.default_rng(606)
    for entry in dirac_flow_check(jd, tol=1e-12, rng=rng):
        assert entry["passed"], entry
    _report(6, "all Dirac-bracket block identities hold at 1e-10 and both "
               "dynamical-sector flows reproduce the dynamics at 1e-12")


def test_criterion_07_generalized_hamiltonian_form(harmonic400):
    op, spec = harmonic400
    rng = np.random.default_rng(707)
    for entry in generalized_hamiltonian_check(op, tol=1e-12, rng=rng, batch=20):
        assert entry["passed"], entry

    psi = WaveFunction(re=rng.standard_normal(400), im=rng.standard_normal(400))
    stepper = CrankNicolson(op, 1e-3)
    h_prev = norm_hamiltonian(op, psi)
    for _ in range(200):
        psi = stepper.step(psi)
        h_now = norm_hamiltonian(op, psi)
        assert abs(h_now - h_prev) <= 1e-12 * h_prev
        h_prev = h_now
    _report(7, "non-canonical flow matches the wave system at 1e-12 on random "
               "states; the norm functional is conserved to 1e-12 per CN step")


def test_criterion_08_correspondence_maps(harmonic400, periodic_free64, small_harmonic):
    op, _ = harmonic400
    rng = np.random.default_rng(808)
    re = rng.standard_normal(400)
    im = rng.standard_normal(400)
    out = field_to_wave(op, wave_to_field(op, WaveFunction(re=re, im=im)))
    block = np.zeros((800, 800))
    block[:400, :400] = block[400:, 400:] = -dense_k(op)
    expected = block @ np.concatenate([re, im])
    gap = np.max(np.abs(np.concatenate([out.re, out.im]) - expected))
    assert gap <= 1e-12 * np.max(np.abs(expected)), gap

    op_p, spec_p = periodic_free64
    basis = kernel_basis(spec_p)
    for k in range(basis.count):
        s = wave_to_field(op_p, WaveFunction(re=np.zeros(64), im=basis.modes[:, k]))
        assert np.max(np.abs(s.phi)) <= 1e-10
        assert np.max(np.abs(s.p)) <= 1e-10

    op_s, spec_s = small_harmonic
    psi0 = WaveFunction(
        re=spec_s.synthesize(low_mode_coefficients(rng, 40, 4)),
        im=spec_s.synthesize(low_mode_coefficients(rng, 40, 4)),
    )
    from schrofield.field import field_equation_residuals

    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = spectral_trajectory(spec_s, psi0, dt, 16)
        rows = [wave_to_field(op_s, WaveFunction(re, im)) for re, im in zip(traj.re, traj.im)]
        ftraj = Trajectory(traj.times, phi=[s.phi for s in rows], p=[s.p for s in rows])
        r1, r2 = field_equation_residuals(op_s, ftraj)
        errs.append(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.7), orders
    _report(8, "map composition equals componentwise -K at 1e-12; kernel states "
               "are annihilated; transported solutions solve the field system")


def test_criterion_09_integrator_orders(small_harmonic):
    op, spec = small_harmonic
    rng = np.random.default_rng(909)
    c1 = low_mode_coefficients(rng, 40, 4)
    c2 = low_mode_coefficients(rng, 40, 4)
    psi0 = WaveFunction(re=spec.synthesize(c1), im=spec.synthesize(c2))
    s0 = FieldState(phi=spec.synthesize(c1), p=spec.synthesize(c2))
    t_final = 2.0
    errs = {"crank_nicolson": [], "leapfrog": [], "rk4": []}
    for steps in (100, 200, 400):
        dt = t_final / steps
        got = crank_nicolson_trajectory(op, psi0, dt, steps)
        ref = propagate_spectral(spec, psi0, t_final)
        errs["crank_nicolson"].append(
            max(np.max(np.abs(got.re[-1] - ref.re)), np.max(np.abs(got.im[-1] - ref.im)))
        )
        gotf = leapfrog_trajectory(op, s0, dt, steps)
        reff = propagate_spectral_field(spec, s0, t_final)
        errs["leapfrog"].append(
            max(np.max(np.abs(gotf.phi[-1] - reff.phi)), np.max(np.abs(gotf.p[-1] - reff.p)))
        )
        gotc = rk4_trajectory(op, make_onshell(op, s0.phi, s0.p), dt, steps)
        errs["rk4"].append(
            max(np.max(np.abs(gotc.phi[-1] - reff.phi)), np.max(np.abs(gotc.p[-1] - reff.p)))
        )
    measured = {}
    for name, seq in errs.items():
        orders = np.log2(np.array(seq[:-1]) / np.array(seq[1:]))
        measured[name] = float(np.mean(orders))
    assert 1.7 < measured["crank_nicolson"] < 2.3, measured
    assert 1.7 < measured["leapfrog"] < 2.3, measured
    assert 3.6 < measured["rk4"] < 4.4, measured
    _report(9, "measured orders: CN {crank_nicolson:.2f}, leapfrog {leapfrog:.2f}, "
               "RK4 {rk4:.2f} (spectral reference)".format(**measured))


def test_criterion_10_discrete_spectrum_sanity(harmonic400):
    _, spec = harmonic400
    energies = -spec.eigenvalues[::-1][:3]
    assert np.allclose(energies, [0.5, 1.5, 2.5], atol=5e-3), energies
    _report(10, "harmonic lowest energies "
                f"{energies[0]:.4f}, {energies[1]:.4f}, {energies[2]:.4f} "
                "within 5e-3 of 0.5, 1.5, 2.5")

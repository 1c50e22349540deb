"""Run orchestration: time series, snapshots, manifests, verification.

All numeric output is CSV with a header row and shortest round-trip float
formatting, so identical configs produce byte-identical files. The manifest
isolates the only non-reproducible quantity (wall time) in a single field
and carries a sha256 inventory of everything else.
"""

import hashlib
import json
import math
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import brackets as br
from . import constrained as cn
from . import correspondence as cr
from . import field as fd
from . import schrodinger as sd
from .config import MAX_STEPS
from .errors import ConfigError
from .lattice import build_grid, build_operator, eigendecompose, stencil_product
from .presets import potential_from_spec


def format_float(value):
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(value))


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir, command, cfg_dict, wall_time, drift, extra=None):
    out_dir = Path(out_dir)
    files = []
    for p in sorted(out_dir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        files.append(
            {"path": p.name, "bytes": p.stat().st_size, "sha256": _sha256(p)}
        )
    manifest = {
        "tool": "schrofield",
        "tool_version": __version__,
        "command": command,
        "config": cfg_dict,
        "wall_time_s": wall_time,
        "drift": drift,
        "files": files,
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def _write_snapshot(out_dir, step, op, fields, p_dens, phase, observables):
    """snapshot_<step>.csv: x, the picture's fields, then the selected P, S, E."""
    extras = {"P": p_dens, "S": phase, "E": 0.5 * p_dens / op.hbar}
    cols = [("x", op.grid.points()), *fields] + [(k, extras[k]) for k in observables]
    write_csv(
        Path(out_dir) / f"snapshot_{step:06d}.csv",
        [name for name, _ in cols],
        zip(*(values for _, values in cols)),
    )


def _wave_snapshot(out_dir, step, op, psi, observables):
    p_dens = psi.re * psi.re + psi.im * psi.im
    phase = op.hbar * np.arctan2(psi.im, psi.re)
    fields = [("re", psi.re), ("im", psi.im)]
    _write_snapshot(out_dir, step, op, fields, p_dens, phase, observables)


def _field_snapshot(out_dir, step, op, state, observables, extra_fields=()):
    p_dens, phase = cr.probability_and_phase(op, state)
    fields = [("phi", state.phi), ("p", state.p), *extra_fields]
    _write_snapshot(out_dir, step, op, fields, p_dens, phase, observables)


def _max_error(*pairs):
    """Largest |a - b| over the (a, b) array pairs."""
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def _steps(cfg):
    nsteps = int(round(cfg.t_final / cfg.dt))
    return max(nsteps, 1)


def _snapshot_steps(nsteps, stride):
    chosen = {0, nsteps}
    if stride > 0:
        chosen.update(range(0, nsteps + 1, stride))
    return chosen


def _check_blowup(value, initial, what):
    if abs(value) > 10.0 * abs(initial) + 1e-12:
        raise RuntimeError(
            f"instability: {what} grew to {value!r} from {initial!r}; aborting run"
        )


def _spread(values):
    return float(np.max(np.abs(values - values[0])))


def _peak(values):
    return float(np.max(values))


@dataclass(frozen=True)
class _Picture:
    """What one picture supplies to the shared run loop `_run`.

    The loop holds each state as one stacked float array `y`, next to `ky`:
    the stencil products of `y` that its series row and its next step both
    read.
    """

    command: str
    system: str
    integrators: tuple
    # scenario -> (y0, ky0, advance); advance(y, ky, k) -> (y, ky) at step k
    stepper: Callable
    columns: tuple
    # (op, t, y, ky) -> series row in `columns` order
    row: Callable
    # (column, label) of the quantity the blow-up guard watches
    guard: tuple
    # (t, y) -> state object, built for snapshots and to name a non-finite field
    state: Callable
    # (out_dir, step, op, state, observables) -> None
    snapshot: Callable
    # (manifest key, column, reduction of that column over the run)
    drift: tuple
    # (label, drift key) shown in the stdout summary
    summary: tuple


def _checked_row(picture, op, t, y, ky, first):
    """Series row of the state y, after checking y, the row and the blow-up guard.

    A non-finite state raises the state object's ValueError naming the field;
    a non-finite row value, or a guarded value ten times its size in `first`
    (the run's first row), aborts the run.
    """
    if not np.isfinite(y).all():
        picture.state(t, y)
    row = picture.row(op, t, y, ky)
    # A finite state can still overflow its row (inf, or nan from inf - inf).
    for column, value in zip(picture.columns, row):
        if not math.isfinite(value):
            raise RuntimeError(f"instability: {column} is {value!r} at t={t!r}; aborting run")
    guard, what = picture.guard
    _check_blowup(row[guard], (first or row)[guard], what)
    return row


def _run(picture, scenario, out_dir, quiet):
    """Step a scenario, writing series, snapshots and a manifest."""
    cfg, op = scenario.config, scenario.operator
    if cfg.integrator not in picture.integrators:
        raise ConfigError(
            f"integrator {cfg.integrator!r} does not apply to the {picture.system} system"
        )
    t0 = time.perf_counter()
    y, ky, advance = picture.stepper(scenario)
    nsteps = _steps(cfg)
    snaps = _snapshot_steps(nsteps, cfg.snapshot_stride)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Steppers accumulate time step by step; the exact propagators evaluate it.
    exact = cfg.integrator == "spectral"
    t = 0.0
    rows = []
    # Overflow is reported by _checked_row as a non-finite state or row.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps + 1):
            if k > 0:
                y, ky = advance(y, ky, k)
                t = k * cfg.dt if exact else t + cfg.dt
            rows.append(_checked_row(picture, op, t, y, ky, rows[0] if rows else None))
            if k in snaps:
                picture.snapshot(out_dir, k, op, picture.state(t, y), cfg.observables)
    write_csv(out_dir / "series.csv", picture.columns, rows)
    arr = np.asarray(rows)
    drift = {key: reduce(arr[:, col]) for key, col, reduce in picture.drift}
    manifest = write_manifest(
        out_dir, picture.command, cfg.as_dict(), time.perf_counter() - t0, drift
    )
    if not quiet:
        label, key = picture.summary
        print(f"{picture.command}: {nsteps} steps, {label} {drift[key]:.3e}")
    return manifest


def _wave_stepper(scenario):
    cfg, op = scenario.config, scenario.operator
    y0 = np.stack(scenario.initial_pair)
    if cfg.integrator == "crank_nicolson":
        cayley = sd.CrankNicolson(op, cfg.dt)

        def advance(y, ky, k):
            y = cayley.advance(y, ky)
            return y, stencil_product(op, y)

    else:
        spec = scenario.spectrum
        r, s = spec.coefficients(y0[0]), spec.coefficients(y0[1])

        def advance(y, ky, k):
            y = np.stack(sd._rotate(spec, r, s, k * cfg.dt))
            return y, stencil_product(op, y)

    return y0, stencil_product(op, y0), advance


def _wave_row(op, t, y, ky):
    norm = sd._norm(op, y[0], y[1])
    return (t, norm, sd._energy(op, y, ky), 2.0 * op.hbar * norm)


_WAVE = _Picture(
    command="run-schrodinger",
    system="wave",
    integrators=("crank_nicolson", "spectral"),
    stepper=_wave_stepper,
    columns=("t", "norm", "hamiltonian", "total_probability"),
    row=_wave_row,
    # The wave Hamiltonian has no fixed sign and can start near 0; the norm
    # is positive and conserved by both wave integrators.
    guard=(1, "norm"),
    state=lambda t, y: sd.WaveFunction(re=y[0], im=y[1], time=t),
    snapshot=_wave_snapshot,
    drift=(("norm_drift", 1, _spread), ("hamiltonian_drift", 2, _spread)),
    summary=("norm drift", "norm_drift"),
)


def _field_stepper(scenario):
    """ky is (K phi, K^2 phi) for leapfrog, whose next kick reads K^2 phi, else (K phi,)."""
    cfg, op = scenario.config, scenario.operator
    y0 = np.stack(scenario.initial_pair)
    k_phi = stencil_product(op, y0[0])
    if cfg.integrator == "leapfrog":

        def advance(y, ky, k):
            y, k_phi, kk_phi = fd._leapfrog(op, y, ky[1], cfg.dt)
            return y, (k_phi, kk_phi)

        return y0, (k_phi, stencil_product(op, k_phi)), advance

    spec = scenario.spectrum
    a, b = spec.coefficients(y0[0]), spec.coefficients(y0[1])

    def advance(y, ky, k):
        y = np.stack(fd._propagate(spec, a, b, k * cfg.dt))
        return y, (stencil_product(op, y[0]),)

    return y0, (k_phi,), advance


def _field_row(op, t, y, ky):
    # quantize(state) = -K phi + i p
    norm = sd._norm(op, -ky[0], y[1])
    return (t, norm, fd._energy(op, y[1], ky[0]), 2.0 * op.hbar * norm)


_FIELD = _Picture(
    command="run-field",
    system="field",
    integrators=("leapfrog", "spectral"),
    stepper=_field_stepper,
    columns=("t", "norm", "hamiltonian", "total_probability"),
    row=_field_row,
    guard=(2, "field hamiltonian"),
    state=lambda t, y: fd.FieldState(phi=y[0], p=y[1], time=t),
    snapshot=_field_snapshot,
    drift=(("norm_drift", 1, _spread), ("hamiltonian_drift", 2, _spread)),
    summary=("energy drift", "hamiltonian_drift"),
)


def _constrained_stepper(scenario):
    """y is (phi, p, varphi) on shell, with pi = 0; ky is K y."""
    cfg, op = scenario.config, scenario.operator
    s0 = cn.make_onshell(op, *scenario.initial_pair)
    y0 = np.stack([s0.phi, s0.p, s0.varphi])
    if cfg.integrator == "rk4":

        def advance(y, ky, k):
            y = cn._rk4(op, y, ky[:0:-1], cfg.dt)
            return y, stencil_product(op, y)

    else:
        spec = scenario.spectrum
        a, b = spec.coefficients(s0.phi), spec.coefficients(s0.p)

        def advance(y, ky, k):
            phi, p = fd._propagate(spec, a, b, k * cfg.dt)
            y = np.stack([phi, p, -stencil_product(op, phi)])
            return y, stencil_product(op, y)

    return y0, stencil_product(op, y0), advance


def _constrained_row(op, t, y, ky):
    _, p, varphi = y
    pi = np.zeros_like(p)
    norm = sd._norm(op, varphi, p)
    return (
        t,
        norm,
        cn._hamiltonian(op, y, ky, pi),
        float(np.abs(varphi + ky[0]).max()),
        float(np.abs(pi).max()),
        2.0 * op.hbar * norm,
    )


def _constrained_snapshot(out_dir, step, op, state, observables):
    extra_fields = [("varphi", state.varphi), ("pi", state.pi)]
    _field_snapshot(out_dir, step, op, state, observables, extra_fields)


_CONSTRAINED = _Picture(
    command="run-constrained",
    system="constrained",
    integrators=("rk4", "spectral"),
    stepper=_constrained_stepper,
    columns=("t", "norm", "hamiltonian", "c1_inf", "c2_inf", "total_probability"),
    row=_constrained_row,
    guard=(2, "constrained hamiltonian"),
    state=lambda t, y: cn.ConstrainedState(
        phi=y[0], p=y[1], varphi=y[2], pi=np.zeros_like(y[0]), time=t
    ),
    snapshot=_constrained_snapshot,
    drift=(("hamiltonian_drift", 2, _spread), ("c1_max", 3, _peak), ("c2_max", 4, _peak)),
    summary=("max |c1|", "c1_max"),
)


def run_schrodinger(scenario, out_dir, quiet=False):
    """Propagate a wave scenario and emit series, snapshots, and a manifest."""
    return _run(_WAVE, scenario, out_dir, quiet)


def run_field(scenario, out_dir, quiet=False):
    """Propagate a field scenario (initial pair read as (phi, p))."""
    return _run(_FIELD, scenario, out_dir, quiet)


def run_constrained(scenario, out_dir, quiet=False):
    """Propagate the four-field constrained system from on-shell data."""
    return _run(_CONSTRAINED, scenario, out_dir, quiet)


def run_dequantize(scenario, out_dir, quiet=False):
    """Reconstruct the potential field from a wave initial state over time."""
    t0 = time.perf_counter()
    cfg = scenario.config
    op, spec = scenario.operator, scenario.spectrum
    re0, im0 = scenario.initial_pair
    psi0 = sd.WaveFunction(re=re0, im=im0, time=0.0)
    nsteps = _steps(cfg)
    snaps = sorted(_snapshot_steps(nsteps, cfg.snapshot_stride))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    from .lattice import solve_elliptic

    c_const = solve_elliptic(spec, -psi0.re, tol=1e-10)
    write_csv(
        out_dir / "integration_constant.csv",
        ["x", "C"],
        zip(op.grid.points(), c_const),
    )
    basis = cr.kernel_basis(spec)

    rows = []
    for k in snaps:
        t = k * cfg.dt
        state = cr.dequantize(spec, psi0, t, tol=1e-10)
        back = cr.quantize(op, state)
        ref = sd.propagate_spectral(spec, psi0, t)
        err = _max_error((back.re, ref.re), (back.im, ref.im))
        rows.append((t, err))
        _field_snapshot(out_dir, k, op, state, cfg.observables)
    write_csv(out_dir / "series.csv", ["t", "roundtrip_error"], rows)
    arr = np.asarray(rows)
    drift = {"roundtrip_error_max": float(np.max(arr[:, 1]))}
    manifest = write_manifest(
        out_dir,
        "dequantize",
        cfg.as_dict(),
        time.perf_counter() - t0,
        drift,
        extra={
            "kernel": {
                "modes": basis.count,
                "tolerance": basis.tolerance,
            }
        },
    )
    if not quiet:
        print(
            f"dequantize: {len(snaps)} reconstructions, worst round trip "
            f"{drift['roundtrip_error_max']:.3e}"
        )
    return manifest


def run_spectrum(scenario, out_dir, quiet=False):
    """Dump eigenvalues and eigenvectors of the scenario operator."""
    t0 = time.perf_counter()
    cfg = scenario.config
    op, spec = scenario.operator, scenario.spectrum
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["index,kappa,energy"]
    for i, k in enumerate(spec.eigenvalues):
        lines.append(f"{i},{format_float(k)},{format_float(-k)}")
    (out_dir / "eigenvalues.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    x = op.grid.points()
    header = ["x"] + [f"mode_{i:04d}" for i in range(op.n)]
    rows = np.column_stack([x, spec.vectors])
    write_csv(out_dir / "eigenvectors.csv", header, rows)
    manifest = write_manifest(
        out_dir,
        "spectrum",
        cfg.as_dict(),
        time.perf_counter() - t0,
        {},
        extra={
            "zero_modes": list(spec.zero_modes),
            "zero_mode_tolerance": spec.zero_mode_tolerance,
        },
    )
    if not quiet:
        print(f"spectrum: {op.n} modes, {len(spec.zero_modes)} zero modes")
    return manifest


def _identity(name, violation, tol, passed=None, note=None, asserted=True):
    entry = {
        "name": name,
        "violation": float(violation),
        "tolerance": float(tol),
        "passed": bool(violation <= tol) if passed is None else bool(passed),
        "asserted": bool(asserted),
    }
    if note:
        entry["note"] = note
    return entry


def _faulted_dirac(op, layout, fault):
    jd = br.dirac_structure(op, layout)
    if not fault:
        return jd
    c = np.array(jd.coeffs)
    if fault == "dirac_sign_flip":
        varphi, p = br.BLOCKS.index("varphi"), br.BLOCKS.index("p")
        c[[varphi, p], [p, varphi]] *= -1.0
    return br.BracketTable(c, layout, op)


def _commuting_diagram_orders(op, spec, phi0, p0, dt, nsteps):
    """Measured convergence order of both reduction-vs-evolution diagrams."""
    s0 = cn.make_onshell(op, phi0, p0)
    errs_wave = []
    errs_field = []
    for level in range(3):
        d = dt / 2**level
        steps = nsteps * 2**level
        traj = cn.rk4_trajectory(op, s0, d, steps)
        end = cn.ConstrainedState(
            phi=traj.phi[-1], p=traj.p[-1], varphi=traj.varphi[-1], pi=traj.pi[-1]
        )
        t_end = steps * d

        wave0 = cn.reduce_to_wave(op, s0)
        ref_w = sd.propagate_spectral(spec, wave0, t_end)
        got_w = cn.reduce_to_wave(op, end)
        errs_wave.append(_max_error((got_w.re, ref_w.re), (got_w.im, ref_w.im)))
        field0 = cn.reduce_to_field(op, s0)
        ref_f = fd.propagate_spectral_field(spec, field0, t_end)
        got_f = cn.reduce_to_field(op, end)
        errs_field.append(_max_error((got_f.phi, ref_f.phi), (got_f.p, ref_f.p)))
    order_w = float(np.mean(np.log2(np.array(errs_wave[:-1]) / np.array(errs_wave[1:]))))
    order_f = float(np.mean(np.log2(np.array(errs_field[:-1]) / np.array(errs_field[1:]))))
    return order_w, order_f


@contextmanager
def _timed(timings, name):
    """Record the seconds the block takes as timings[name]."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


def run_verify(scenario, seed=0, out_dir=None, quiet=False):
    """Aggregate every machine-checkable identity into one report.

    Returns (report, all_pass); the process exit status contract (nonzero iff
    an asserted identity failed) is applied by the CLI wrapper. The report's
    `timings` maps each check to its seconds; like `wall_time_s` it varies
    from run to run, while `identities` is reproducible per seed.
    """
    t0 = time.perf_counter()
    timings = {}
    rng = np.random.default_rng(seed)
    cfg = scenario.config
    op, spec = scenario.operator, scenario.spectrum
    n = op.n
    layout = br.PhaseLayout(n=n, dx=op.grid.dx)

    with _timed(timings, "dirac_structure"):
        jd = _faulted_dirac(op, layout, cfg.fault)
    with _timed(timings, "verify_dirac_relations"):
        entries = br.verify_dirac_relations(op, layout, tol=1e-10, dirac=jd)
    with _timed(timings, "dirac_flow_check"):
        entries += br.dirac_flow_check(op, layout, tol=1e-12, rng=rng, dirac=jd)
    with _timed(timings, "generalized_hamiltonian_check"):
        entries += br.generalized_hamiltonian_check(op, layout, tol=1e-12, rng=rng)
    identities = [_identity(e["name"], e["violation"], e["tolerance"]) for e in entries]
    with _timed(timings, "jacobi_cyclic_residual"):
        jacobi = br.jacobi_cyclic_residual(jd, rng=rng)
    identities.append(_identity("jacobi_cyclic_sum", jacobi, 1e-12))

    # Pointwise density identity P = 2 hbar E on a random field state.
    with _timed(timings, "density_is_energy_density"):
        state = fd.FieldState(phi=rng.standard_normal(n), p=rng.standard_normal(n))
        p_dens, _ = cr.probability_and_phase(op, state)
        _, _, e_dens = fd.energy_densities(op, state)
        scale = float(np.max(p_dens))
        viol = float(np.max(np.abs(p_dens - 2.0 * op.hbar * e_dens))) / max(scale, 1e-300)
    identities.append(_identity("density_is_energy_density", viol, 1e-13))

    # Probability conservation along the exact flow over T = 10.
    with _timed(timings, "probability_conserved"):
        psi0 = sd.WaveFunction(re=rng.standard_normal(n), im=rng.standard_normal(n))
        base = 2.0 * op.hbar * sd.norm_hamiltonian(op, psi0)
        worst = 0.0
        for t in np.linspace(0.0, 10.0, 101):
            psi_t = sd.propagate_spectral(spec, psi0, float(t))
            total = 2.0 * op.hbar * sd.norm_hamiltonian(op, psi_t)
            worst = max(worst, abs(total - base) / base)
    identities.append(_identity("probability_conserved", worst, 1e-10))

    # Round trip: quantize(dequantize(psi, t)) equals the exact evolution.
    # Real-part kernel content is outside the image of the wave-potential map,
    # so it is projected out of the test states when zero modes exist.
    with _timed(timings, "reconstruction_round_trip"):
        kernel = cr.kernel_basis(spec)
        worst = 0.0
        for _ in range(10):
            re0 = rng.standard_normal(n)
            if kernel.count:
                coeffs = op.grid.dx * (kernel.modes.T @ re0)
                re0 = re0 - kernel.modes @ coeffs
            psi0 = sd.WaveFunction(re=re0, im=rng.standard_normal(n))
            t = float(rng.uniform(0.1, 5.0))
            back = cr.quantize(op, cr.dequantize(spec, psi0, t, tol=1e-10))
            ref = sd.propagate_spectral(spec, psi0, t)
            amp = max(float(np.max(np.abs(ref.re))), float(np.max(np.abs(ref.im))), 1e-300)
            worst = max(worst, _max_error((back.re, ref.re), (back.im, ref.im)) / amp)
    identities.append(
        _identity(
            "reconstruction_round_trip",
            worst,
            1e-10,
            note="real kernel content projected out" if kernel.count else None,
        )
    )

    # Commuting diagrams at the integrator's order. The state leans on the
    # stiffest modes (column 0 is the most negative kappa) so that with
    # dt = 0.25 * bound the top-mode phase advance per step is a fixed 0.7
    # and the RK4 error stays measurable above roundoff at any grid size.
    with _timed(timings, "commuting_diagrams"):
        phi0 = spec.synthesize(rng.standard_normal(n) / (1.0 + np.arange(n)) ** 2)
        p0 = spec.synthesize(rng.standard_normal(n) / (1.0 + np.arange(n)) ** 2)
        dt_cd = 0.25 * cn.rk4_stability_bound(op)
        order_w, order_f = _commuting_diagram_orders(op, spec, phi0, p0, dt_cd, 32)
    identities.append(
        _identity(
            "commuting_diagram_wave",
            abs(order_w - 4.0),
            0.4,
            note=f"measured order {order_w:.3f}",
        )
    )
    identities.append(
        _identity(
            "commuting_diagram_field",
            abs(order_f - 4.0),
            0.4,
            note=f"measured order {order_f:.3f}",
        )
    )

    # Current equation residual must decay under paired (dx, dt) halving.
    # Asserted only for potentials that are smooth and resolved on the grid:
    # at a potential jump the solution has a kink and the pointwise residual
    # legitimately diverges under refinement (the identity holds only in the
    # integrated sense there).
    v = scenario.potential.values
    v_range = float(np.max(v) - np.min(v))
    v_step = float(np.max(np.abs(np.diff(v)))) if n > 1 else 0.0
    smooth = v_range == 0.0 or v_step <= 0.25 * v_range
    with _timed(timings, "current_residual_decays"):
        decays = _verify_current_errors(scenario, levels=2)
    if any(np.isnan(d) for d in decays):
        identities.append(
            _identity(
                "current_residual_decays",
                0.0,
                1.0 / 2.5,
                note="measured only: grid too coarse for any interior residual point",
                asserted=False,
            )
        )
    else:
        factor = decays[0] / max(decays[1], 1e-300)
        note = f"decay factor {factor:.2f} per halving"
        if not smooth:
            note += (
                "; measured only: potential discontinuous or under-resolved "
                f"(max step {v_step:.3g} vs range {v_range:.3g})"
            )
        identities.append(
            _identity(
                "current_residual_decays",
                1.0 / max(factor, 1e-300),
                1.0 / 2.5,
                note=note,
                asserted=smooth,
            )
        )

    # Dynamical-sector nondegeneracy (measured only when zero modes exist).
    with _timed(timings, "sector_smallest_singular_values"):
        svals = br.sector_smallest_singular_values(jd, spec)
    has_kernel = len(spec.zero_modes) > 0
    identities.append(
        _identity(
            "dirac_sector_nondegenerate",
            0.0 if svals["varphi_p"] > 0.0 else 1.0,
            0.5,
            note=(
                f"smallest singular values: phi_p {svals['phi_p']:.6e}, "
                f"varphi_p {svals['varphi_p']:.6e}"
                + ("; measured, zero mode present" if has_kernel else "")
            ),
            asserted=not has_kernel,
        )
    )

    all_pass = all(e["passed"] for e in identities if e["asserted"])
    report = {
        "tool_version": __version__,
        "command": "verify",
        "seed": int(seed),
        "config": cfg.as_dict(),
        "identities": identities,
        "all_pass": bool(all_pass),
        "wall_time_s": time.perf_counter() - t0,
        "timings": timings,
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "verify_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if not quiet:
        for e in identities:
            flag = "PASS" if e["passed"] else "FAIL"
            print(f"{flag} {e['name']}: violation {e['violation']:.3e}")
        print(f"verify: {'all pass' if all_pass else 'FAILURES PRESENT'}")
    return report, all_pass


def _refine(cfg_n, boundary):
    return 2 * cfg_n + 1 if boundary == "dirichlet" else 2 * cfg_n


def _packet_probe_state(spec):
    """Traveling-packet probe with a node-free density and a linear phase.

    The field state is reconstructed from a Gaussian envelope times a plane
    wave, so its generated wave function has P = envelope^2 (no interior
    nodes) and S exactly linear in x at t = 0. Anything with phase structure
    in the envelope tails makes the residual's high-order derivatives blow
    up there and spoils refinement studies. Kernel content of the real part
    is projected out (the map's image excludes it), so periodic grids work
    too. Being a pure function of x, the state refines consistently.
    """
    x = spec.grid.points()
    span = x[-1] - x[0]
    center = x[0] + 0.5 * span
    # narrow enough that the tail density crosses the 1e-8 mask floor well
    # inside the domain, keeping boundary-reflection phase junk masked
    width = span / 12.0
    k0 = 4.0 * np.pi / span
    env = np.exp(-0.5 * ((x - center) / width) ** 2)
    re = env * np.cos(k0 * (x - center))
    im = env * np.sin(k0 * (x - center))
    basis = cr.kernel_basis(spec)
    if basis.count:
        re = re - basis.modes @ (spec.grid.dx * (basis.modes.T @ re))
    psi = sd.WaveFunction(re=re, im=im)
    return cr.dequantize(spec, psi, 0.0, tol=1e-8)


# Steps of the coarsest level of a current-residual refinement study.
_CURRENT_BASE_STEPS = 8


def _current_errors_for_state(scenario, levels, make_state, dt, base_steps=_CURRENT_BASE_STEPS):
    """Max interior current residual under paired (dx, dt) refinement.

    Level 0 is the scenario's own grid; each further level refines it and
    decomposes the refined operator. Levels whose mask leaves no valid
    interior point record NaN.
    """
    cfg = scenario.config
    op, spec = scenario.operator, scenario.spectrum
    errors = []
    n = cfg.grid_n
    for level in range(levels):
        if level > 0:
            n = _refine(n, cfg.boundary)
            grid = build_grid(n, cfg.x_min, cfg.x_max, cfg.boundary)
            potential = potential_from_spec(grid, cfg.potential, mass=cfg.mass)
            op = build_operator(grid, potential, hbar=cfg.hbar, mass=cfg.mass)
            spec = eigendecompose(op)
        s0 = make_state(spec)
        steps = base_steps * 2**level
        traj = fd.spectral_field_trajectory(spec, s0, dt / 2**level, steps)
        res = cr.current_residual(op, traj)
        if np.all(np.isnan(res)):
            errors.append(float("nan"))
        else:
            errors.append(float(np.nanmax(np.abs(res))))
    return errors


def _verify_current_errors(scenario, levels):
    """Current-residual decay under paired (dx, dt) halving.

    Runs on the internal envelope probe rather than the configured initial
    state: near density nodes the phase gradient degrades with resolution,
    so order measurement needs a node-free probe to say anything about the
    discretization itself.
    """
    return _current_errors_for_state(
        scenario, levels, _packet_probe_state, dt=min(scenario.config.dt, 0.02)
    )


def run_convergence(scenario, out_dir, levels=3, quiet=False):
    """Refinement studies for every integrator and identity, vs exact references."""
    if levels < 3:
        raise ConfigError("need at least 3 refinement levels")
    t0 = time.perf_counter()
    cfg = scenario.config
    op, spec = scenario.operator, scenario.spectrum
    re0, im0 = scenario.initial_pair

    lf_bound = fd.leapfrog_stability_bound(op)
    rk_bound = cn.rk4_stability_bound(op)
    base_dt = {
        "crank_nicolson": cfg.dt,
        "leapfrog": min(cfg.dt, 0.5 * lf_bound),
        "rk4": min(cfg.dt, 0.5 * rk_bound),
        "schrodinger_residual": cfg.dt,
        "constraint_drift": min(cfg.dt, 0.5 * rk_bound),
    }
    base_steps = {k: max(2, int(round(cfg.t_final / v))) for k, v in base_dt.items()}
    # Every study doubles its steps per level: refuse a finest level past the
    # budget before any output exists. The power is capped because 2^64 steps
    # are past the limit anyway, and a huge --levels must not build a huge int.
    coarsest = max(*base_steps.values(), _CURRENT_BASE_STEPS)
    if coarsest * 2 ** min(levels - 1, 64) > MAX_STEPS:
        raise ConfigError(
            f"{levels} refinement levels need {coarsest} * 2^{levels - 1} steps at the "
            f"finest level, over the limit of {MAX_STEPS} steps"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    errors = {}

    def record(study, level, h, err):
        rows.append((study, level, h, err))
        errors.setdefault(study, []).append((h, err))

    psi0 = sd.WaveFunction(re=re0, im=im0)
    s0 = fd.FieldState(phi=re0, p=im0)
    for level in range(levels):
        scale = 2**level

        dt = base_dt["crank_nicolson"] / scale
        steps = base_steps["crank_nicolson"] * scale
        traj = sd.crank_nicolson_trajectory(op, psi0, dt, steps)
        ref = sd.propagate_spectral(spec, psi0, steps * dt)
        err = _max_error((traj.re[-1], ref.re), (traj.im[-1], ref.im))
        record("crank_nicolson", level, dt, err)

        dt = base_dt["leapfrog"] / scale
        steps = base_steps["leapfrog"] * scale
        ftraj = fd.leapfrog_trajectory(op, s0, dt, steps)
        fref = fd.propagate_spectral_field(spec, s0, steps * dt)
        err = _max_error((ftraj.phi[-1], fref.phi), (ftraj.p[-1], fref.p))
        record("leapfrog", level, dt, err)

        dt = base_dt["rk4"] / scale
        steps = base_steps["rk4"] * scale
        ctraj = cn.rk4_trajectory(op, cn.make_onshell(op, re0, im0), dt, steps)
        cref = fd.propagate_spectral_field(spec, s0, steps * dt)
        err = _max_error((ctraj.phi[-1], cref.phi), (ctraj.p[-1], cref.p))
        record("rk4", level, dt, err)
        drift = float(np.max(np.abs(cn.constraint_residuals(op, ctraj)[0])))
        record("constraint_drift", level, dt, drift)

        dt = base_dt["schrodinger_residual"] / scale
        steps = base_steps["schrodinger_residual"] * scale
        s0_dq = cr.dequantize(spec, psi0, 0.0, tol=1e-8)
        ftraj = fd.spectral_field_trajectory(spec, s0_dq, dt, steps)
        wtraj = cr.quantize_trajectory(op, ftraj)
        r1, r2 = sd.schrodinger_residual(op, wtraj)
        record(
            "schrodinger_residual",
            level,
            dt,
            max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))),
        )

    for level, err in enumerate(_verify_current_errors(scenario, levels)):
        h = cfg.dt / 2**level
        record("current_residual", level, h, err)

    # study is a string column; formatted by hand, floats stay round-trip exact
    lines = ["study,level,h,error"]
    for study, level, h, err in rows:
        lines.append(f"{study},{level},{format_float(h)},{format_float(err)}")
    (out_dir / "convergence.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    orders = {}
    for study, pts in errors.items():
        h = np.array([p[0] for p in pts])
        e = np.array([max(p[1], 1e-300) for p in pts])
        valid = np.isfinite(e)
        if valid.sum() < 2:
            orders[study] = None  # not measurable at this grid size
            continue
        orders[study] = float(np.polyfit(np.log(h[valid]), np.log(e[valid]), 1)[0])
    (out_dir / "orders.json").write_text(
        json.dumps(orders, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    manifest = write_manifest(
        out_dir, "convergence", cfg.as_dict(), time.perf_counter() - t0, {}, extra={"orders": orders}
    )
    if not quiet:
        for study in sorted(orders):
            shown = "not measurable" if orders[study] is None else f"{orders[study]:.2f}"
            print(f"convergence {study}: measured order {shown}")
    return manifest

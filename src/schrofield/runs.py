"""Run orchestration: time series, snapshots, manifests, verification.

All numeric output is CSV with a header row and shortest round-trip float
formatting, so identical configs produce byte-identical files. Every command
but `verify` (which writes its report itself) writes through one run
directory (`_RunDir`), whose manifest isolates the only non-reproducible
quantity (wall time) in a single field and carries a sha256 inventory of
exactly the files the command wrote.
"""

import bisect
import hashlib
import json
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import brackets as br
from . import constrained as cn
from . import correspondence as cr
from . import field as fd
from . import schrodinger as sd
from .config import MAX_DENSE_N, MAX_STEPS, assemble
from .errors import ConfigError, EllipticObstructionError
from .lattice import eigendecompose, solve_elliptic, stencil_product, zero_mode_count


# write_csv formats at most about this many cells at a time, so that its
# strings stay a bounded size whatever the number of rows: 256 rows of a
# six-column snapshot. Formatting a whole n=20,000 snapshot at once raised a
# Crank-Nicolson run's peak RSS from 43.2 to 51.4 MB. At n=800, chunks of 64
# and of 1024 rows formatted 8% and 14% slower than chunks of 256.
_CSV_CELLS = 1536


def _x_column(op):
    """The grid's x column as CSV cells, formatted once per command for all its tables.

    Every snapshot of a run starts with the same x column, a sixth of the
    cells of a six-column snapshot. The cells take about 75 bytes a row.
    """
    return list(map(str, op.grid.points().tolist()))


def _width(column):
    """Cells per row of a column: a 2-D array stands for its columns."""
    return column.shape[1] if getattr(column, "ndim", 1) == 2 else 1


def _cells(column, start, stop):
    """The cells of rows start, ..., stop - 1 of a column, as strings.

    A 2-D array is a group of columns; each row's cells come pre-joined.
    """
    part = column[start:stop]
    if isinstance(part, np.ndarray):
        if part.ndim == 2:
            return [",".join(map(str, row)) for row in part.tolist()]
        part = part.tolist()
    return map(str, part)


def write_csv(path, header, columns):
    """Write the header row, then the rows of `columns`, a chunk of rows at a time.

    Each column is a 1-D array or sequence, or a 2-D array standing for its
    columns; all have the same number of rows. A chunk holds about
    _CSV_CELLS cells and is formatted column by column. Cells are written as
    str writes them: a float as repr does, the shortest decimal that
    round-trips; ints and strings as they are, so a list of strings is a
    column formatted ahead of time.
    """
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError(f"columns of {[len(c) for c in columns]} rows for one table")
    chunk = max(1, _CSV_CELLS // sum(map(_width, columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, chunk):
            cells = [_cells(c, start, start + chunk) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, obj):
    """Indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sha256(path):
    """sha256 of a file, read a block at a time so that memory does not grow with the file."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir, names, command, cfg_dict, wall_time, drift, extra=None):
    """manifest.json listing the files `names` of out_dir, sorted, with size and sha256."""
    out_dir = Path(out_dir)
    files = [
        {"path": name, "bytes": (out_dir / name).stat().st_size, "sha256": _sha256(out_dir / name)}
        for name in sorted(names)
    ]
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
    write_json(out_dir / "manifest.json", manifest)
    return manifest


class _RunDir:
    """The --out directory of one command and the files the command writes there.

    Made on construction. `csv` and `json` write a file and record its name;
    `close` writes manifest.json over exactly the recorded names, so a file
    the directory held before the command is never listed, and prints the
    summary unless quiet. `started` is the command's perf_counter start.
    """

    def __init__(self, out_dir, command, cfg, started, quiet):
        self._path = Path(out_dir)
        self._path.mkdir(parents=True, exist_ok=True)
        self._command, self._cfg, self._started, self._quiet = command, cfg, started, quiet
        self._names = []

    def csv(self, name, header, columns):
        write_csv(self._path / name, header, columns)
        self._names.append(name)

    def json(self, name, obj):
        write_json(self._path / name, obj)
        self._names.append(name)

    def close(self, drift, summary, extra=None):
        """Write manifest.json, print `summary` unless quiet, return the manifest."""
        wall_time = time.perf_counter() - self._started
        manifest = write_manifest(
            self._path, self._names, self._command, self._cfg.as_dict(), wall_time, drift, extra
        )
        if not self._quiet:
            print(summary)
        return manifest


def _write_snapshot(run, step, x, hbar, fields, re, im, observables):
    """snapshot_<step>.csv: x, the picture's fields, then the selected P, S, E.

    x is the grid's `_x_column`, made once per command. P, S and E are
    read off the wave function Psi = re + i im: P = |Psi|^2, S = hbar arg(Psi)
    and E = P / 2 hbar.
    """
    p_dens, phase = cr._density_and_phase(hbar, re, im)
    extras = {"P": p_dens, "S": phase, "E": 0.5 * p_dens / hbar}
    names, columns = zip(("x", x), *fields, *((k, extras[k]) for k in observables))
    run.csv(f"snapshot_{step:06d}.csv", names, columns)


def _inf_norm(a):
    return float(np.max(np.abs(a)))


def _max_error(*pairs):
    """Largest |a - b| over the (a, b) array pairs."""
    return max(_inf_norm(a - b) for a, b in pairs)


def _steps(cfg):
    nsteps = int(round(cfg.t_final / cfg.dt))
    return max(nsteps, 1)


def _snapshot_steps(nsteps, stride):
    chosen = {0, nsteps}
    if stride > 0:
        chosen.update(range(0, nsteps + 1, stride))
    return chosen


def _spread(values):
    return float(np.max(np.abs(values - values[0])))


def _peak(values):
    return float(np.max(values))


@dataclass(frozen=True)
class _Picture:
    """What one picture supplies to the shared run loop `_run`.

    The loop holds each state as one stacked float array `y` of shape (m, n),
    and its stepper steps a block of them into one (B, m, n) buffer. Next to
    the states it keeps `ky`: the stencil products of each state that its
    series row and its snapshot read. `row` reads its fields as y[i] and
    ky[i], so it takes a block's states and products component-major,
    (m, B, n); `fields` and `wave` take one state and its products.
    """

    command: str
    system: str
    # integrator -> (scenario, y0, products) -> stepper, products being this
    # picture's bound to the operator. stepper.steps(ys, ky): ys[0] is the
    # current state and ky its products; writes the next states into ys[1:]
    # and returns their products, from its own steps where they compute them
    # anyway (Crank-Nicolson and leapfrog), else one product of the block
    steppers: dict
    # scenario -> y0, the initial state
    initial: Callable
    # (op, ys) -> the products of the states ys, one row each
    products: Callable
    columns: tuple
    # (op, t, y, ky) -> the series columns in `columns` order, one value per
    # state of the block
    row: Callable
    # (column, label) of the quantity the blow-up guard watches
    guard: tuple
    # y -> ((name, values), ...): the fields a snapshot writes after x, in the
    # order a non-finite field is looked for
    fields: Callable
    # (y, ky) -> (re, im) of the wave function Psi the snapshot's P, S, E are read off
    wave: Callable
    # (manifest key, column, reduction of that column over the run)
    drift: tuple
    # (label, drift key) shown in the stdout summary
    summary: tuple


class _ExactFlow:
    """Stepper of an exact flow: its state k is flow(k dt), evaluated, not stepped.

    Counts its steps, so each `steps` call goes on where the last one stopped.
    """

    def __init__(self, flow, dt, products):
        self._flow, self._dt, self._products, self._k = flow, dt, products, 0

    def steps(self, ys, ky):
        for j in range(1, len(ys)):
            ys[j] = self._flow((self._k + j) * self._dt)
        self._k += len(ys) - 1
        return self._products(ys[1:])


def _stepper(cls):
    """A `steppers` entry that builds the stepper class `cls` from (op, dt)."""
    return lambda scenario, y0, products: cls(scenario.operator, scenario.config.dt)


def _exact(flow):
    """A `steppers` entry that builds the `_ExactFlow` of flow(scenario, y0): t -> y."""
    return lambda scenario, y0, products: _ExactFlow(
        flow(scenario, y0), scenario.config.dt, products
    )


# A block of the run loop holds at most this many steps, and at most this
# many bytes of states, so its buffers stay linear in n.
_BLOCK_STEPS = 64
_BLOCK_BYTES = 1 << 20


def _checked_rows(picture, op, times, ys, ky, first):
    """Series rows of the block of states ys at `times`, given their products ky.

    Checks every step at once and raises for the first that fails, as a
    step-by-step loop would. A non-finite state raises a ValueError naming its
    first non-finite field; a non-finite row value (a finite state can still
    overflow its row), or a guarded value over ten times its size in `first`,
    the run's first row (None for the block that holds it), aborts the run.
    """
    rows = np.column_stack(
        picture.row(op, np.asarray(times), ys.swapaxes(0, 1), ky.swapaxes(0, 1))
    )
    first = rows[0] if first is None else first
    guard, what = picture.guard
    finite, state_ok = np.isfinite(rows), np.isfinite(ys).all(axis=(1, 2))
    grown = np.abs(rows[:, guard]) > 10.0 * abs(first[guard]) + 1e-12
    bad = ~state_ok | ~finite.all(axis=1) | grown
    if bad.any():
        j = int(np.argmax(bad))
        if not state_ok[j]:
            name = next(name for name, f in picture.fields(ys[j]) if not np.isfinite(f).all())
            raise ValueError(f"{name} must be finite")
        row, c = rows[j].tolist(), int(np.argmin(finite[j]))
        message = (
            f"{picture.columns[c]} is {row[c]!r} at t={times[j]!r}"
            if not finite[j, c]
            else f"{what} grew to {row[guard]!r} from {float(first[guard])!r}"
        )
        raise RuntimeError(f"instability: {message}; aborting run")
    return rows


def _run(picture, scenario, out_dir, quiet):
    """Step a scenario, writing series, snapshots and a manifest.

    The states are stepped in blocks into one buffer. A block ends at each
    snapshot step and after at most `_BLOCK_STEPS` steps (fewer where n is
    large, see `_BLOCK_BYTES`); the initial state is a block of its own. The
    block's series rows, their checks and its snapshot are done once, after
    its last step. The first failing step raises as a step-by-step loop
    would, and leaves behind the same files.
    """
    cfg, op = scenario.config, scenario.operator
    if cfg.integrator not in picture.steppers:
        raise ConfigError(
            f"integrator {cfg.integrator!r} does not apply to the {picture.system} system"
        )
    t0 = time.perf_counter()
    y0 = picture.initial(scenario)
    products = partial(picture.products, op)
    stepper = picture.steppers[cfg.integrator](scenario, y0, products)
    nsteps = _steps(cfg)
    snaps = _snapshot_steps(nsteps, cfg.snapshot_stride)
    stops = sorted(snaps)
    run = _RunDir(out_dir, picture.command, cfg, t0, quiet)

    x = _x_column(op)
    block = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // y0.nbytes))
    # ys[0] holds the last state of the previous block, ys[1:] the next block's.
    ys = np.empty((block + 1,) + y0.shape)
    ys[0] = y0
    series = np.empty((nsteps + 1, len(picture.columns)))
    # Steppers accumulate time step by step; the exact propagators evaluate it.
    exact = cfg.integrator == "spectral"
    t = 0.0
    k, times, states, ky = 0, [t], ys[:1], products(ys[:1])
    # Overflow is reported by _checked_rows as a non-finite state or row.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            first = series[0] if k > 0 else None
            series[k + 1 - len(times) : k + 1] = _checked_rows(picture, op, times, states, ky, first)
            if k in snaps:
                wave = picture.wave(states[-1], ky[-1])
                fields = picture.fields(states[-1])
                _write_snapshot(run, k, x, op.hbar, fields, *wave, cfg.observables)
            if k == nsteps:
                break
            ys[0] = states[-1]
            end = min(stops[bisect.bisect_right(stops, k)], k + block)
            ky = stepper.steps(ys[: end - k + 1], ky[-1])
            times = []
            for step in range(k + 1, end + 1):
                t = step * cfg.dt if exact else t + cfg.dt
                times.append(t)
            k, states = end, ys[1 : end - k + 1]
    run.csv("series.csv", picture.columns, series.T)
    drift = {key: reduce(series[:, col]) for key, col, reduce in picture.drift}
    label, key = picture.summary
    return run.close(drift, f"{picture.command}: {nsteps} steps, {label} {drift[key]:.3e}")


def _wave_row(op, t, y, ky):
    norm = sd._norm(op, y[0], y[1])
    return (t, norm, sd._energy(op, y, ky), 2.0 * op.hbar * norm)


# ky is K (re, im), which the next Crank-Nicolson step reads too.
_WAVE = _Picture(
    command="run-schrodinger",
    system="wave",
    steppers={
        "crank_nicolson": _stepper(sd.CrankNicolson),
        "spectral": _exact(lambda scenario, y0: sd._flow(scenario.spectrum, *y0)),
    },
    initial=lambda scenario: np.stack(scenario.initial_pair),
    products=stencil_product,
    columns=("t", "norm", "hamiltonian", "total_probability"),
    row=_wave_row,
    # The wave Hamiltonian has no fixed sign and can start near 0; the norm
    # is positive and conserved by both wave integrators.
    guard=(1, "norm"),
    fields=lambda y: (("re", y[0]), ("im", y[1])),
    wave=lambda y, ky: y,
    drift=(("norm_drift", 1, _spread), ("hamiltonian_drift", 2, _spread)),
    summary=("norm drift", "norm_drift"),
)


def _field_row(op, t, y, ky):
    norm = sd._norm(op, *cr._wave(ky[0], y[1]))
    return (t, norm, fd._energy(op, y[1], ky[0]), 2.0 * op.hbar * norm)


# ky is (K phi,); leapfrog forms its first opening kick's K^2 phi from it.
_FIELD = _Picture(
    command="run-field",
    system="field",
    steppers={
        "leapfrog": _stepper(fd.Leapfrog),
        "spectral": _exact(lambda scenario, y0: fd._flow(scenario.spectrum, *y0)),
    },
    initial=_WAVE.initial,
    products=lambda op, ys: stencil_product(op, ys[:, :1]),
    columns=("t", "norm", "hamiltonian", "total_probability"),
    row=_field_row,
    guard=(2, "field hamiltonian"),
    fields=lambda y: (("phi", y[0]), ("p", y[1])),
    wave=lambda y, ky: cr._wave(ky[0], y[1]),
    drift=(("norm_drift", 1, _spread), ("hamiltonian_drift", 2, _spread)),
    summary=("energy drift", "hamiltonian_drift"),
)


def _constrained_initial(scenario):
    s0 = cn.make_onshell(scenario.operator, *scenario.initial_pair)
    return np.stack([s0.phi, s0.p, s0.varphi])


def _constrained_flow(scenario, y0):
    """The field flow of (phi, p), with varphi on the constraint surface."""
    op, field = scenario.operator, fd._flow(scenario.spectrum, *y0[:2])

    def flow(t):
        phi, p = field(t)
        return phi, p, cn._onshell_varphi(stencil_product(op, phi))

    return flow


def _constrained_row(op, t, y, ky):
    _, p, varphi = y
    pi = np.zeros_like(p)
    norm = sd._norm(op, varphi, p)
    return (
        t,
        norm,
        cn._hamiltonian(op, y, ky, pi),
        np.abs(cn._c1(varphi, ky[0])).max(axis=-1),
        np.abs(pi).max(axis=-1),
        2.0 * op.hbar * norm,
    )


# y is (phi, p, varphi) on shell, with pi = 0; ky is K (phi, p).
_CONSTRAINED = _Picture(
    command="run-constrained",
    system="constrained",
    steppers={"rk4": _stepper(cn.Rk4), "spectral": _exact(_constrained_flow)},
    initial=_constrained_initial,
    products=lambda op, ys: stencil_product(op, ys[:, :2]),
    columns=("t", "norm", "hamiltonian", "c1_inf", "c2_inf", "total_probability"),
    row=_constrained_row,
    guard=(2, "constrained hamiltonian"),
    fields=lambda y: (*_FIELD.fields(y), ("varphi", y[2]), ("pi", np.zeros_like(y[0]))),
    wave=_FIELD.wave,
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


@contextmanager
def _refusing_kernel_content(command):
    """Turn the obstruction of K C = -re(psi0) into a ConfigError, raised before --out exists."""
    try:
        yield
    except EllipticObstructionError as exc:
        raise ConfigError(f"{command} needs an initial real part in the range of K: {exc}") from exc


def run_dequantize(scenario, out_dir, quiet=False):
    """Reconstruct the potential field from a wave initial state over time."""
    t0 = time.perf_counter()
    cfg = scenario.config
    op, spec = scenario.operator, scenario.spectrum
    psi0 = sd.WaveFunction(*scenario.initial_pair)
    nsteps = _steps(cfg)
    snaps = sorted(_snapshot_steps(nsteps, cfg.snapshot_stride))
    with _refusing_kernel_content("dequantize"):
        c_const = solve_elliptic(spec, -psi0.re, tol=1e-10)
    run = _RunDir(out_dir, "dequantize", cfg, t0, quiet)
    x = _x_column(op)
    run.csv("integration_constant.csv", ["x", "C"], [x, c_const])
    basis = cr.kernel_basis(spec)

    # cr.dequantize at t is the field flow from (C, im) at t, with C solved once here.
    field, wave = fd._flow(spec, c_const, psi0.im), sd._flow(spec, psi0.re, psi0.im)
    rows = []
    for k in snaps:
        t = k * cfg.dt
        phi, p = field(t)
        back = cr._wave(stencil_product(op, phi), p)
        rows.append((t, _max_error(*zip(back, wave(t)))))
        _write_snapshot(run, k, x, op.hbar, (("phi", phi), ("p", p)), *back, cfg.observables)
    arr = np.asarray(rows)
    run.csv("series.csv", ["t", "roundtrip_error"], arr.T)
    drift = {"roundtrip_error_max": float(np.max(arr[:, 1]))}
    return run.close(
        drift,
        f"dequantize: {len(snaps)} reconstructions, worst round trip "
        f"{drift['roundtrip_error_max']:.3e}",
        extra={"kernel": {"modes": basis.count, "tolerance": basis.tolerance}},
    )


def run_spectrum(scenario, out_dir, quiet=False):
    """Dump eigenvalues and eigenvectors of the scenario operator."""
    t0 = time.perf_counter()
    cfg = scenario.config
    op, spec = scenario.operator, scenario.spectrum
    run = _RunDir(out_dir, "spectrum", cfg, t0, quiet)
    kappa = spec.eigenvalues
    run.csv("eigenvalues.csv", ["index", "kappa", "energy"], [range(op.n), kappa, -kappa])
    header = ["x"] + [f"mode_{i:04d}" for i in range(op.n)]
    run.csv("eigenvectors.csv", header, [op.grid.points(), spec.vectors])
    extra = {"zero_modes": list(spec.zero_modes), "zero_mode_tolerance": spec.zero_mode_tolerance}
    summary = f"spectrum: {op.n} modes, {len(spec.zero_modes)} zero modes"
    return run.close({}, summary, extra=extra)


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


def _commuting_diagram_orders(op, spec, phi0, p0, dt, nsteps):
    """Measured convergence order of both reduction-vs-evolution diagrams."""
    s0 = cn.make_onshell(op, phi0, p0)
    # Every level ends at (nsteps 2^l) (dt / 2^l), which rounds to nsteps dt.
    ref_w = sd.propagate_spectral(spec, cn.reduce_to_wave(op, s0), nsteps * dt)
    ref_f = fd.propagate_spectral_field(spec, cn.reduce_to_field(op, s0), nsteps * dt)
    errs = []
    for level in range(3):
        d = dt / 2**level
        steps = nsteps * 2**level
        traj = cn.rk4_trajectory(op, s0, d, steps)
        end = cn.ConstrainedState(
            phi=traj.phi[-1], p=traj.p[-1], varphi=traj.varphi[-1], pi=traj.pi[-1]
        )
        got_w, got_f = cn.reduce_to_wave(op, end), cn.reduce_to_field(op, end)
        errs.append(
            (
                _max_error((got_w.re, ref_w.re), (got_w.im, ref_w.im)),
                _max_error((got_f.phi, ref_f.phi), (got_f.p, ref_f.p)),
            )
        )
    errs = np.array(errs)
    return tuple(float(order) for order in np.mean(np.log2(errs[:-1] / errs[1:]), axis=0))


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
    _check_refined_grids(cfg, _VERIFY_CURRENT_LEVELS)
    op, spec = scenario.operator, scenario.spectrum
    n = op.n

    with _timed(timings, "dirac_structure"):
        jd = br.dirac_structure(op)
    with _timed(timings, "verify_dirac_relations"):
        entries = br.verify_dirac_relations(jd, tol=1e-10)
    with _timed(timings, "dirac_flow_check"):
        entries += br.dirac_flow_check(jd, tol=1e-12, rng=rng)
    with _timed(timings, "generalized_hamiltonian_check"):
        entries += br.generalized_hamiltonian_check(op, tol=1e-12, rng=rng)
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
        flow = sd._flow(spec, psi0.re, psi0.im)
        worst = 0.0
        for t in np.linspace(0.0, 10.0, 101):
            total = 2.0 * op.hbar * sd._norm(op, *flow(float(t)))
            worst = max(worst, abs(total - base) / base)
    identities.append(_identity("probability_conserved", worst, 1e-10))

    # Round trip: quantize(dequantize(psi, t)) equals the exact evolution.
    # Real-part kernel content is outside the image of the wave-potential map,
    # so it is projected out of the test states when zero modes exist. Each
    # relative error is divided by max(1, its roundoff bound / tolerance):
    # dequantize divides by kappa (error ~ eps cond K) and quantize applies K
    # to the zero modes' linear drift (error ~ eps max|kappa| t / hbar).
    with _timed(timings, "reconstruction_round_trip"):
        kernel = cr.kernel_basis(spec)
        kappa = np.abs(spec.eigenvalues)
        live = np.delete(kappa, spec.zero_modes)
        cond = float(live.max() / live.min())
        worst = 0.0
        for _ in range(10):
            re0 = _without_kernel(kernel, op.grid.dx, rng.standard_normal(n))
            psi0 = sd.WaveFunction(re=re0, im=rng.standard_normal(n))
            t = float(rng.uniform(0.1, 5.0))
            back = cr.quantize(op, cr.dequantize(spec, psi0, t, tol=1e-10))
            ref = sd.propagate_spectral(spec, psi0, t)
            amp = max(float(np.max(np.abs(ref.re))), float(np.max(np.abs(ref.im))), 1e-300)
            bound = 64 * np.finfo(float).eps * (cond + float(kappa.max()) * t / op.hbar)
            err = _max_error((back.re, ref.re), (back.im, ref.im)) / amp
            worst = max(worst, err / max(1.0, bound / 1e-10))
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
        orders = _commuting_diagram_orders(op, spec, phi0, p0, dt_cd, 32)
    for picture, order in zip(("wave", "field"), orders):
        name, note = f"commuting_diagram_{picture}", f"measured order {order:.3f}"
        identities.append(_identity(name, abs(order - 4.0), 0.4, note=note))

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
        decays = _current_errors(scenario, levels=_VERIFY_CURRENT_LEVELS)
    if any(np.isnan(d) for d in decays):
        violation, asserted = 0.0, False
        note = "measured only: " + (
            "an inline potential has no values on a refined grid"
            if cfg.potential["name"] == "inline"
            else "grid too coarse for any interior residual point"
        )
    else:
        factor = decays[0] / max(decays[1], 1e-300)
        violation, asserted = 1.0 / max(factor, 1e-300), smooth
        note = f"decay factor {factor:.2f} per halving"
        if not smooth:
            note += (
                "; measured only: potential discontinuous or under-resolved "
                f"(max step {v_step:.3g} vs range {v_range:.3g})"
            )
    identities.append(
        _identity("current_residual_decays", violation, 1.0 / 2.5, note=note, asserted=asserted)
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
        write_json(out_dir / "verify_report.json", report)
    if not quiet:
        for e in identities:
            flag = "PASS" if e["passed"] else "FAIL"
            print(f"{flag} {e['name']}: violation {e['violation']:.3e}")
        print(f"verify: {'all pass' if all_pass else 'FAILURES PRESENT'}")
    return report, all_pass


def _refine(cfg_n, boundary):
    return 2 * cfg_n + 1 if boundary == "dirichlet" else 2 * cfg_n


def _without_kernel(basis, dx, f):
    """f with its content along the kernel basis projected out."""
    if not basis.count:
        return f
    return f - basis.modes @ (dx * (basis.modes.T @ f))


def _packet_probe_state(grid, kernel):
    """Traveling-packet probe with a node-free density and a linear phase.

    The wave function Psi_0 = re_0' + i im_0, a Gaussian envelope times a
    plane wave, so P = envelope^2 (no interior nodes) and S is exactly linear
    in x at t = 0. Anything with phase structure in the envelope tails makes
    the residual's high-order derivatives blow up there and spoils refinement
    studies. `kernel` is the kernel basis of K on `grid`, which may be empty,
    or None when K has no zero modes; the kernel content of the real part is
    projected out (the map's image excludes it), so periodic grids work too.
    The field state that generates Psi_0 is (C, im_0) with K C = -re_0', so
    it needs no solve: its K phi is -re_0'. Being a pure function of x, the
    state refines consistently.
    """
    x = grid.points()
    span = x[-1] - x[0]
    center = x[0] + 0.5 * span
    # narrow enough that the tail density crosses the 1e-8 mask floor well
    # inside the domain, keeping boundary-reflection phase junk masked
    width = span / 12.0
    k0 = 4.0 * np.pi / span
    env = np.exp(-0.5 * ((x - center) / width) ** 2)
    re = env * np.cos(k0 * (x - center))
    im = env * np.sin(k0 * (x - center))
    if kernel is not None:
        re = _without_kernel(kernel, grid.dx, re)
    return sd.WaveFunction(re=re, im=im)


# Steps of the coarsest level of a current-residual refinement study.
_CURRENT_BASE_STEPS = 8
# Levels of verify's current-residual study: the scenario's grid and one refinement.
_VERIFY_CURRENT_LEVELS = 2


def _check_refined_grids(cfg, levels):
    """Refuse a current-residual study whose finest refined grid is past MAX_DENSE_N.

    This runs before any study and any output. Refining stops past the
    limit: a huge `levels` builds no huge int. An inline potential is
    measured on its own grid only. A level takes the dense path, a dense K
    and its `eigh`, only when K has zero modes or when the Chebyshev series of
    `sd._chebyshev_flow` would cost more (`sd._chebyshev_is_cheaper`), so the
    limit bounds each level's cost by that of a dense spectrum at MAX_DENSE_N.
    A series that is cheaper still grows with the grid, so lifting the limit
    for grids without zero modes waits for a preflight of its term count.
    """
    if cfg.potential["name"] == "inline":
        return
    n = cfg.grid_n
    for _ in range(levels - 1):
        n = _refine(n, cfg.boundary)
        if n > MAX_DENSE_N:
            raise ConfigError(
                f"{levels} refinement levels refine the {cfg.grid_n}-point grid past "
                f"the limit of {MAX_DENSE_N} points for a dense spectrum"
            )


def _current_errors(scenario, levels):
    """Max interior current residual per level of paired (dx, dt) halving.

    Runs on the envelope probe `_packet_probe_state` rather than the
    configured initial state: near density nodes the phase gradient degrades
    with resolution, so order measurement needs a node-free probe to say
    anything about the discretization itself. Level 0 is the scenario's own
    grid and each further level refines it. The field flow from the probe's
    state (C, im_0) has (K phi(t), p(t)) = (-re(t), im(t)) of the wave flow
    exp(i K t / hbar) Psi_0, evaluated at all sample times at once. A level
    runs it from its operator alone, by `sd._chebyshev_flow`, unless the
    series would cost more than the dense path (`sd._chebyshev_is_cheaper`:
    a stiff potential, or a small mass, can need far more terms than n); the
    level then evolves by the dense `sd._flow`. A level decomposes K on that
    path, or when K has zero modes (`zero_mode_count`), for the kernel basis;
    at level 0 the decomposition is the scenario's spectrum. A level whose
    mask leaves no valid interior point records NaN, and so does every
    refined level of an inline potential, which has values on the configured
    grid only.
    """
    cfg = scenario.config
    op = scenario.operator
    dt = min(cfg.dt, 0.02)
    measured = 1 if cfg.potential["name"] == "inline" else levels
    errors = []
    n = cfg.grid_n
    for level in range(measured):
        if level > 0:
            n = _refine(n, cfg.boundary)
            op = assemble(cfg, n)[2]
        times = (dt / 2**level) * np.arange(_CURRENT_BASE_STEPS * 2**level + 1)
        series = sd._chebyshev_is_cheaper(op, times)
        spec = None
        if not series or zero_mode_count(op):
            spec = scenario.spectrum if level == 0 else eigendecompose(op)
        psi = _packet_probe_state(op.grid, None if spec is None else cr.kernel_basis(spec))
        flow = sd._chebyshev_flow(op, psi.re, psi.im) if series else sd._flow(spec, psi.re, psi.im)
        y = flow(times)
        res = cr._current_residual(op, times, -y[:, 0], y[:, 1])
        if np.all(np.isnan(res)):
            errors.append(float("nan"))
        else:
            errors.append(float(np.nanmax(np.abs(res))))
    return errors + [float("nan")] * (levels - measured)


def _study_steps(cfg, dt):
    """Steps of a convergence study's coarsest level: t_final in steps of dt, at least 2."""
    return max(2, int(round(cfg.t_final / dt)))


def run_convergence(scenario, out_dir, levels=3, quiet=False):
    """Refinement studies for every integrator and identity, vs exact references."""
    if levels < 3:
        raise ConfigError("need at least 3 refinement levels")
    t0 = time.perf_counter()
    cfg, op = scenario.config, scenario.operator
    re0, im0 = scenario.initial_pair

    lf_dt = min(cfg.dt, 0.5 * fd.leapfrog_stability_bound(op))
    rk_dt = min(cfg.dt, 0.5 * cn.rk4_stability_bound(op))
    # Every study doubles its steps per level: refuse a finest level past the
    # budget before any output exists. The power is capped because 2^64 steps
    # are past the limit anyway, and a huge --levels must not build a huge int.
    coarsest = max(*(_study_steps(cfg, dt) for dt in (cfg.dt, lf_dt, rk_dt)), _CURRENT_BASE_STEPS)
    if coarsest * 2 ** min(levels - 1, 64) > MAX_STEPS:
        raise ConfigError(
            f"{levels} refinement levels need {coarsest} * 2^{levels - 1} steps at the "
            f"finest level, over the limit of {MAX_STEPS} steps"
        )
    _check_refined_grids(cfg, levels)
    spec, psi0 = scenario.spectrum, sd.WaveFunction(re=re0, im=im0)
    with _refusing_kernel_content("convergence"):
        s0_dq = cr.dequantize(spec, psi0, 0.0, tol=1e-8)
    run = _RunDir(out_dir, "convergence", cfg, t0, quiet)

    s0, onshell = fd.FieldState(phi=re0, p=im0), cn.make_onshell(op, re0, im0)
    wave, field = sd._flow(spec, re0, im0), fd._flow(spec, re0, im0)

    def end_error(flow, dt):
        # Every level ends at (steps 2^l) (dt / 2^l), which rounds to steps dt.
        ref = flow(_study_steps(cfg, dt) * dt)
        return lambda *fields: _max_error(*((f[-1], r) for f, r in zip(fields, ref)))

    cn_error, lf_error = end_error(wave, cfg.dt), end_error(field, lf_dt)
    rk_error = end_error(field, rk_dt)
    # (base dt, (dt, steps) -> trajectory, trajectory -> {study: error}), in
    # the order of each level's rows in convergence.csv
    studies = (
        (cfg.dt, lambda dt, k: sd.crank_nicolson_trajectory(op, psi0, dt, k),
         lambda tr: {"crank_nicolson": cn_error(tr.re, tr.im)}),
        (lf_dt, lambda dt, k: fd.leapfrog_trajectory(op, s0, dt, k),
         lambda tr: {"leapfrog": lf_error(tr.phi, tr.p)}),
        (rk_dt, lambda dt, k: cn.rk4_trajectory(op, onshell, dt, k),
         lambda tr: {"rk4": rk_error(tr.phi, tr.p),
                     "constraint_drift": _inf_norm(cn.constraint_residuals(op, tr)[0])}),
        (cfg.dt, lambda dt, k: fd.spectral_field_trajectory(spec, s0_dq, dt, k),
         lambda tr: {"schrodinger_residual": max(
             map(_inf_norm, sd.schrodinger_residual(op, cr.quantize_trajectory(op, tr))))}),
    )
    rows = []
    for level in range(levels):
        for base_dt, trajectory, measure in studies:
            dt = base_dt / 2**level
            measured = measure(trajectory(dt, _study_steps(cfg, base_dt) * 2**level))
            rows += [(study, level, dt, err) for study, err in measured.items()]
    for level, err in enumerate(_current_errors(scenario, levels)):
        rows.append(("current_residual", level, cfg.dt / 2**level, err))
    errors = {}
    for study, _, h, err in rows:
        errors.setdefault(study, []).append((h, err))

    run.csv("convergence.csv", ["study", "level", "h", "error"], list(zip(*rows)))

    orders = {}
    for study, pts in errors.items():
        h = np.array([p[0] for p in pts])
        e = np.array([max(p[1], 1e-300) for p in pts])
        valid = np.isfinite(e)
        if valid.sum() < 2:
            orders[study] = None  # fewer than two finite levels: not measurable
            continue
        orders[study] = float(np.polyfit(np.log(h[valid]), np.log(e[valid]), 1)[0])
    run.json("orders.json", orders)
    summary = "\n".join(
        f"convergence {study}: measured order "
        + ("not measurable" if orders[study] is None else f"{orders[study]:.2f}")
        for study in sorted(orders)
    )
    return run.close({}, summary, extra={"orders": orders})

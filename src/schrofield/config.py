"""Scenario configuration: JSON parsing, validation, and scenario assembly.

Unknown keys are hard errors at every level: silently ignoring a misspelled
physics parameter is how wrong numbers get published. Stability of the
configured time step is validated against the actual operator spectrum
before any run starts.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constrained import rk4_stability_bound
from .errors import ConfigError
from .field import leapfrog_stability_bound
from .lattice import DIRICHLET, build_grid, build_operator, eigendecompose, eigenpairs
from .presets import (
    POTENTIAL_PRESETS,
    STATE_PRESETS,
    as_finite,
    as_integer,
    initial_pair_from_spec,
    potential_from_spec,
)

INTEGRATORS = ("crank_nicolson", "leapfrog", "rk4", "spectral")
# Largest t_final / dt a run may take; ample for any study, and it keeps a tiny
# dt from asking for an endless loop (or a step set of that size) up front.
MAX_STEPS = 10**7
# Largest grid a current-residual study may decompose densely: `verify`'s refined
# grid at n = 3200. Its K and spectrum take 24 n^2 bytes, 0.98 GB at this n.
MAX_DENSE_N = 6401
# `lattice.eigenpairs` costs about 20 to 60 O(n) passes of one reduction for
# all its modes, or about 64 O(n) Sturm counts per mode when modes x n is
# under `lattice._REDUCTION_MIN_SIZE`, plus a few Sturm counts and a twisted
# factorization per mode; one dense `eigh` costs O(n^3). So the stencil wins
# below about k* = c n^2 modes. Measured (Dirichlet harmonic on [-20, 20],
# 1 BLAS thread, CPU time, best of up to 9 runs interleaved with `eigh`):
# k* = 1.1, 3.4, 3.2 to 5.1, 8.6 to 11, 16, 31, 70, 212 and 2840 at n = 64,
# 150, 200, 250, 300, 400, 600, 1200 and 3200, so c is 1.4e-4 to 2.8e-4, and
# this value is within a factor 1.5 of k* at each of these n but 200. There
# the cost is not monotone in k, since 4 modes take the Sturm counts and 5
# the reduction. A request this rule sends to the stencil costs at most
# about 1.5 times `eigh` (4 modes at n = 150 and 200).
STENCIL_MODES_PER_N2 = 2e-4

_TOP_KEYS = {
    "grid",
    "potential",
    "hbar",
    "mass",
    "initial_state",
    "integrator",
    "dt",
    "t_final",
    "output",
}
_GRID_KEYS = {"n", "x_min", "x_max", "boundary"}
_OUTPUT_KEYS = {"observables", "snapshot_stride"}
_OBSERVABLES = ("P", "S", "E")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description with defaults applied."""

    grid_n: int
    x_min: float
    x_max: float
    boundary: str
    potential: dict
    hbar: float
    mass: float
    initial_state: dict
    integrator: str
    dt: float
    t_final: float
    observables: tuple = _OBSERVABLES
    snapshot_stride: int = 0

    def as_dict(self):
        return {
            "grid": {
                "n": self.grid_n,
                "x_min": self.x_min,
                "x_max": self.x_max,
                "boundary": self.boundary,
            },
            "potential": self.potential,
            "hbar": self.hbar,
            "mass": self.mass,
            "initial_state": self.initial_state,
            "integrator": self.integrator,
            "dt": self.dt,
            "t_final": self.t_final,
            "output": {
                "observables": list(self.observables),
                "snapshot_stride": self.snapshot_stride,
            },
        }


@dataclass(frozen=True, eq=False)
class Scenario:
    """Concrete objects built from a config by `build_scenario`.

    `spectrum` and `initial_pair` are computed on first use and kept. The
    eigenstate and modes presets read their modes through `superpose`, which
    decomposes K only where the stencil eigensolver does not apply, so a
    leapfrog, RK4 or Crank-Nicolson run on a Dirichlet grid, or any run from a
    gaussian or inline state, never does. Once `spectrum` is built,
    `superpose` reads it, so a command that decomposes K anyway builds it
    before these presets (`build_scenario(cfg, spectrum=True)`).
    """

    config: ScenarioConfig
    grid: object
    potential: object
    operator: object

    @cached_property
    def spectrum(self):
        return eigendecompose(self.operator)

    @cached_property
    def initial_pair(self):
        return initial_pair_from_spec(self.config.initial_state, self)

    def superpose(self, cols, coefficients):
        """Sums of the eigenvectors of K in the distinct ascending-kappa `cols`.

        Row i of the result is sum_j coefficients[i, j] v[cols[j]], for
        dx-orthonormal eigenvectors v signed as `eigendecompose` signs them.
        They come from the stencil (`lattice.eigenpairs`) when the grid is
        Dirichlet, the integrator is not `spectral` (whose flow decomposes K
        anyway), `spectrum` is not built yet, there are fewer than
        STENCIL_MODES_PER_N2 n^2 columns and each of their eigenvalues is
        isolated; otherwise from `spectrum`, synthesized as
        `Spectrum.synthesize` does.
        """
        op = self.operator
        coefficients = np.asarray(coefficients, dtype=float)
        if (
            op.grid.boundary == DIRICHLET
            and self.config.integrator != "spectral"
            and "spectrum" not in vars(self)
            and len(cols) < STENCIL_MODES_PER_N2 * op.n * op.n
        ):
            pairs = eigenpairs(op, cols)
            if pairs is not None:
                return coefficients @ pairs[1].T
        full = np.zeros((len(coefficients), op.n))
        full[:, cols] = coefficients
        return np.array([self.spectrum.synthesize(c) for c in full])


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def config_from_dict(raw):
    """Validate a raw config mapping and fill in defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "grid" not in raw:
        raise ConfigError("config requires a 'grid' section")
    grid_raw = raw["grid"]
    if not isinstance(grid_raw, dict):
        raise ConfigError("'grid' must be an object")
    _reject_unknown(grid_raw, _GRID_KEYS, "grid")
    for key in ("n", "x_min", "x_max"):
        if key not in grid_raw:
            raise ConfigError(f"grid requires {key!r}")

    potential = raw.get("potential", "free")
    if isinstance(potential, str):
        potential = {"name": potential}
    if not isinstance(potential, dict) or "name" not in potential:
        raise ConfigError("'potential' must be a preset name or an object with 'name'")
    if potential["name"] not in POTENTIAL_PRESETS:
        raise ConfigError(
            f"unknown potential preset {potential['name']!r}; "
            f"choose from {POTENTIAL_PRESETS}"
        )

    initial = raw.get("initial_state", {"type": "eigenstate", "index": 0})
    if isinstance(initial, str):
        if initial.startswith("eigenstate:"):
            try:
                index = int(initial.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(
                    f"initial_state {initial!r} must be 'eigenstate:<k>' with an integer k"
                ) from exc
            initial = {"type": "eigenstate", "index": index}
        else:
            initial = {"type": initial}
    if not isinstance(initial, dict) or "type" not in initial:
        raise ConfigError("'initial_state' must be a preset name or an object with 'type'")
    if initial["type"] not in STATE_PRESETS:
        raise ConfigError(
            f"unknown initial-state preset {initial['type']!r}; "
            f"choose from {STATE_PRESETS}"
        )

    integrator = raw.get("integrator", "spectral")
    if integrator not in INTEGRATORS:
        raise ConfigError(
            f"unknown integrator {integrator!r}; choose one of {INTEGRATORS}"
        )

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be an object")
    _reject_unknown(output, _OUTPUT_KEYS, "output")
    observables = output.get("observables", _OBSERVABLES)
    if not isinstance(observables, (list, tuple)):
        raise ConfigError(f"observables must be a list of names, got {observables!r}")
    observables = tuple(observables)
    for i, obs in enumerate(observables):
        if obs not in _OBSERVABLES:
            raise ConfigError(f"unknown observable {obs!r}; choose from {_OBSERVABLES}")
        if obs in observables[:i]:
            raise ConfigError(f"observable {obs!r} is listed twice")
    stride = as_integer(output.get("snapshot_stride", 0), "snapshot_stride")
    if stride < 0:
        raise ConfigError("snapshot_stride must be >= 0")

    dt = as_finite(raw.get("dt", 1e-3), "dt")
    t_final = as_finite(raw.get("t_final", 1.0), "t_final")
    hbar = as_finite(raw.get("hbar", 1.0), "hbar")
    mass = as_finite(raw.get("mass", 1.0), "mass")
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    if t_final <= 0.0:
        raise ConfigError("t_final must be positive")
    if t_final / dt > MAX_STEPS:
        raise ConfigError(
            f"t_final / dt = {t_final / dt:.3g} steps exceeds the limit of {MAX_STEPS} steps"
        )

    return ScenarioConfig(
        grid_n=as_integer(grid_raw["n"], "grid n"),
        x_min=as_finite(grid_raw["x_min"], "grid x_min"),
        x_max=as_finite(grid_raw["x_max"], "grid x_max"),
        boundary=grid_raw.get("boundary", "dirichlet"),
        potential=potential,
        hbar=hbar,
        mass=mass,
        initial_state=initial,
        integrator=integrator,
        dt=dt,
        t_final=t_final,
        observables=observables,
        snapshot_stride=stride,
    )


def build_scenario(cfg, spectrum=False):
    """Build and validate the scenario a config describes.

    Builds the grid, potential, operator and initial pair, then checks the
    time step against the integrator's stability bound and the initial pair
    for non-finite values, so every config error surfaces before a command
    writes anything. The spectrum is built on first use. With `spectrum`, for
    a command that decomposes K anyway, the eigenstate and modes presets take
    their modes from it, so it is built before their initial pair.
    """
    try:
        grid, potential, operator = assemble(cfg, cfg.grid_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scenario = Scenario(config=cfg, grid=grid, potential=potential, operator=operator)
    if spectrum and cfg.initial_state["type"] in ("eigenstate", "modes"):
        scenario.spectrum
    re, im = scenario.initial_pair
    validate_stability(cfg, operator)
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ConfigError("initial state contains non-finite values")
    return scenario


def assemble(cfg, n):
    """The grid, potential and operator of cfg on n points (refined ones for `verify`)."""
    grid = build_grid(n, cfg.x_min, cfg.x_max, cfg.boundary)
    potential = potential_from_spec(grid, cfg.potential, mass=cfg.mass)
    return grid, potential, build_operator(grid, potential, hbar=cfg.hbar, mass=cfg.mass)


def validate_stability(cfg, operator):
    """Reject time steps outside the configured integrator's stability region."""
    if cfg.integrator == "leapfrog":
        bound = leapfrog_stability_bound(operator)
        if cfg.dt >= bound:
            raise ConfigError(
                f"dt={cfg.dt!r} unstable for leapfrog; bound is {bound!r}"
            )
    elif cfg.integrator == "rk4":
        bound = rk4_stability_bound(operator)
        if cfg.dt >= bound:
            raise ConfigError(f"dt={cfg.dt!r} unstable for rk4; bound is {bound!r}")


def parse_config(path, spectrum=False):
    """Load a JSON scenario config and return its validated `Scenario`.

    `spectrum` is passed to `build_scenario`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    return build_scenario(config_from_dict(raw), spectrum=spectrum)

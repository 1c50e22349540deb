"""Scenario configuration: JSON parsing, validation, and scenario assembly.

Unknown keys are hard errors at every level: silently ignoring a misspelled
physics parameter is how wrong numbers get published. Stability of the
configured time step is validated against the actual operator spectrum
before any run starts.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .constrained import rk4_stability_bound
from .errors import ConfigError
from .field import leapfrog_stability_bound
from .lattice import build_grid, build_operator, eigendecompose
from .presets import (
    POTENTIAL_PRESETS,
    STATE_PRESETS,
    initial_pair_from_spec,
    potential_from_spec,
)

INTEGRATORS = ("crank_nicolson", "leapfrog", "rk4", "spectral")
FAULTS = ("dirac_sign_flip",)
# Largest t_final / dt a run may take; ample for any study, and it keeps a tiny
# dt from asking for an endless loop (or a step set of that size) up front.
MAX_STEPS = 10**7

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
    "fault",
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
    fault: str = ""

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
            "fault": self.fault,
        }


@dataclass(frozen=True, eq=False)
class Scenario:
    """Concrete objects built from a config."""

    config: ScenarioConfig
    grid: object
    potential: object
    operator: object
    spectrum: object
    initial_pair: tuple = field(default=None)


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _finite_number(raw, key, default):
    """raw[key] as a finite float; JSON admits NaN and Infinity, the physics does not."""
    try:
        value = float(raw.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {raw[key]!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


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
            initial = {"type": "eigenstate", "index": int(initial.split(":", 1)[1])}
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
    observables = tuple(output.get("observables", _OBSERVABLES))
    for obs in observables:
        if obs not in _OBSERVABLES:
            raise ConfigError(f"unknown observable {obs!r}; choose from {_OBSERVABLES}")
    stride = int(output.get("snapshot_stride", 0))
    if stride < 0:
        raise ConfigError("snapshot_stride must be >= 0")

    fault = raw.get("fault", "")
    if fault and fault not in FAULTS:
        raise ConfigError(f"unknown fault {fault!r}; choose from {FAULTS}")

    dt = _finite_number(raw, "dt", 1e-3)
    t_final = _finite_number(raw, "t_final", 1.0)
    hbar = _finite_number(raw, "hbar", 1.0)
    mass = _finite_number(raw, "mass", 1.0)
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    if t_final <= 0.0:
        raise ConfigError("t_final must be positive")
    if t_final / dt > MAX_STEPS:
        raise ConfigError(
            f"t_final / dt = {t_final / dt:.3g} steps exceeds the limit of {MAX_STEPS} steps"
        )

    return ScenarioConfig(
        grid_n=int(grid_raw["n"]),
        x_min=float(grid_raw["x_min"]),
        x_max=float(grid_raw["x_max"]),
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
        fault=fault,
    )


def build_scenario(cfg, with_initial=True):
    """Construct grid, potential, operator, spectrum, and the initial pair."""
    try:
        grid = build_grid(cfg.grid_n, cfg.x_min, cfg.x_max, cfg.boundary)
        potential = potential_from_spec(grid, cfg.potential, mass=cfg.mass)
        operator = build_operator(grid, potential, hbar=cfg.hbar, mass=cfg.mass)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spectrum = eigendecompose(operator)
    pair = initial_pair_from_spec(cfg.initial_state, spectrum) if with_initial else None
    return Scenario(
        config=cfg,
        grid=grid,
        potential=potential,
        operator=operator,
        spectrum=spectrum,
        initial_pair=pair,
    )


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


def parse_config(path):
    """Load, validate, and stability-check a JSON scenario config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    cfg = config_from_dict(raw)
    scenario = build_scenario(cfg, with_initial=True)
    validate_stability(cfg, scenario.operator)
    # Initial-state preset errors surface here as well (index range etc).
    if scenario.initial_pair is not None:
        re, im = scenario.initial_pair
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ConfigError("initial state contains non-finite values")
    return cfg

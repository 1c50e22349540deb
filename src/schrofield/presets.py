"""Preset potentials and initial states for scenario configs.

Every preset is a pure function of its parameters, so runs built from the
same config are bit-reproducible.
"""

import numpy as np

from .errors import ConfigError
from .lattice import Potential, inner_product

POTENTIAL_PRESETS = ("free", "harmonic", "square_well", "gaussian_barrier", "inline")
STATE_PRESETS = ("eigenstate", "gaussian", "modes", "inline")


def potential_from_spec(grid, spec, mass=1.0):
    """Build a Potential from a preset name/parameter mapping."""
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec.get("name")
    params = {k: v for k, v in spec.items() if k != "name"}
    x = grid.points()

    if name == "free":
        _no_extra(name, params, ())
        values = np.zeros(grid.n)
    elif name == "harmonic":
        _no_extra(name, params, ("omega",))
        omega = as_finite(params.get("omega", 1.0), "omega")
        values = 0.5 * mass * omega * omega * x * x
    elif name == "square_well":
        _no_extra(name, params, ("depth", "width"))
        depth = as_finite(params.get("depth", 1.0), "depth")
        width = as_finite(params.get("width", 1.0), "width")
        center = x[0] + 0.5 * (x[-1] - x[0])
        values = np.where(np.abs(x - center) <= 0.5 * width, -depth, 0.0)
    elif name == "gaussian_barrier":
        _no_extra(name, params, ("height", "width", "center"))
        height = as_finite(params.get("height", 1.0), "height")
        width = as_finite(params.get("width", 1.0), "width")
        center = as_finite(params.get("center", 0.0), "center")
        values = height * np.exp(-0.5 * ((x - center) / width) ** 2)
    elif name == "inline":
        _no_extra(name, params, ("values",))
        values = as_finite_array(params.get("values"), "inline potential values")
    else:
        raise ConfigError(f"unknown potential preset {name!r}")
    return Potential(values=values)


def initial_pair_from_spec(spec, scenario):
    """Initial pair of real grid functions from a preset mapping.

    The pair is (re, im) for wave scenarios and doubles as (phi, p) for field
    and constrained scenarios. Only the eigenstate and modes presets read
    `scenario.spectrum`.
    """
    kind = spec.get("type")
    params = {k: v for k, v in spec.items() if k != "type"}
    grid = scenario.grid
    n = grid.n

    if kind == "eigenstate":
        _no_extra(kind, params, ("index",))
        idx = as_integer(params.get("index", 0), "eigenstate index")
        if not 0 <= idx < n:
            raise ConfigError(f"eigenstate index {idx} out of range 0..{n - 1}")
        # index counts up from the ground state; eigenvalues ascend in kappa,
        # so energies -kappa descend with column index
        return np.array(scenario.spectrum.vectors[:, n - 1 - idx]), np.zeros(n)
    if kind == "gaussian":
        _no_extra(kind, params, ("center", "width", "momentum"))
        center = as_finite(params.get("center", 0.0), "center")
        width = as_finite(params.get("width", 1.0), "width")
        momentum = as_finite(params.get("momentum", 0.0), "momentum")
        x = grid.points()
        envelope = np.exp(-((x - center) ** 2) / (4.0 * width * width))
        phase = momentum * x / scenario.operator.hbar
        re = envelope * np.cos(phase)
        im = envelope * np.sin(phase)
        norm = np.sqrt(
            inner_product(re, re, grid) + inner_product(im, im, grid)
        )
        if norm == 0.0:
            raise ConfigError("gaussian initial state vanished on the grid")
        return re / norm, im / norm
    if kind == "modes":
        _no_extra(kind, params, ("coefficients",))
        re_c = np.zeros(n)
        im_c = np.zeros(n)
        coefficients = params.get("coefficients", [])
        if not isinstance(coefficients, (list, tuple)):
            raise ConfigError(f"mode coefficients must be a list, got {coefficients!r}")
        for k, entry in enumerate(coefficients):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ConfigError(
                    f"mode coefficient entries are [index, re, im]; got {entry!r}"
                )
            idx = as_integer(entry[0], f"mode coefficients[{k}] index")
            re_val = as_finite(entry[1], f"mode coefficients[{k}] re")
            im_val = as_finite(entry[2], f"mode coefficients[{k}] im")
            if not 0 <= idx < n:
                raise ConfigError(f"mode index {idx} out of range 0..{n - 1}")
            # same ground-up numbering as the eigenstate preset
            re_c[n - 1 - idx] = re_val
            im_c[n - 1 - idx] = im_val
        spectrum = scenario.spectrum
        return spectrum.synthesize(re_c), spectrum.synthesize(im_c)
    if kind == "inline":
        _no_extra(kind, params, ("re", "im"))
        re, im = (
            as_finite_array(params[key], f"inline state {key}") if key in params else np.zeros(n)
            for key in ("re", "im")
        )
        if re.shape != (n,) or im.shape != (n,):
            raise ConfigError(
                f"inline state needs {n} values per component, got "
                f"{re.shape[0]} re and {im.shape[0]} im"
            )
        return re, im
    raise ConfigError(f"unknown initial-state preset {kind!r}")


def as_integer(value, key):
    """value as an int; 24 and 24.0 are accepted, fractions, bools and strings are not."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def as_finite(value, key):
    """value as a finite float; bools and strings are not numbers.

    JSON admits NaN and Infinity, the physics does not.
    """
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    if not np.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {number!r}")
    return number


def as_finite_array(values, key):
    """values, a list of numbers, as a float array; a bad entry is named as key[i]."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return np.array([as_finite(v, f"{key}[{i}]") for i, v in enumerate(values)])


def _no_extra(name, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} for preset {name!r}")

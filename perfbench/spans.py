"""Span tracer that measures schrofield's layers from outside, at their public functions.

`install()` wraps each function named in LAYERS and rebinds the wrapper under
every name that any schrofield module bound the original to, because a
module that did `from .lattice import apply` calls its own binding. A class
entry wraps the class's `__init__`, `Cls.init` too, and `Cls.method` wraps
that method, so isinstance checks and the program's own code are untouched.

Every call records one span: name, parent span, start and end. Spans are
kept in flat arrays while the command runs and are reduced to per-name
call counts, self times and total times afterwards. A span's self time is
its duration minus the durations of its direct children.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "config": ("parse_config", "build_scenario", "validate_stability"),
    "lattice": (
        "build_operator",
        "eigendecompose",
        "spectral_radius",
        "apply",
        "inner_product",
        "solve_elliptic",
    ),
    "schrodinger": (
        "CrankNicolson.init",
        "CrankNicolson.step",
        "WaveFunction",
        "propagate_spectral",
        "wave_hamiltonian",
        "norm_hamiltonian",
    ),
    "field": ("step_leapfrog", "FieldState", "propagate_spectral_field", "field_hamiltonian"),
    "constrained": (
        "step_rk4",
        "ConstrainedState",
        "make_onshell",
        "constrained_hamiltonian",
        "constraint_residuals",
    ),
    "correspondence": ("quantize", "dequantize", "current_residual"),
    "brackets": (
        "dirac_structure",
        "verify_dirac_relations",
        "dirac_flow_check",
        "generalized_hamiltonian_check",
        "jacobi_cyclic_residual",
        "sector_smallest_singular_values",
    ),
    "runs": (
        "run_schrodinger",
        "run_field",
        "run_constrained",
        "run_verify",
        "write_csv",
        "write_manifest",
    ),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
# Spans whose total (inclusive) time is reported besides their self time.
TOTAL_SPANS = (
    "config.parse_config",
    "runs.run_schrodinger",
    "runs.run_field",
    "runs.run_constrained",
    "runs.run_verify",
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name, fn):
        ident = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(ident)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def table(self):
        """{span name: {"calls", "self_s", "total_s"}} over every wrapped name."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        children = np.zeros(dur.size)
        np.add.at(children, parent[nested], dur[nested])
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        self_s = np.bincount(ids, weights=dur - children, minlength=size)
        total_s = np.bincount(ids, weights=dur, minlength=size)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }


def _resolve(module, name):
    """(owner, attribute) that a LAYERS entry wraps."""
    if "." in name:
        cls_name, method = name.split(".")
        return getattr(module, cls_name), "__init__" if method == "init" else method
    if name[0].isupper():
        return getattr(module, name), "__init__"
    return module, name


def install():
    """Wrap every LAYERS entry and return the Tracer that records their spans."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"schrofield.{layer}") for layer in LAYERS}
    loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "schrofield"]
    for layer, names in LAYERS.items():
        for name in names:
            owner, attr = _resolve(modules[layer], name)
            original = getattr(owner, attr)
            traced = tracer.wrap(f"{layer}.{name}", original)
            if owner is not modules[layer]:
                setattr(owner, attr, traced)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    return tracer

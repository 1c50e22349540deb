"""Seeded workload configs and the output checks that decide a repetition.

Each workload is one schrofield CLI command on a config generated from a
seed. The seed moves only state coefficients (packet centre and momentum,
mode amplitudes, the verify seed), never n, dt, t_final or the snapshot
stride, so the cost of a repetition does not depend on it.

The checks compare the command's files against references this module
computes itself with the library's exact spectral propagators.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from schrofield import field, schrodinger
from schrofield.config import build_scenario, config_from_dict
from schrofield.lattice import apply

# Largest max-norm error of a final snapshot against its reference, relative
# to the reference's max-norm. The wave-cn reference is exact for the CN map
# (see Reference), so only roundoff is left: about 3e-13. Leapfrog and RK4
# are compared with the exact flow: about 1e-6 (leapfrog phase error on the
# low modes) and 5e-13 (RK4). Each tolerance leaves one to four orders of
# magnitude of room; a wrong step gives errors of order one.
SNAPSHOT_RTOL = {"wave-cn": 1e-8, "field-leapfrog": 1e-4, "constrained-rk4": 1e-9}
# c1 = varphi + K phi and c2 = pi are exact invariants of the RK4 flow, so
# their maxima over a run are accumulated roundoff: at most about 5e-11 of
# max|K phi0| was measured over 15,000 steps. Above this share they are not
# roundoff.
CONSTRAINT_RTOL = 1e-9

# Full-size and smoke-size shapes. Smoke shapes run every code path in a
# fraction of a second per repetition.
SHAPES = {
    "wave-cn": {
        "full": {"n": 800, "dt": 2e-3, "t_final": 1.6, "stride": 20},
        "smoke": {"n": 60, "dt": 2e-3, "t_final": 0.02, "stride": 5},
    },
    "field-leapfrog": {
        "full": {"n": 1200, "dt": 8.5e-4, "t_final": 0.425, "stride": 0},
        "smoke": {"n": 80, "dt": 5e-4, "t_final": 0.005, "stride": 0},
    },
    "constrained-rk4": {
        "full": {"n": 200, "dt": 2e-3, "t_final": 12.0, "stride": 0},
        "smoke": {"n": 40, "dt": 2e-3, "t_final": 0.02, "stride": 0},
    },
    "verify": {
        "full": {"n": 300, "dt": 0.01, "t_final": 1.0, "stride": 0},
        "smoke": {"n": 30, "dt": 0.01, "t_final": 1.0, "stride": 0},
    },
}

COMMANDS = {
    "wave-cn": "run-schrodinger",
    "field-leapfrog": "run-field",
    "constrained-rk4": "run-constrained",
    "verify": "verify",
}

WHY = {
    "wave-cn": "CN stepper and snapshot CSV output dominate; the only heavy output layer",
    "field-leapfrog": "large n: dense K apply and the duplicated eigendecompositions dominate",
    "constrained-rk4": "small n periodic ring: per-step Python work and state copies dominate",
    "verify": "bracket layer (Jacobi residual, sector SVDs) dominates; no stepping, no snapshots",
}

N_MODES = 8


def _modes(rng):
    """Seeded superposition of the lowest modes, entries [index, re, im]."""
    return [[i, float(rng.standard_normal()), float(rng.standard_normal())] for i in range(N_MODES)]


def make_config(name, seed, smoke=False):
    """Scenario config for a workload; the seed sets only state coefficients."""
    shape = SHAPES[name]["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    grid = {"n": shape["n"], "x_min": -20.0, "x_max": 20.0, "boundary": "dirichlet"}
    cfg = {
        "grid": grid,
        "potential": {"name": "harmonic", "omega": 1.0},
        "dt": shape["dt"],
        "t_final": shape["t_final"],
        "output": {"snapshot_stride": shape["stride"]},
    }
    if name == "wave-cn":
        cfg["initial_state"] = {
            "type": "gaussian",
            "center": float(rng.uniform(-5.0, 5.0)),
            "width": 1.0,
            "momentum": float(rng.uniform(-2.0, 2.0)),
        }
        cfg["integrator"] = "crank_nicolson"
    elif name == "field-leapfrog":
        cfg["initial_state"] = {"type": "modes", "coefficients": _modes(rng)}
        cfg["integrator"] = "leapfrog"
    elif name == "constrained-rk4":
        grid.update(x_min=-10.0, x_max=10.0, boundary="periodic")
        cfg["potential"] = {"name": "gaussian_barrier", "height": 5.0, "width": 1.0, "center": 0.0}
        cfg["initial_state"] = {"type": "modes", "coefficients": _modes(rng)}
        cfg["integrator"] = "rk4"
    elif name == "verify":
        grid.update(x_min=-10.0, x_max=10.0)
        cfg["initial_state"] = {"type": "eigenstate", "index": 0}
        cfg["integrator"] = "spectral"
        cfg["verify_seed"] = int(rng.integers(2**31))
    else:
        raise KeyError(f"unknown workload {name!r}")
    return cfg


def setup_config(cfg):
    """The same command cut to a single step: what every run pays up front."""
    out = json.loads(json.dumps(cfg))
    out["t_final"] = out["dt"]
    return out


def cli_args(name, cfg_path, out_dir, cfg):
    """Argument list for schrofield.cli.main."""
    args = [COMMANDS[name], "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]
    if name == "verify":
        args += ["--seed", str(cfg["verify_seed"])]
    return args


def program_config(cfg):
    """The JSON the program receives: the benchmark's own keys removed."""
    return {k: v for k, v in cfg.items() if k != "verify_seed"}


class Reference:
    """Reference states of a run workload, from the library's spectral propagators.

    A Crank-Nicolson step turns each eigenmode by exactly 2 atan(kappa dt / 2
    hbar), which is the exact flow of the operator with eigenvalues
    (2 hbar / dt) atan(kappa dt / 2 hbar). propagate_spectral on that
    spectrum gives what CN must produce up to roundoff, whatever the seed's
    packet; against the unmodified flow, CN's phase error ranges from 1e-5
    to 1e-2 with the packet's energy.
    """

    def __init__(self, name, cfg):
        self.name = name
        if name != "verify":
            self.scenario = build_scenario(config_from_dict(program_config(cfg)))

    def _expected(self, t, dt):
        spec = self.scenario.spectrum
        a, b = self.scenario.initial_pair
        if self.name == "wave-cn":
            half = 0.5 * dt / spec.hbar
            spec = replace(spec, eigenvalues=np.arctan(spec.eigenvalues * half) / half)
            psi = schrodinger.propagate_spectral(spec, schrodinger.WaveFunction(re=a, im=b), t)
            return psi.re, psi.im
        s = field.propagate_spectral_field(spec, field.FieldState(phi=a, p=b), t)
        return s.phi, s.p

    def check(self, out_dir, cfg):
        """Failed checks of one repetition's files (empty when they are right)."""
        out_dir = Path(out_dir)
        if self.name == "verify":
            report = json.loads((out_dir / "verify_report.json").read_text())
            return [] if report["all_pass"] is True else ["verify all_pass is false"]
        failures = []
        nsteps = max(int(round(cfg["t_final"] / cfg["dt"])), 1)
        expected = self._expected(nsteps * cfg["dt"], cfg["dt"])
        data = np.loadtxt(out_dir / f"snapshot_{nsteps:06d}.csv", delimiter=",", skiprows=1)
        scale = max(float(np.max(np.abs(e))) for e in expected)
        err = max(float(np.max(np.abs(data[:, i + 1] - e))) for i, e in enumerate(expected))
        if not err <= SNAPSHOT_RTOL[self.name] * scale:
            failures.append(
                f"final snapshot off the spectral reference by {err / scale:.3e} "
                f"(tolerance {SNAPSHOT_RTOL[self.name]:.0e})"
            )
        if self.name == "constrained-rk4":
            drift = json.loads((out_dir / "manifest.json").read_text())["drift"]
            k_phi0 = apply(self.scenario.operator, self.scenario.initial_pair[0])
            scale = float(np.max(np.abs(k_phi0)))
            for key in ("c1_max", "c2_max"):
                if not drift[key] <= CONSTRAINT_RTOL * scale:
                    failures.append(
                        f"{key} is {drift[key] / scale:.3e} of max|K phi0|, not roundoff"
                    )
        return failures


def manifest_hashes(out_dir):
    """(path, sha256) of every file the manifest lists, or None without one."""
    path = Path(out_dir) / "manifest.json"
    if not path.is_file():
        return None
    return [(f["path"], f["sha256"]) for f in json.loads(path.read_text())["files"]]


# Files that carry a wall time, so their size changes from run to run.
TIMED_FILES = ("manifest.json", "verify_report.json")


def output_counts(out_dir):
    """Files a command left, bytes of its reproducible files, bytes its manifest hashed."""
    out_dir = Path(out_dir)
    files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.is_dir() else []
    hashed = 0
    manifest = out_dir / "manifest.json"
    if manifest.is_file():
        hashed = sum(f["bytes"] for f in json.loads(manifest.read_text())["files"])
    return {
        "runs.files_written": len(files),
        "runs.bytes_written": sum(p.stat().st_size for p in files if p.name not in TIMED_FILES),
        "runs.bytes_hashed": hashed,
    }

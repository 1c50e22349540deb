import csv
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from schrofield import cli
from schrofield import config as config_module
from schrofield import brackets, lattice, runs
from schrofield import schrodinger as sd
from schrofield.cli import main
from schrofield.config import (
    MAX_DENSE_N,
    MAX_STEPS,
    ConfigError,
    build_scenario,
    config_from_dict,
    parse_config,
)
from schrofield.render import render_snapshots
from schrofield.runs import run_schrodinger, run_verify

from conftest import count_calls, dense_k, sign_flipped


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _harmonic_cfg(**overrides):
    cfg = {
        "grid": {"n": 64, "x_min": -9.0, "x_max": 9.0},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": "eigenstate:0",
        "integrator": "crank_nicolson",
        "dt": 0.002,
        "t_final": 0.04,
        "output": {"snapshot_stride": 10},
    }
    cfg.update(overrides)
    return cfg


def _read_series(out_dir):
    with open(Path(out_dir) / "series.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_minimal_config_defaults(tmp_path):
    path = _write(
        tmp_path,
        "min.json",
        {"grid": {"n": 24, "x_min": -4.0, "x_max": 4.0}, "potential": "harmonic",
         "initial_state": "eigenstate:0"},
    )
    cfg = parse_config(path).config
    assert cfg.hbar == 1.0 and cfg.mass == 1.0
    assert cfg.boundary == "dirichlet"
    assert cfg.integrator == "spectral"
    # integral floats are integers
    grid = {"n": 24.0, "x_min": -4.0, "x_max": 4.0}
    cfg = config_from_dict(_harmonic_cfg(grid=grid, output={"snapshot_stride": 2.0}))
    assert (cfg.grid_n, cfg.snapshot_stride) == (24, 2)
    assert type(cfg.grid_n) is int and type(cfg.snapshot_stride) is int


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="typo"):
        config_from_dict(
            {"grid": {"n": 8, "x_min": 0, "x_max": 1}, "typo": 1}
        )
    with pytest.raises(ConfigError, match="spacing"):
        config_from_dict({"grid": {"n": 8, "x_min": 0, "x_max": 1, "spacing": 0.1}})


def test_parse_rejects_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        config_from_dict(
            {"grid": {"n": 8, "x_min": 0, "x_max": 1}, "potential": "morse"}
        )


def test_parse_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"grid": {"n": 8,\n "x_min": 0 "x_max": 1}}', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 2 column"):
        parse_config(str(path))


@pytest.mark.parametrize("key", ["dt", "t_final", "hbar", "mass"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_parse_rejects_non_finite_numbers(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        config_from_dict(_harmonic_cfg(**{key: value}))


def test_parse_rejects_non_numeric_numbers(tmp_path, capsys):
    with pytest.raises(ConfigError, match="dt must be a number"):
        config_from_dict(_harmonic_cfg(dt=None))
    with pytest.raises(ConfigError, match="mass must be a number"):
        config_from_dict(_harmonic_cfg(mass=[1.0]))
    # each of these used to be truncated, split or rejected without naming the key
    for overrides, message in [
        ({"grid": {"n": 24.7, "x_min": -4.0, "x_max": 4.0}}, "grid n must be an integer"),
        ({"grid": {"n": True, "x_min": -4.0, "x_max": 4.0}}, "grid n must be an integer"),
        ({"output": {"snapshot_stride": 2.5}}, "snapshot_stride must be an integer"),
        ({"output": {"snapshot_stride": False}}, "snapshot_stride must be an integer"),
        ({"output": {"snapshot_stride": "2"}}, "snapshot_stride must be an integer"),
        ({"output": {"observables": "PS"}}, "observables must be a list"),
        # a repeated name used to write a snapshot header x,re,im,P,P
        ({"output": {"observables": ["P", "S", "P"]}}, "observable 'P' is listed twice"),
        ({"initial_state": "eigenstate:x"}, "initial_state 'eigenstate:x'"),
        ({"initial_state": "eigenstate:1.5"}, "initial_state 'eigenstate:1.5'"),
        # bools and numeric strings used to run as the number float() made of them
        ({"dt": "0.001"}, "dt must be a number, got '0.001'"),
        ({"hbar": True}, "hbar must be a number, got True"),
        ({"potential": {"name": "harmonic", "omega": True}}, "omega must be a number, got True"),
        (
            {"initial_state": {"type": "gaussian", "width": "1.5"}},
            "width must be a number, got '1.5'",
        ),
        (
            {"potential": {"name": "inline", "values": [0.0] * 63 + [False]}},
            r"inline potential values\[63\] must be a number, got False",
        ),
        (
            {"initial_state": {"type": "inline", "re": ["1"] + [0.0] * 63}},
            r"inline state re\[0\] must be a number, got '1'",
        ),
    ]:
        with pytest.raises(ConfigError, match=message):
            build_scenario(config_from_dict(_harmonic_cfg(**overrides)))
    code, err, written = _run_rejected(tmp_path, capsys, initial_state="eigenstate:x")
    assert (code, written) == (2, False)
    assert "config error: initial_state 'eigenstate:x'" in err
    omega = {"name": "harmonic", "omega": True}
    code, err, written = _run_rejected(tmp_path, capsys, potential=omega)
    assert (code, written) == (2, False)
    assert "config error: omega must be a number, got True" in err
    code, err, written = _run_rejected(tmp_path, capsys, output={"observables": ["P", "P"]})
    assert (code, written) == (2, False)
    assert "config error: observable 'P' is listed twice" in err


@pytest.mark.parametrize(
    "initial_state, message",
    [
        ({"type": "eigenstate", "index": 1.7}, "eigenstate index must be an integer, got 1.7"),
        ({"type": "eigenstate", "index": True}, "eigenstate index must be an integer, got True"),
        ({"type": "eigenstate", "index": "x"}, "eigenstate index must be an integer, got 'x'"),
        (
            {"type": "modes", "coefficients": [[0, 1.0, 0.0], [1.9, 1.0, 0.0]]},
            "mode coefficients[1] index must be an integer, got 1.9",
        ),
        ({"type": "modes", "coefficients": [3]}, "entries are [index, re, im]; got 3"),
        ({"type": "modes", "coefficients": 3}, "mode coefficients must be a list, got 3"),
    ],
)
def test_preset_indices_follow_the_integer_rule(tmp_path, capsys, initial_state, message):
    # the first four used to run as index 1 or fail without naming the key,
    # the last two ended in a TypeError traceback
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_scenario(config_from_dict(_harmonic_cfg(initial_state=initial_state)))
    code, err, written = _run_rejected(tmp_path, capsys, initial_state=initial_state)
    assert (code, written) == (2, False)
    assert message in err


def test_preset_indices_accept_integral_floats():
    def pair(initial_state):
        return build_scenario(config_from_dict(_harmonic_cfg(initial_state=initial_state))).initial_pair

    for a, b in zip(
        pair({"type": "eigenstate", "index": 2.0}), pair({"type": "eigenstate", "index": 2})
    ):
        assert np.array_equal(a, b)
    for a, b in zip(
        pair({"type": "modes", "coefficients": [[1.0, 1.0, 0.5]]}),
        pair({"type": "modes", "coefficients": [[1, 1.0, 0.5]]}),
    ):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "potential, initial_state, message",
    [
        ({"name": "harmonic", "omega": "x"}, "eigenstate:0", "omega must be a number, got 'x'"),
        ({"name": "harmonic", "omega": 1.0}, {"type": "modes", "coefficients": [[0, "y", 0.0]]},
         "mode coefficients[0] re must be a number, got 'y'"),
        ({"name": "harmonic", "omega": 1.0}, {"type": "modes", "coefficients": [[0, 1.0, None]]},
         "mode coefficients[0] im must be a number, got None"),
        ({"name": "square_well", "depth": [1.0]}, "eigenstate:0", "depth must be a number"),
        # JSON's Infinity token; the string "inf" is refused as a string
        ({"name": "gaussian_barrier", "center": float("inf")}, "eigenstate:0",
         "center must be finite"),
        ({"name": "harmonic", "omega": 1.0}, {"type": "gaussian", "momentum": "p"},
         "momentum must be a number, got 'p'"),
    ],
)
def test_preset_numbers_name_their_key(tmp_path, capsys, potential, initial_state, message):
    # these used to fail with "could not convert string to float" and no key
    overrides = {"potential": potential, "initial_state": initial_state}
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_scenario(config_from_dict(_harmonic_cfg(**overrides)))
    code, err, written = _run_rejected(tmp_path, capsys, **overrides)
    assert (code, written) == (2, False)
    assert message in err


@pytest.mark.parametrize(
    "potential, initial_state, message",
    [
        ({"name": "inline", "values": [0, "x", 0, 0]}, "gaussian",
         "inline potential values[1] must be a number, got 'x'"),
        ({"name": "inline", "values": [0.0, 1.0, float("nan")]}, "gaussian",
         "inline potential values[2] must be finite, got nan"),
        ({"name": "inline", "values": 3.0}, "gaussian",
         "inline potential values must be a list of numbers, got 3.0"),
        # a missing list used to end in a KeyError traceback
        ({"name": "inline"}, "gaussian",
         "inline potential values must be a list of numbers, got None"),
        ({"name": "harmonic"}, {"type": "inline", "re": [0, 1, "z", 0]},
         "inline state re[2] must be a number, got 'z'"),
        ({"name": "harmonic"}, {"type": "inline", "im": [0.0, float("-inf")]},
         "inline state im[1] must be finite, got -inf"),
    ],
)
def test_inline_arrays_name_their_key(tmp_path, capsys, potential, initial_state, message):
    # these used to fail with "could not convert string to float" and no key
    code, err, written = _run_rejected(
        tmp_path, capsys, potential=potential, initial_state=initial_state
    )
    assert (code, written) == (2, False)
    assert message in err


@pytest.mark.parametrize(
    "command, integrator, amplitude",
    [
        ("run-schrodinger", "crank_nicolson", 1e155),
        ("run-field", "leapfrog", 1e160),
        ("run-constrained", "rk4", 1e160),
    ],
)
def test_guard_aborts_on_a_non_finite_series_value(
    tmp_path, capsys, command, integrator, amplitude
):
    # these runs used to exit 0, with inf and nan in series.csv and NaN in the manifest
    n = 40
    cfg = _harmonic_cfg(
        grid={"n": n, "x_min": -20.0, "x_max": 20.0},
        integrator=integrator,
        initial_state={"type": "inline", "re": [amplitude] * n, "im": [0.0] * n},
    )
    out = tmp_path / "run"
    code = main([command, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("aborted: instability: norm is inf at t=0.0")
    assert captured.out == ""
    assert not (out / "manifest.json").exists()


def test_run_loop_rejects_a_non_finite_state(tmp_path, monkeypatch):
    advance = sd.CrankNicolson.advance

    def poisoned(self, y, ky, out):
        advance(self, y, ky, out)
        out[1, 3] = np.nan

    monkeypatch.setattr(sd.CrankNicolson, "advance", poisoned)
    scenario = build_scenario(config_from_dict(_harmonic_cfg()))
    with pytest.raises(ValueError, match="^im must be finite$"):
        run_schrodinger(scenario, tmp_path / "run", quiet=True)


@pytest.mark.parametrize(
    "command, integrator",
    [("run-schrodinger", "crank_nicolson"), ("run-field", "leapfrog"), ("verify", "spectral")],
)
@pytest.mark.parametrize(
    "overrides, named",
    [({"hbar": 1e200}, "hbar=1e+200"), ({"grid": {"n": 3, "x_min": 0.0, "x_max": 1e-200}}, "dx=")],
)
def test_overflowed_stencil_is_rejected_before_output(
    tmp_path, capsys, command, integrator, overrides, named
):
    # hbar^2 = inf used to leave a CN snapshot without a manifest, and a dx
    # whose square underflows ended in a ZeroDivisionError traceback
    cfg = _harmonic_cfg(integrator=integrator, initial_state={"type": "gaussian"}, **overrides)
    path = _write(tmp_path, "c.json", cfg)
    out = tmp_path / "run"
    code = main([command, "--config", path, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert not out.exists()
    assert "operator entries must be finite" in err and named in err


_CONFIG_COMMANDS = (
    "run-schrodinger",
    "run-field",
    "run-constrained",
    "dequantize",
    "spectrum",
    "convergence",
    "verify",
)
# A free grid whose hbar^2 / 2m underflows to 0, leaving K = 0.
_ZERO_STENCIL = {
    "grid": {"n": 8, "x_min": 0.0, "x_max": 1.0},
    "potential": "free",
    "initial_state": "gaussian",
    "integrator": "rk4",
    "hbar": 1e-200,
}


def _config_error(tmp_path, capsys, command, cfg):
    """The stderr of a command that must refuse cfg with exit 2 before making --out."""
    out = tmp_path / "run"
    code = main([command, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("command", _CONFIG_COMMANDS)
@pytest.mark.parametrize("integrator", ["rk4", "spectral"])
def test_zero_stencil_is_rejected_before_output(tmp_path, capsys, command, integrator):
    # rk4 runs and verify used to end in a ZeroDivisionError from the RK4 bound
    cfg = {**_ZERO_STENCIL, "integrator": integrator}
    err = _config_error(tmp_path, capsys, command, cfg)
    assert "kinetic coefficient must be positive" in err
    assert "hbar=1e-200" in err and "mass=1.0" in err


@pytest.mark.parametrize("command", _CONFIG_COMMANDS)
@pytest.mark.parametrize(
    "state, hbar, message",
    [
        ({"width": 1e-300}, 1.0, "gaussian initial state vanished on the grid"),
        ({"width": 0.0}, 1.0, "gaussian initial state vanished on the grid"),
        ({"center": 1e300}, 1.0, "gaussian initial state vanished on the grid"),
        # on a grid that holds x = center the envelope is 0 / 0 there
        ({"width": 0.0, "center": 0.5}, 1.0, "initial state contains non-finite values"),
        # the phase momentum x / hbar overflows past x = 0.5
        ({"momentum": 1e308}, 0.5, "initial state contains non-finite values"),
    ],
)
def test_degenerate_gaussian_is_rejected_without_warnings(tmp_path, capsys, command, state, hbar,
                                                          message):
    # these used to print overflow, divide or invalid-value RuntimeWarnings first
    cfg = {
        **_ZERO_STENCIL,
        "grid": {"n": 9, "x_min": 0.0, "x_max": 1.0},
        "hbar": hbar,
        "initial_state": {"type": "gaussian", **state},
    }
    assert _config_error(tmp_path, capsys, command, cfg) == f"config error: {message}\n"


def test_cli_out_of_memory_is_a_clean_abort(tmp_path, capsys, monkeypatch):
    # A real huge allocation would depend on the host's overcommit policy.
    def no_memory(op):
        raise MemoryError(f"Unable to allocate {16 * op.n**2} bytes")

    monkeypatch.setattr(config_module, "eigendecompose", no_memory)
    cfg = _write(
        tmp_path,
        "c.json",
        _harmonic_cfg(initial_state={"type": "gaussian"}, integrator="spectral"),
    )
    code = main(["run-field", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"aborted: out of memory: Unable to allocate {16 * 64**2} bytes\n"


def _run_rejected(tmp_path, capsys, **overrides):
    """Run a n=50 CN config; return (exit code, stderr, whether --out exists)."""
    grid = {"n": 50, "x_min": -9.0, "x_max": 9.0}
    cfg = _write(tmp_path, "c.json", _harmonic_cfg(grid=grid, **overrides))
    out = tmp_path / "run"
    code = main(["run-schrodinger", "--config", cfg, "--out", str(out), "--quiet"])
    return code, capsys.readouterr().err, out.exists()


def test_cli_infinite_t_final_is_config_error(tmp_path, capsys):
    code, err, written = _run_rejected(tmp_path, capsys, t_final=float("inf"))
    assert (code, written) == (2, False)
    assert "t_final must be finite" in err


def test_cli_infinite_dt_leaves_no_run_directory(tmp_path, capsys):
    code, err, written = _run_rejected(tmp_path, capsys, dt=float("inf"))
    assert (code, written) == (2, False)
    assert "dt must be finite" in err


def test_cli_nan_dt_is_config_error(tmp_path, capsys):
    code, err, written = _run_rejected(tmp_path, capsys, dt=float("nan"))
    assert (code, written) == (2, False)
    assert "dt must be finite" in err


def test_cli_tiny_dt_exceeds_step_budget_at_once(tmp_path, capsys):
    # 1e-300 used to ask for 10^300 steps and hang.
    start = time.perf_counter()
    code, err, written = _run_rejected(tmp_path, capsys, dt=1e-300)
    assert time.perf_counter() - start < 1.0
    assert (code, written) == (2, False)
    assert f"limit of {MAX_STEPS} steps" in err


def test_parse_accepts_step_budget_exactly():
    config_from_dict(_harmonic_cfg(dt=0.25, t_final=MAX_STEPS * 0.25))
    with pytest.raises(ConfigError, match="limit"):
        config_from_dict(_harmonic_cfg(dt=0.25, t_final=(MAX_STEPS + 1) * 0.25))


def _zero_energy_wave_cfg():
    """Square-well CN run whose wave Hamiltonian starts at about 0.

    Ground-state and mode-40 amplitudes are weighted so their kappa |c|^2
    cancel; the norm is large and positive.
    """
    cfg = {
        "grid": {"n": 200, "x_min": -10.0, "x_max": 10.0},
        "potential": {"name": "square_well", "depth": 20.0, "width": 4.0},
        "integrator": "crank_nicolson",
        "dt": 1e-3,
        "t_final": 0.5,
    }
    kappa = build_scenario(config_from_dict(cfg)).spectrum.eigenvalues
    b = np.sqrt(kappa[-1] / -kappa[-41])
    cfg["initial_state"] = {
        "type": "modes",
        "coefficients": [[0, 1000.0, 0.0], [40, 1000.0 * b, 0.0]],
    }
    return cfg


def test_cli_wave_run_with_near_zero_hamiltonian_completes(tmp_path):
    # The guard used to scale by |H0| and aborted this run (exit 3) on roundoff.
    cfg = _write(tmp_path, "zero.json", _zero_energy_wave_cfg())
    out = tmp_path / "run"
    assert main(["run-schrodinger", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["drift"]["norm_drift"] < 1e-12 * float(_read_series(out)[0]["norm"])


def test_wave_guard_aborts_when_norm_grows(tmp_path, monkeypatch):
    advance = sd.CrankNicolson.advance

    def inflating(self, y, ky, out):
        advance(self, y, ky, out)
        out *= 1.5

    monkeypatch.setattr(sd.CrankNicolson, "advance", inflating)
    with pytest.raises(RuntimeError, match="instability: norm grew"):
        scenario = build_scenario(config_from_dict(_harmonic_cfg()))
        run_schrodinger(scenario, tmp_path / "run", quiet=True)


def test_parse_stability_rules(tmp_path):
    # Crank-Nicolson has no bound; leapfrog rejects with the bound value
    big_dt = _harmonic_cfg(dt=5.0, t_final=10.0)
    parse_config(_write(tmp_path, "cn.json", big_dt))
    lf = _harmonic_cfg(integrator="leapfrog", dt=5.0, t_final=10.0)
    with pytest.raises(ConfigError, match="bound"):
        parse_config(_write(tmp_path, "lf.json", lf))


def test_run_schrodinger_norm_constant(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _harmonic_cfg())
    out = tmp_path / "run"
    assert main(["run-schrodinger", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _read_series(out)
    norms = np.array([float(r["norm"]) for r in rows])
    assert np.max(np.abs(norms - norms[0])) < 1e-12 * norms[0]
    hams = np.array([float(r["hamiltonian"]) for r in rows])
    assert abs(hams[0] - 0.25) < 2e-3


_PERIODIC_GRID = {"n": 40, "x_min": -6.0, "x_max": 6.0, "boundary": "periodic"}
_MODES = {"type": "modes", "coefficients": [[0, 1.0, 0.2], [1, 0.3, -0.4], [3, 0.1, 0.05]]}


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize(
    "command, integrator",
    [
        ("run-schrodinger", "crank_nicolson"),
        ("run-schrodinger", "spectral"),
        ("run-field", "leapfrog"),
        ("run-field", "spectral"),
        ("run-constrained", "rk4"),
        ("run-constrained", "spectral"),
        ("dequantize", "spectral"),
        ("spectrum", "spectral"),
    ],
)
def test_run_determinism(tmp_path, command, integrator, boundary):
    overrides = {"integrator": integrator}
    if boundary == "periodic":
        overrides.update(grid=_PERIODIC_GRID, initial_state=_MODES, output={"snapshot_stride": 7})
    cfg = _write(tmp_path, "cfg.json", _harmonic_cfg(**overrides))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    csvs = sorted(p.name for p in out_a.iterdir() if p.suffix == ".csv")
    assert csvs == sorted(p.name for p in out_b.iterdir() if p.suffix == ".csv")
    for name in csvs:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    ma.pop("wall_time_s")
    mb.pop("wall_time_s")
    assert ma == mb


# Leapfrog from modes on a grid where the stencil eigensolver supplies them.
_LARGE_MODES = {
    "grid": {"n": 1200, "x_min": -9.0, "x_max": 9.0},
    "integrator": "leapfrog",
    "initial_state": _MODES,
    "dt": 1e-4,
    "t_final": 1e-3,
}


@pytest.mark.parametrize(
    "command, overrides, decompositions, stencil_solves",
    [
        pytest.param("run-schrodinger", {"initial_state": "gaussian"}, 0, 0, id="cn-gaussian"),
        pytest.param("run-schrodinger", {}, 1, 0, id="cn-eigenstate"),
        pytest.param(
            "run-field", {"integrator": "leapfrog", "initial_state": _MODES}, 1, 0, id="lf"
        ),
        pytest.param(
            "run-constrained", {"integrator": "rk4", "initial_state": _MODES}, 1, 0, id="rk4"
        ),
        pytest.param("spectrum", {}, 1, 0, id="spectrum"),
        pytest.param("verify", {}, 2, 0, id="verify"),
        pytest.param("run-field", _LARGE_MODES, 0, 1, id="lf-n1200-stencil"),
        pytest.param(
            "run-field",
            {**_LARGE_MODES, "grid": {**_LARGE_MODES["grid"], "boundary": "periodic"}},
            1,
            0,
            id="lf-n1200-periodic",
        ),
        pytest.param(
            "run-field", {**_LARGE_MODES, "integrator": "spectral"}, 1, 0, id="n1200-spectral"
        ),
        # Commands that read the full spectrum build it first, and the preset
        # reads its modes from it rather than solving them on the stencil too.
        *(
            pytest.param(command, _LARGE_MODES, 1, 0, id=f"{command}-n1200-leapfrog")
            for command in ("dequantize", "verify", "convergence", "spectrum")
        ),
    ],
)
def test_each_command_builds_once(
    tmp_path, monkeypatch, command, overrides, decompositions, stencil_solves
):
    # verify decomposes the scenario's K, and the refined grid of its current-residual
    # study only where a dense spectrum costs less than the series on the stencil: the
    # 129 points refined from n=64 do, the 2401 refined from n=1200 do not. The n=64 runs
    # from eigenstates and modes sit below the stencil eigensolver's crossover.
    builds = count_calls(monkeypatch, config_module, "build_scenario")
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    stencil = count_calls(monkeypatch, lattice, "eigenpairs")
    cfg = _write(tmp_path, "cfg.json", _harmonic_cfg(**overrides))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
    assert (len(builds), len(eighs), len(stencil)) == (1, decompositions, stencil_solves)


def test_run_field_zero_mode_scenario(tmp_path):
    cfg = _write(
        tmp_path,
        "zm.json",
        {
            "grid": {"n": 32, "x_min": 0.0, "x_max": 6.4, "boundary": "periodic"},
            "potential": "free",
            "initial_state": {"type": "modes", "coefficients": [[0, 0.0, 1.0]]},
            "integrator": "spectral",
            "dt": 0.05,
            "t_final": 1.0,
            "output": {"snapshot_stride": 20},
        },
    )
    out = tmp_path / "zrun"
    assert main(["run-field", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    with open(out / "snapshot_000000.csv", newline="") as fh:
        first = list(csv.DictReader(fh))
    with open(out / "snapshot_000020.csv", newline="") as fh:
        last = list(csv.DictReader(fh))
    p_val = 1.0 / np.sqrt(6.4)  # normalized constant mode amplitude
    assert abs(float(last[0]["phi"]) - p_val * 1.0) < 1e-10  # linear growth to t=1
    assert abs(float(first[0]["P"]) - float(last[0]["P"])) < 1e-12


def test_run_constrained_residual_columns(tmp_path):
    cfg = _write(
        tmp_path,
        "cn.json",
        _harmonic_cfg(
            integrator="rk4",
            dt=0.002,
            t_final=0.2,
            initial_state={"type": "modes", "coefficients": [[0, 1.0, 0.0], [1, 0.3, 0.4]]},
        ),
    )
    out = tmp_path / "crun"
    assert main(["run-constrained", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _read_series(out)
    assert max(float(r["c1_inf"]) for r in rows) <= 1e-8
    assert max(float(r["c2_inf"]) for r in rows) == 0.0


def test_dequantize_cli_round_trip(tmp_path):
    cfg = _write(
        tmp_path,
        "dq.json",
        _harmonic_cfg(integrator="spectral", dt=0.1, t_final=1.0,
                      output={"snapshot_stride": 5}),
    )
    out = tmp_path / "dqrun"
    assert main(["dequantize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _read_series(out)
    assert max(float(r["roundtrip_error"]) for r in rows) <= 1e-10
    assert (out / "integration_constant.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kernel"]["modes"] == 0


def test_dequantize_cli_kernel_scenario(tmp_path):
    cfg = _write(
        tmp_path,
        "kernel.json",
        {
            "grid": {"n": 32, "x_min": 0.0, "x_max": 6.4, "boundary": "periodic"},
            "potential": "free",
            "initial_state": {"type": "modes", "coefficients": [[0, 0.0, 1.0]]},
            "integrator": "spectral",
            "dt": 0.1,
            "t_final": 1.0,
        },
    )
    out = tmp_path / "krun"
    assert main(["dequantize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    with open(out / "integration_constant.csv", newline="") as fh:
        c_rows = list(csv.DictReader(fh))
    assert max(abs(float(r["C"])) for r in c_rows) == 0.0
    rows = _read_series(out)
    assert max(float(r["roundtrip_error"]) for r in rows) < 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kernel"]["modes"] == 1


def test_dequantize_solves_for_the_integration_constant_once(tmp_path, monkeypatch):
    # each snapshot is the field flow from (C, im); C is solved for once
    solves = count_calls(monkeypatch, lattice, "solve_elliptic")
    cfg = _write(
        tmp_path,
        "dq.json",
        _harmonic_cfg(integrator="spectral", dt=0.1, t_final=1.0, output={"snapshot_stride": 2}),
    )
    out = tmp_path / "dqrun"
    assert main(["dequantize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(list(out.glob("snapshot_*.csv"))) == 6
    assert len(solves) == 1


# A free periodic ring: its constant zero mode is outside the range of K.
_FREE_RING = {
    "grid": {"n": 40, "x_min": -10.0, "x_max": 10.0, "boundary": "periodic"},
    "potential": "free",
    "integrator": "spectral",
    "dt": 0.01,
    "t_final": 0.1,
}


@pytest.mark.parametrize(
    "command, initial_state",
    [
        pytest.param("dequantize", "gaussian", id="dequantize-gaussian"),
        pytest.param(
            "convergence",
            {"type": "modes", "coefficients": [[0, 1.0, 0.2], [1, 0.3, -0.4], [3, 0.1, 0.05]]},
            id="convergence-modes",
        ),
    ],
)
def test_real_kernel_content_is_refused_before_any_output(
    tmp_path, capsys, monkeypatch, command, initial_state
):
    # both commands used to fail on it after making --out, convergence only
    # after running its integrator studies
    studies = count_calls(monkeypatch, sd, "crank_nicolson_trajectory")
    cfg = _write(tmp_path, "ring.json", {**_FREE_RING, "initial_state": initial_state})
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists() and not studies
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command} needs an initial real part in the range of K")
    assert "zero-mode content" in err


def test_verify_cli_passes_and_fault_flags_targets(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "ok.json", _harmonic_cfg())
    out = tmp_path / "vrun"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_pass"] is True

    monkeypatch.setattr(brackets, "dirac_structure", sign_flipped(brackets.dirac_structure))
    out_bad = tmp_path / "vbad"
    assert main(["verify", "--config", cfg, "--out", str(out_bad), "--quiet"]) == 1
    report = json.loads((out_bad / "verify_report.json").read_text())
    failed = {e["name"] for e in report["identities"] if not e["passed"]}
    assert failed == {
        "dirac_varphi_p_is_minus_K",
        "dirac_wave_sector_noncanonical",
        "dirac_constraint_casimir",
        "dirac_flow_wave_sector",
    }


def test_fault_key_is_unknown(tmp_path, capsys):
    # Faults are injected test-side; a config naming one is refused like any typo.
    cfg = _write(tmp_path, "fault.json", _harmonic_cfg(fault="dirac_sign_flip"))
    out = tmp_path / "vfault"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "unknown keys ['fault'] in config" in capsys.readouterr().err


def test_verify_cli_periodic_kernel_note(tmp_path):
    cfg = _write(
        tmp_path,
        "per.json",
        {
            "grid": {"n": 48, "x_min": 0.0, "x_max": 6.0, "boundary": "periodic"},
            "potential": "free",
            "initial_state": "eigenstate:0",
            "integrator": "spectral",
            "dt": 0.005,
            "t_final": 0.5,
        },
    )
    out = tmp_path / "pvrun"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    entry = {e["name"]: e for e in report["identities"]}["dirac_sector_nondegenerate"]
    assert entry["asserted"] is False
    assert "zero mode present" in entry["note"]


def test_verify_cli_discontinuous_potential_measured_only(tmp_path):
    # at a square-well jump the pointwise residual diverges under refinement,
    # so the current-equation entry must downgrade itself to measured-only
    cfg = _write(
        tmp_path,
        "well.json",
        {
            "grid": {"n": 90, "x_min": -7.0, "x_max": 7.0},
            "potential": {"name": "square_well", "depth": 3.0, "width": 3.0},
            "initial_state": "eigenstate:0",
            "integrator": "spectral",
            "dt": 0.001,
            "t_final": 0.1,
        },
    )
    out = tmp_path / "wrun"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    entry = {e["name"]: e for e in report["identities"]}["current_residual_decays"]
    assert entry["asserted"] is False
    assert "discontinuous" in entry["note"]


def test_inline_potential_verify_and_convergence_complete(tmp_path):
    # an inline potential has no values on a refined grid; both commands used
    # to exit 2 on it, and convergence left an empty --out behind
    cfg = {
        "grid": {"n": 20, "x_min": -5.0, "x_max": 5.0},
        "potential": {"name": "inline", "values": [0.1] * 20},
        "initial_state": "eigenstate:0",
        "integrator": "spectral",
        "dt": 0.01,
        "t_final": 1.0,
    }
    path = _write(tmp_path, "inline.json", cfg)
    out = tmp_path / "vrun"
    assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    entry = {e["name"]: e for e in report["identities"]}["current_residual_decays"]
    assert entry["asserted"] is False
    assert entry["note"] == "measured only: an inline potential has no values on a refined grid"
    out = tmp_path / "crun"
    assert main(["convergence", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "orders.json").read_text())["current_residual"] is None


def test_verify_round_trip_allows_for_an_ill_conditioned_operator(tmp_path):
    # a well as wide as the domain, just deeper than the top kinetic
    # eigenvalue: K's smallest |kappa| is 1e-6 of that eigenvalue, and the
    # round trip's roundoff (about eps cond K) used to fail the 1e-10 tolerance
    grid = {"n": 20, "x_min": -5.0, "x_max": 5.0}
    kinetic = lattice.build_operator(
        lattice.build_grid(20, -5.0, 5.0, "dirichlet"), lattice.Potential(np.zeros(20))
    )
    depth = -float(np.linalg.eigvalsh(dense_k(kinetic)).max()) * (1.0 + 1e-6)
    cfg = _harmonic_cfg(
        grid=grid,
        potential={"name": "square_well", "width": 100.0, "depth": depth},
        integrator="spectral",
        dt=0.01,
        t_final=1.0,
    )
    out = tmp_path / "vrun"
    path = _write(tmp_path, "well.json", cfg)
    assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    entry = {e["name"]: e for e in report["identities"]}["reconstruction_round_trip"]
    assert entry["passed"] is True and entry["asserted"] is True
    assert entry["tolerance"] == 1e-10


def test_manifest_lists_only_the_files_this_run_wrote(tmp_path):
    # a rerun with another stride into one --out used to list the first run's
    # snapshots, and any foreign file, in its manifest; leftovers stay on disk
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("not ours\n", encoding="utf-8")
    for stride in (5, 10):
        cfg = _write(tmp_path, "c.json", _harmonic_cfg(output={"snapshot_stride": stride}))
        assert main(["run-schrodinger", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    listed = [f["path"] for f in json.loads((out / "manifest.json").read_text())["files"]]
    assert listed == [
        "series.csv",
        "snapshot_000000.csv",
        "snapshot_000010.csv",
        "snapshot_000020.csv",
    ]
    assert (out / "notes.txt").exists() and (out / "snapshot_000005.csv").exists()


def test_convergence_cli_orders(tmp_path):
    cfg = _write(
        tmp_path,
        "conv.json",
        {
            "grid": {"n": 40, "x_min": -8.0, "x_max": 8.0},
            "potential": {"name": "harmonic", "omega": 1.0},
            "initial_state": {
                "type": "modes",
                "coefficients": [[0, 1.0, 0.0], [1, 0.5, 0.3], [2, 0.0, 0.4], [3, 0.2, 0.0]],
            },
            "integrator": "spectral",
            "dt": 0.02,
            "t_final": 2.0,
        },
    )
    out = tmp_path / "convrun"
    assert main(["convergence", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    orders = json.loads((out / "orders.json").read_text())
    assert 1.7 < orders["crank_nicolson"] < 2.3
    assert 1.7 < orders["leapfrog"] < 2.3
    assert 3.6 < orders["rk4"] < 4.4
    assert 1.7 < orders["schrodinger_residual"] < 2.3
    assert orders["current_residual"] > 1.7
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "study,level,h,error"
    assert len(rows) == 1 + 6 * 3


def test_convergence_levels_past_step_budget_exit_at_once(tmp_path, capsys):
    # 40 levels ask for about 2^42 steps at the finest level
    grid = {"n": 40, "x_min": -8.0, "x_max": 8.0}
    cfg = _write(tmp_path, "conv.json", _harmonic_cfg(grid=grid))
    out = tmp_path / "convrun"
    start = time.perf_counter()
    code = main(["convergence", "--config", cfg, "--out", str(out), "--levels", "40", "--quiet"])
    assert time.perf_counter() - start < 1.0
    assert (code, out.exists()) == (2, False)
    assert f"limit of {MAX_STEPS} steps" in capsys.readouterr().err


# The CI convergence config: the verify config at n=200.
_CONV200 = {
    "grid": {"n": 200, "x_min": -20.0, "x_max": 20.0, "boundary": "dirichlet"},
    "potential": {"name": "harmonic", "omega": 1.0},
    "initial_state": {"type": "gaussian", "center": -2.0, "width": 1.0, "momentum": 1.0},
    "integrator": "spectral",
    "dt": 0.01,
    "t_final": 1.0,
}


@pytest.mark.parametrize(
    "cfg, levels",
    [
        (_CONV200, 8),  # finest grid 25,727 points
        (_harmonic_cfg(grid={"n": 40, "x_min": -8.0, "x_max": 8.0}), 12),  # 83,967 points
    ],
)
def test_convergence_past_dense_limit_exits_at_once(tmp_path, capsys, monkeypatch, cfg, levels):
    studies = count_calls(monkeypatch, sd, "crank_nicolson_trajectory")
    path = _write(tmp_path, "conv.json", cfg)
    out = tmp_path / "convrun"
    start = time.perf_counter()
    code = main(["convergence", "--config", path, "--out", str(out), "--levels", str(levels),
                 "--quiet"])
    assert time.perf_counter() - start < 2.0
    assert (code, out.exists(), studies) == (2, False, [])
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"limit of {MAX_DENSE_N} points for a dense spectrum" in err


@pytest.mark.parametrize("boundary, n", [("dirichlet", 3200), ("periodic", 3200)])
def test_dense_limit_is_verify_grid_at_n3200(boundary, n):
    grid = {"n": n, "x_min": -20.0, "x_max": 20.0, "boundary": boundary}
    runs._check_refined_grids(config_from_dict({**_CONV200, "grid": grid}), 2)
    grid["n"] = n + 1
    with pytest.raises(ConfigError, match=f"limit of {MAX_DENSE_N} points"):
        runs._check_refined_grids(config_from_dict({**_CONV200, "grid": grid}), 2)
    # an inline potential is measured on its own grid and refines nothing
    inline = {"name": "inline", "values": [0.0] * (n + 1)}
    cfg = config_from_dict({**_CONV200, "grid": grid, "potential": inline})
    runs._check_refined_grids(cfg, 10**9)


def test_verify_past_dense_limit_exits_before_any_study(tmp_path, capsys, monkeypatch):
    # verify's one refinement of n=64 is 129 points: past a limit lowered to 100.
    monkeypatch.setattr(runs, "MAX_DENSE_N", 100)
    checks = count_calls(monkeypatch, runs.br, "dirac_structure")
    cfg = _write(tmp_path, "v.json", _harmonic_cfg())
    out = tmp_path / "vrun"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert (out.exists(), checks) == (False, [])
    assert "limit of 100 points for a dense spectrum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, n",
    [(["verify", "--seed", "7"], 3201), (["convergence", "--levels", "3"], 1601)],
    ids=["verify", "convergence"],
)
def test_past_dense_limit_decomposes_nothing(tmp_path, capsys, monkeypatch, args, n):
    # CI's verify config (a gaussian state reads no eigenvectors) on a grid whose
    # refinement passes the dense limit: refused before K is decomposed.
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    grid = {**_CONV200["grid"], "n": n}
    cfg = _write(tmp_path, "dense.json", {**_CONV200, "grid": grid})
    out = tmp_path / "run"
    assert main([*args, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert (out.exists(), eighs) == (False, [])
    assert f"limit of {MAX_DENSE_N} points for a dense spectrum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state",
    [{"type": "eigenstate", "index": 0}, {"type": "modes", "coefficients": [[0, 1.0, 0.0], [1, 0.5, 0.5]]}],
    ids=["eigenstate", "modes"],
)
@pytest.mark.parametrize(
    "args, n",
    [(["verify", "--seed", "7"], 3201), (["convergence", "--levels", "3"], 1601)],
    ids=["verify", "convergence"],
)
def test_preset_past_dense_limit_decomposes_nothing(tmp_path, capsys, monkeypatch, args, n, state):
    # The presets of a command that reads the full spectrum take their modes
    # from it; the refusal comes before it is built (an eigh at n=3201 takes
    # seconds and about 0.5 GB).
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    grid = {**_CONV200["grid"], "n": n}
    cfg = _write(tmp_path, "dense.json", {**_CONV200, "grid": grid, "initial_state": state})
    out = tmp_path / "run"
    start = time.perf_counter()
    assert main([*args, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert time.perf_counter() - start < 1.0
    assert (out.exists(), eighs) == (False, [])
    assert f"limit of {MAX_DENSE_N} points for a dense spectrum" in capsys.readouterr().err


def test_spectrum_cli(tmp_path):
    cfg = _write(tmp_path, "sp.json", _harmonic_cfg())
    out = tmp_path / "sprun"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "index,kappa,energy"
    assert len(lines) == 65
    last = lines[-1].split(",")
    assert abs(float(last[2]) - 0.5) < 6e-3  # ground energy, n=64 discretization
    assert (out / "eigenvectors.csv").exists()


def test_render_cli(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _harmonic_cfg())
    out = tmp_path / "run"
    main(["run-schrodinger", "--config", cfg, "--out", str(out), "--quiet"])
    # eigenstate density is stationary: asserted in the data, not the SVG
    snaps = sorted(out.glob("snapshot_*.csv"))
    profiles = []
    for snap in snaps:
        with open(snap, newline="") as fh:
            profiles.append(np.array([float(r["P"]) for r in csv.DictReader(fh)]))
    for prof in profiles[1:]:
        assert np.max(np.abs(prof - profiles[0])) < 1e-12
    written = render_snapshots(out)
    assert len(written) == 3
    first = written[0].read_bytes()
    render_snapshots(out)
    assert written[0].read_bytes() == first  # byte-identical on repeat

    empty = tmp_path / "empty"
    empty.mkdir()
    assert render_snapshots(empty) == []


def test_render_rejects_missing_columns(tmp_path):
    bad = tmp_path / "snapshot_000000.csv"
    bad.write_text("x,foo\n0.0,1.0\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="columns"):
        render_snapshots(tmp_path)


def test_blowup_guard():
    from dataclasses import replace

    def check(value, initial):
        """The run loop's checks on one finite state whose guarded value is `value`."""
        guard, _ = runs._WAVE.guard
        row = lambda op, t, y, ky: tuple(np.full(len(t), value) for _ in runs._WAVE.columns)
        first = np.zeros(len(runs._WAVE.columns))
        first[guard] = initial
        ys = np.zeros((1, 2, 3))
        return runs._checked_rows(replace(runs._WAVE, row=row), None, [0.5], ys, ys, first)

    check(1.0, 1.0)
    with pytest.raises(RuntimeError, match="instability: norm grew to 11.0 from 1.0"):
        check(11.0, 1.0)


def test_states_reject_non_finite():
    from schrofield import FieldState, WaveFunction

    with pytest.raises(ValueError):
        WaveFunction(re=np.array([0.0, np.nan]), im=np.zeros(2))
    with pytest.raises(ValueError):
        FieldState(phi=np.zeros(2), p=np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        WaveFunction(re=np.zeros(3), im=np.zeros(4))


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "nope.json"
    assert main(["run-schrodinger", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    cfg = _write(tmp_path, "wrong.json", _harmonic_cfg(integrator="leapfrog"))
    # leapfrog is not a wave-system integrator
    assert main(["run-schrodinger", "--config", cfg, "--out", str(tmp_path / "y")]) == 2
    ok = _write(tmp_path, "ok.json", _harmonic_cfg())
    assert main(["verify", "--config", ok, "--seed", "-1", "--quiet"]) == 2


@pytest.mark.parametrize(
    "command",
    ["run-schrodinger", "run-field", "run-constrained", "dequantize", "spectrum", "convergence"],
)
def test_only_verify_takes_a_seed(tmp_path, capsys, command):
    # no other runner draws random numbers, so the flag is refused, not ignored
    ok = _write(tmp_path, "ok.json", _harmonic_cfg())
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", ok, "--out", str(out), "--seed", "3", "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()


def test_verify_report_deterministic_per_seed(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _harmonic_cfg())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "7", "--quiet"]) == 0
    assert (out_a / "verify_report.json").read_bytes() == (out_b / "verify_report.json").read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    for key in ("wall_time_s", "timings"):
        assert key in ma and key in mb
        ma.pop(key)
        mb.pop(key)
    assert ma == mb


def test_verify_report_times_each_check(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _harmonic_cfg())
    run_verify(parse_config(cfg), seed=7, out_dir=tmp_path / "out", quiet=True)
    report = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(report["timings"]) == {
        "dirac_structure",
        "verify_dirac_relations",
        "dirac_flow_check",
        "generalized_hamiltonian_check",
        "jacobi_cyclic_residual",
        "density_is_energy_density",
        "probability_conserved",
        "reconstruction_round_trip",
        "commuting_diagrams",
        "current_residual_decays",
        "sector_smallest_singular_values",
    }
    assert all(0.0 <= s <= report["wall_time_s"] for s in report["timings"].values())
    assert sum(report["timings"].values()) <= report["wall_time_s"]


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    cfg = _write(tmp_path, "cfg.json", _harmonic_cfg())
    proc = subprocess.run(
        [sys.executable, "-m", "schrofield", "verify", "--config", cfg, "--quiet"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr


# Arguments each subcommand parses, with and without its required --config
# (--out for render, which takes no config).
_VALID_ARGS = {
    "run-schrodinger": ["--config", "c.json", "--out", "o"],
    "run-field": ["--config", "c.json", "--out", "o", "--quiet"],
    "run-constrained": ["--out", "o", "--config", "c.json"],
    "dequantize": ["--config", "c.json", "--out", "o"],
    "spectrum": ["--config", "c.json", "--out", "o"],
    "verify": ["--config", "c.json", "--seed", "3"],
    "convergence": ["--config", "c.json", "--out", "o", "--levels", "2"],
    "render": ["--out", "o", "--quiet"],
}


def _without_required(command):
    args = _VALID_ARGS[command]
    i = args.index("--out" if command == "render" else "--config")
    return args[:i] + args[i + 2 :]


def _parsed(parser, argv, capsys):
    """(exit code, stdout, stderr, parsed arguments) of parser.parse_args(argv)."""
    try:
        code, parsed = None, vars(parser.parse_args(argv))
    except SystemExit as exc:
        code, parsed = exc.code, None
    return (code, *capsys.readouterr(), parsed)


# Each variant's arguments after the command, and the exit code it parses to
# (None for a parse that returns).
_VARIANTS = {
    "valid": (_VALID_ARGS.get, None),
    "help": (lambda command: ["-h"], 0),
    "missing-required": (_without_required, 2),
    "bogus": (lambda command: _VALID_ARGS[command] + ["--bogus"], 2),
}


@pytest.mark.parametrize("command", list(_VALID_ARGS))
@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_one_command_parser_prints_what_the_full_parser_prints(command, variant, capsys):
    assert set(_VALID_ARGS) == set(cli._COMMANDS)
    args, code = _VARIANTS[variant]
    argv = [command, *args(command)]
    lazy = _parsed(cli.build_parser(command), argv, capsys)
    assert lazy == _parsed(cli.build_parser(), argv, capsys)
    assert lazy[0] == code


@pytest.mark.parametrize(
    "argv, built",
    [(["render", "-h"], "render"), (["verify", "--bogus"], "verify"), (["-h"], None),
     (["bogus"], None), ([], None), (["--quiet", "render"], None)],
)
def test_main_builds_only_the_named_command_parser(monkeypatch, capsys, argv, built):
    calls = []
    build = cli.build_parser

    def recorded(command=None):
        calls.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    with pytest.raises(SystemExit):
        main(argv)
    assert calls == [built]
    capsys.readouterr()

"""Fault matrix of `verify`: each injected fault trips exactly its listed identities.

Faults are monkeypatched over the functions `verify` reaches, so the program
carries no fault of its own. For each fault the set of asserted identities
that fail must equal the listed set: a fault that trips fewer shows an
identity blind to it, one that trips more shows a check leaning on code it
does not name. Mutation analysis in the sense of DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978.
"""

import pytest

from schrofield import brackets
from schrofield import constrained as cn
from schrofield import correspondence as cr
from schrofield import field as fd
from schrofield import schrodinger as sd
from schrofield.config import build_scenario, config_from_dict
from schrofield.errors import OffShellError
from schrofield.runs import run_verify

from conftest import sign_flipped

SEED = 3
CONFIG = {
    "grid": {"n": 60, "x_min": -10.0, "x_max": 10.0, "boundary": "dirichlet"},
    "potential": {"name": "harmonic", "omega": 1.0},
    "initial_state": {"type": "gaussian", "center": -2.0, "width": 1.0, "momentum": 1.0},
    "integrator": "spectral",
    "dt": 0.01,
    "t_final": 1.0,
}


def _at_scaled_time(flow, factor):
    """An exact flow that evaluates its state at factor * t."""

    def faulted(spec, x, y):
        at = flow(spec, x, y)
        return lambda t: at(factor * t)

    return faulted


def _plus_k_phi(wave):
    """The potential map with re = +K phi instead of -K phi."""
    return lambda kphi, p: (-wave(kphi, p)[0], p)


def _flipped_varphi(make_onshell):
    """make_onshell with varphi = +K phi, off the constraint surface."""

    def faulted(op, phi, p, time=0.0):
        s = make_onshell(op, phi, p, time)
        return cn.ConstrainedState(phi=s.phi, p=s.p, varphi=-s.varphi, pi=s.pi, time=s.time)

    return faulted


def _rk4_at_scaled_step(rk4, factor):
    return lambda op, y, dt, out: rk4(op, y, factor * dt, out)


# fault name -> (module, attribute, replacement of the original, identities it trips)
FAULTS = {
    "none": (None, None, None, set()),
    "dirac_sign_flip": (
        brackets, "dirac_structure", sign_flipped,
        {
            "dirac_varphi_p_is_minus_K",
            "dirac_constraint_casimir",
            "dirac_wave_sector_noncanonical",
            "dirac_flow_wave_sector",
        },
    ),
    # The map is formed once, so the fault reaches every identity built on it.
    # density_is_energy_density still passes: |Psi|^2 cannot see the sign of re.
    "quantize_plus_k_phi": (
        cr, "_wave", _plus_k_phi, {"reconstruction_round_trip", "current_residual_decays"},
    ),
    "wave_flow_slow_clock": (
        sd, "_flow", lambda f: _at_scaled_time(f, 1.001),
        {"commuting_diagram_wave", "reconstruction_round_trip"},
    ),
    "field_flow_slow_clock": (
        fd, "_flow", lambda f: _at_scaled_time(f, 1.001),
        {"commuting_diagram_field", "reconstruction_round_trip"},
    ),
    "rk4_long_step": (
        cn, "_rk4", lambda f: _rk4_at_scaled_step(f, 1.0001),
        {"commuting_diagram_wave", "commuting_diagram_field"},
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_trips_exactly_its_identities(monkeypatch, fault):
    module, name, replace, expected = FAULTS[fault]
    if module is not None:
        monkeypatch.setattr(module, name, replace(getattr(module, name)))
    report, all_pass = run_verify(build_scenario(config_from_dict(CONFIG)), seed=SEED, quiet=True)
    asserted = [e for e in report["identities"] if e["asserted"]]
    assert len(asserted) == 23
    failed = {e["name"] for e in asserted if not e["passed"]}
    assert failed == expected, (sorted(failed - expected), sorted(expected - failed))
    assert all_pass == (not expected)


def test_offshell_start_is_refused(monkeypatch):
    """A flipped varphi in make_onshell is refused before any report, not reported."""
    monkeypatch.setattr(cn, "make_onshell", _flipped_varphi(cn.make_onshell))
    with pytest.raises(OffShellError):
        run_verify(build_scenario(config_from_dict(CONFIG)), seed=SEED, quiet=True)

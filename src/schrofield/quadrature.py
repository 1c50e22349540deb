"""Sampled trajectories, and uniform-grid time differencing and quadrature.

The differences and quadratures are second order throughout.
"""

import numpy as np


class Trajectory:
    """A state with a leading time axis: `times` (T,) and named (T, n) fields.

    The fields are read by attribute (`traj.re`, `traj.phi`, ...) and are the
    same names the state classes use, so elementwise functions of a state
    (`energy_densities`, `constraint_residuals`, ...) accept a trajectory.
    Every array is a read-only copy.
    """

    def __init__(self, times, **fields):
        t = np.array(times, dtype=float)
        if t.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if not fields:
            raise ValueError("a trajectory needs at least one field")
        t.setflags(write=False)
        self.times = t
        n = None
        for name, values in fields.items():
            v = np.array(values, dtype=float)
            if v.ndim != 2 or v.shape[0] != t.shape[0]:
                raise ValueError(
                    f"{name} has shape {v.shape}, expected ({t.shape[0]}, n) for {t.shape[0]} times"
                )
            if n is not None and v.shape[1] != n:
                raise ValueError(f"{name} has {v.shape[1]} points, expected {n}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            n = v.shape[1]
            v.setflags(write=False)
            setattr(self, name, v)


def uniform_dt(times):
    """Validate that times are uniformly spaced and increasing; return dt."""
    times = np.asarray(times, dtype=float)
    if times.size < 3:
        raise ValueError("need at least 3 time samples")
    steps = np.diff(times)
    dt = float(steps[0])
    if dt <= 0.0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("time samples must be uniformly spaced and increasing")
    return dt


def ddt(values, dt):
    """d/dt of values[k, ...]: central inside, one-sided 2nd order at the ends."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out


def ddt_interior(values, dt):
    """Central d/dt on the interior samples values[1:-1]."""
    v = np.asarray(values, dtype=float)
    return (v[2:] - v[:-2]) / (2.0 * dt)


def d2dt2_interior(values, dt):
    """Central d2/dt2 on the interior samples values[1:-1]."""
    v = np.asarray(values, dtype=float)
    return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dt * dt)


def trapezoid(values, dt):
    """Composite trapezoid rule for samples of a scalar integrand."""
    v = np.asarray(values, dtype=float)
    return float(dt * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def cumulative_trapezoid(values, dt):
    """Running trapezoid integral along axis 0, starting at zero."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    np.cumsum(0.5 * dt * (v[1:] + v[:-1]), axis=0, out=out[1:])
    return out

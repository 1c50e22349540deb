"""Every run-loop stepper gives the same bits whatever blocks it steps in.

Each picture of `runs` builds its stepper from a table keyed by integrator,
and the run loop calls `stepper.steps(ys, ky)` once per block: ys[0] is the
current state, ky its products, and the call writes ys[1:] and returns
their products, the picture's `products` of those states. A block ends
wherever the loop's snapshot schedule and buffer size put its end, so the
states and products must not depend on it: a value carried from one call to
the next, or a miscounted step of an exact flow, would show up here as a
difference between block splits.
"""

from functools import partial

import numpy as np
import pytest

from schrofield import runs
from schrofield.config import build_scenario, config_from_dict

from test_run_loop import NSTEPS, _config

PICTURES = ("_WAVE", "_FIELD", "_CONSTRAINED")
CASES = [(name, integrator) for name in PICTURES for integrator in getattr(runs, name).steppers]
# The block ends of each split; the last block ends at NSTEPS.
SPLITS = {"one-block": (), "1-7-17": (1, 7, 17), "single-steps": tuple(range(1, NSTEPS))}


def _stepped(picture, integrator, scenario, ends):
    """States and products of NSTEPS steps from the initial state, in blocks ending at `ends`."""
    y0 = picture.initial(scenario)
    products = partial(picture.products, scenario.operator)
    stepper = picture.steppers[integrator](scenario, y0, products)
    ys = np.empty((NSTEPS + 1,) + y0.shape)
    ys[0] = y0
    kys = [products(ys[:1])]
    for start, stop in zip((0, *ends), (*ends, NSTEPS)):
        kys.append(stepper.steps(ys[start : stop + 1], kys[-1][-1]))
    return ys, np.concatenate(kys)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("name, integrator", CASES)
def test_block_splits_give_the_same_bits(name, integrator, boundary):
    picture = getattr(runs, name)
    scenario = build_scenario(config_from_dict(_config(integrator, boundary)))
    runs_by_split = {
        split: _stepped(picture, integrator, scenario, ends) for split, ends in SPLITS.items()
    }
    ys, kys = runs_by_split["one-block"]
    assert np.isfinite(ys).all()
    # what a stepper returns is the picture's products of the states it wrote
    assert kys.tobytes() == picture.products(scenario.operator, ys).tobytes()
    for split, (got_ys, got_kys) in runs_by_split.items():
        assert got_ys.tobytes() == ys.tobytes(), split
        assert got_kys.tobytes() == kys.tobytes(), split

"""The array-backed Trajectory: one time axis, named (T, n) fields, its checks."""

import numpy as np
import pytest

from schrofield import Trajectory


def test_fields_are_read_only_copies_by_name():
    phi = np.arange(12.0).reshape(3, 4)
    traj = Trajectory([0.0, 0.5, 1.0], phi=phi, p=-phi)
    assert traj.phi.shape == traj.p.shape == (3, 4)
    phi[0, 0] = 99.0
    assert traj.phi[0, 0] == 0.0
    for values in (traj.times, traj.phi, traj.p):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0


@pytest.mark.parametrize(
    "times, message",
    [
        ([[0.0, 1.0, 2.0]], "times must be one-dimensional"),
        (0.0, "times must be one-dimensional"),
        ([0.0, np.nan, 2.0], "times must be finite"),
        ([0.0, 1.0, np.inf], "times must be finite"),
    ],
)
def test_rejects_bad_times(times, message):
    with pytest.raises(ValueError, match=message):
        Trajectory(times, re=np.zeros((3, 4)))


@pytest.mark.parametrize(
    "re",
    [np.zeros((2, 4)), np.zeros((4, 4)), np.zeros(3), np.zeros((3, 4, 1))],
)
def test_rejects_a_field_not_aligned_with_times(re):
    with pytest.raises(ValueError, match=r"re has shape .*, expected \(3, n\) for 3 times"):
        Trajectory([0.0, 0.1, 0.2], re=re)


def test_rejects_fields_of_different_n():
    with pytest.raises(ValueError, match="im has 5 points, expected 4"):
        Trajectory([0.0, 0.1, 0.2], re=np.zeros((3, 4)), im=np.zeros((3, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_names_the_non_finite_field(bad):
    varphi = np.zeros((3, 4))
    varphi[2, 1] = bad
    zero = np.zeros((3, 4))
    with pytest.raises(ValueError, match="^varphi must be finite$"):
        Trajectory([0.0, 0.1, 0.2], phi=zero, p=zero, varphi=varphi, pi=zero)


def test_needs_a_field():
    with pytest.raises(ValueError, match="at least one field"):
        Trajectory([0.0, 0.1, 0.2])

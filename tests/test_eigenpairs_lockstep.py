"""`lattice.eigenpairs` against the per-column bisection it replaced, bit for bit.

The oracle `conftest.bisection_eigenpairs` bisects one column at a time on
the scalar Sturm count `_count_below`. `eigenpairs` brackets all columns in
lockstep, counting most passes by the odd-even reduction `_counts_below`, and
then checks and mends each final bracket on `_count_below`. With a monotone
scalar count both must return the same kappa and vectors to the last bit,
and decline (None) the same requests.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisection_eigenpairs
from schrofield import Potential, build_grid, build_operator, eigendecompose, lattice
from schrofield.lattice import eigenpairs
from schrofield.presets import potential_from_spec


def assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def _op(n, potential, x_min=-20.0, x_max=20.0):
    grid = build_grid(n, x_min, x_max, "dirichlet")
    return build_operator(grid, potential_from_spec(grid, potential))


def _counting(monkeypatch, name):
    calls = []
    original = getattr(lattice, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, name, counted)
    return calls


# Every pass through the reduction, whatever the number of shifts.
ALWAYS_REDUCE = 0


@st.composite
def inline_cases(draw):
    n = draw(st.integers(3, 300))
    span = draw(st.floats(1.0, 200.0))
    v = draw(
        st.one_of(
            st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n),
            st.lists(st.sampled_from([0.0, 1.0, 7.5]), min_size=n, max_size=n),
        )
    )
    op = build_operator(build_grid(n, 0.0, span, "dirichlet"), Potential(v))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8, unique=True))
    return op, cols, draw(st.booleans())


@settings(max_examples=120, deadline=None, database=None)
@given(inline_cases())
def test_matches_bisection_on_inline_potentials(case):
    op, cols, reduce_all = case
    with pytest.MonkeyPatch.context() as mp:
        if reduce_all:
            mp.setattr(lattice, "_REDUCTION_MIN_SIZE", ALWAYS_REDUCE)
        assert_same(eigenpairs(op, cols), bisection_eigenpairs(op, cols))


@pytest.mark.parametrize("n", [800, 1200, 3200])
def test_matches_bisection_on_harmonic_top_modes(n, monkeypatch):
    op = _op(n, {"name": "harmonic", "omega": 1.0})
    cols = list(range(n - 8, n))
    reductions = _counting(monkeypatch, "_counts_below")
    got = eigenpairs(op, cols)
    assert reductions, "8 modes at this n take the reduction"
    assert_same(got, bisection_eigenpairs(op, cols))


def test_matches_bisection_on_free_top_modes_at_3200():
    # Its top eigenvalues sit far below max|kappa| in magnitude, where the
    # reduction's count and the Sturm count can settle on different floats.
    op = _op(3200, "free")
    cols = list(range(3192, 3200))
    assert_same(eigenpairs(op, cols), bisection_eigenpairs(op, cols))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("reduce_all", [False, True])
def test_matches_bisection_on_the_smallest_grids(n, reduce_all, monkeypatch):
    if reduce_all:
        monkeypatch.setattr(lattice, "_REDUCTION_MIN_SIZE", ALWAYS_REDUCE)
    for potential in ("free", {"name": "harmonic", "omega": 1.0}):
        op = _op(n, potential, x_min=-2.0, x_max=2.0)
        for k in range(1, n + 1):
            for cols in itertools.combinations(range(n), k):
                assert_same(eigenpairs(op, list(cols)), bisection_eigenpairs(op, list(cols)))


def _double_well():
    """The double well of test_eigenpairs: its lowest pair is split far below the isolation gap."""
    x = build_grid(200, -10.0, 10.0, "dirichlet").points()
    well = 0.5 * x * x + 30.0 * np.exp(-0.5 * x * x)
    return _op(200, {"name": "inline", "values": well.tolist()}, -10.0, 10.0)


@pytest.mark.parametrize("cols", [[199], [197], [198, 199], [190, 195]])
def test_declines_what_bisection_declines(cols, monkeypatch):
    monkeypatch.setattr(lattice, "_REDUCTION_MIN_SIZE", ALWAYS_REDUCE)
    op = _double_well()
    want = bisection_eigenpairs(op, cols)
    assert_same(eigenpairs(op, cols), want)
    if cols[-1] == 199:
        assert want is None


def test_one_mode_below_the_break_even_counts_one_shift_at_a_time(monkeypatch):
    op = _op(400, {"name": "harmonic", "omega": 1.0})
    reductions = _counting(monkeypatch, "_counts_below")
    assert_same(eigenpairs(op, [399]), bisection_eigenpairs(op, [399]))
    assert reductions == []


def _off_by_one(original):
    """`_counts_below` with every third count raised by one and every third lowered."""

    def wrong(diag, b2, shifts):
        count, logdet = original(diag, b2, shifts)
        step = np.array([1, -1, 0])[np.arange(count.size) % 3]
        return np.clip(count + step, 0, diag.size), logdet

    return wrong


def test_wrong_reduction_counts_are_mended(monkeypatch):
    op = _op(1200, {"name": "harmonic", "omega": 1.0})
    cols = list(range(1192, 1200))
    want = bisection_eigenpairs(op, cols)
    scalar = _counting(monkeypatch, "_count_below")
    assert_same(eigenpairs(op, cols), want)
    right = len(scalar)
    scalar.clear()
    monkeypatch.setattr(lattice, "_counts_below", _off_by_one(lattice._counts_below))
    assert_same(eigenpairs(op, cols), want)
    assert len(scalar) > right


def _midpoints(op):
    """The scaled stencil, and shifts below, between and above its dense eigenvalues.

    Each shift is returned with the number of eigenvalues below it. A gap
    under 1e-12 max|kappa| is skipped: its midpoint is within roundoff of
    both ends, and no computed count there is right or wrong.
    """
    scale, diag, b = lattice._scaled_stencil(op)
    w = np.ldexp(eigendecompose(op).eigenvalues, scale)
    shifts = np.concatenate([[w[0] - 1e-3], 0.5 * (w[1:] + w[:-1]), [w[-1] + 1e-3]])
    gaps = np.concatenate([[np.inf], np.diff(w), [np.inf]])
    keep = gaps > 1e-12 * np.max(np.abs(w))
    return diag, b, shifts[keep], np.arange(op.n + 1)[keep]


@pytest.mark.parametrize(
    "op",
    [
        _op(200, {"name": "harmonic", "omega": 1.0}),
        _op(257, "free"),
        _op(300, {"name": "square_well", "depth": 5.0, "width": 2.0}),
        build_operator(
            build_grid(150, 0.0, 30.0, "dirichlet"),
            Potential(np.random.default_rng(3).uniform(-50.0, 50.0, 150)),
        ),
    ],
    ids=["harmonic", "free", "square_well", "random"],
)
def test_counts_below_is_the_sturm_count_between_eigenvalues(op):
    diag, b, shifts, below = _midpoints(op)
    assert shifts.size > op.n // 2
    counts, logdet = lattice._counts_below(np.array(diag), b * b, shifts)
    assert counts.tolist() == [lattice._count_below(diag, b * b, x) for x in shifts]
    assert counts.tolist() == below.tolist()
    assert np.all(np.isfinite(logdet))


@pytest.mark.parametrize("block", [1, 1165])
def test_counts_below_gives_the_same_bits_in_blocks(block, monkeypatch):
    # 168 shifts at n = 233: one per block, or blocks of 5 and a last one of 3.
    diag, b, shifts, _ = _midpoints(_op(233, {"name": "harmonic", "omega": 1.0}))
    whole = lattice._counts_below(np.array(diag), b * b, shifts)
    monkeypatch.setattr(lattice, "_REDUCTION_BLOCK", block)
    blocked = lattice._counts_below(np.array(diag), b * b, shifts)
    assert np.array_equal(blocked[0], whole[0])
    assert np.array_equal(blocked[1], whole[1])


@pytest.mark.parametrize("n", [4, 16, 100])
def test_counts_below_floors_zero_pivots(n):
    # At the diagonal of a free stencil every first-level pivot is exactly 0.
    # Floored to -_PIVMIN, as the Sturm count floors its pivots, they count as
    # negative, and the count is the exact n / 2 (the shift lies midway
    # between the two middle eigenvalues of even n).
    op = build_operator(build_grid(n, 0.0, 10.0, "dirichlet"), Potential(np.zeros(n)))
    _, diag, b = lattice._scaled_stencil(op)
    counts, _ = lattice._counts_below(np.array(diag), b * b, [diag[0]])
    assert counts.tolist() == [lattice._count_below(diag, b * b, diag[0])] == [n // 2]


# A plateau potential on a long span: the shift at the diagonal of its
# zero-potential points makes exact zero pivots, floored to -2^-500, on
# several levels of the reduction, and the squared couplings overflow.
PLATEAU = [7.5, 1.0, 7.5, 7.5, 7.5, 0.0, 0.0, 1.0, 7.5, 7.5, 0.0, 7.5, 7.5, 7.5, 1.0, 7.5, 7.5]


def test_counts_below_overflows_without_a_warning(monkeypatch):
    op = build_operator(build_grid(17, 0.0, 200.0, "dirichlet"), Potential(PLATEAU))
    _, diag, b = lattice._scaled_stencil(op)
    shifts = sorted(set(diag))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, logdet = lattice._counts_below(np.array(diag), b * b, shifts)
        monkeypatch.setattr(lattice, "_REDUCTION_MIN_SIZE", ALWAYS_REDUCE)
        got = eigenpairs(op, list(range(17)))
    assert not np.all(np.isfinite(logdet))
    assert_same(got, bisection_eigenpairs(op, list(range(17))))

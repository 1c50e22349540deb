"""The CSV writer against the row-by-row formatting it replaced.

`runs.write_csv` writes a chunk of rows at a time, and takes columns
formatted ahead of time (lists of strings), columns encoded ahead of time
(`runs._Encoded`, as the x column of every snapshot is) and 2-D arrays that
stand for several columns. Tables of at least `runs._KERNEL_CELLS` cells of
floats are encoded by the vectorized kernel of `floatrepr`, smaller ones
formatted by str. Every file must still be, byte for byte, the header line
and then each row's floats written by `repr` and joined by commas.
"""

import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schrofield import floatrepr, runs
from schrofield.cli import main
from schrofield.correspondence import _density_and_phase
from schrofield.lattice import build_grid

BENCH_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_output.json"

# Floats at the edges of repr's forms: signed zeros, subnormals and the
# smallest normal, the switch to exponent notation at 1e16 and below 1e-4,
# the extremes of the range, and the non-finite values.
SPECIAL = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1e16,
    9999999999999998.0,
    -1e16,
    1e-4,
    1e-5,
    0.00011,
    9.999999999999999e-05,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e-300,
    1e300,
    0.1,
    1.0 / 3.0,
    123456789012345680.0,
    math.inf,
    -math.inf,
    math.nan,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _reference(header, table):
    """The header line, then each row's values written by repr and joined by commas."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


@st.composite
def tables(draw):
    """A (rows, cols) float table, with rows across several chunks of the writer."""
    cols = draw(st.integers(1, 8))
    rows = draw(st.integers(0, 3 * runs._CSV_CELLS // cols + 2))
    return draw(arrays(np.float64, (rows, cols), elements=FLOATS))


def _kernel_values():
    """Doubles at and around every edge of Schubfach and of repr's forms, and random ones.

    10^6 random bit patterns; every power of 2, both signs; the powers of 10
    and their neighbouring floats; the subnormals below 5000 ulps; integers
    around 2^53; a few ulps around the switches to exponent notation at 1e16
    and below 1e-4; signed zeros and infinities, and NaNs with payloads and
    either sign.
    """
    rng = np.random.default_rng(20200101)
    powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
    powers10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    switches = np.array([1e16, 1e-4, -1e16, -1e-4])
    ulps = np.arange(-8, 9)
    special = np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001,
         0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
         0x8000000000000000],
        dtype=np.uint64,
    )
    return np.concatenate([
        rng.integers(0, 2**64, size=10**6, dtype=np.uint64),
        powers2.view(np.uint64),
        (-powers2).view(np.uint64),
        powers10.view(np.uint64),
        np.nextafter(powers10, 0.0).view(np.uint64),
        np.nextafter(powers10, np.inf).view(np.uint64),
        np.arange(5000, dtype=np.uint64),
        np.arange(5000, dtype=np.uint64) | np.uint64(1 << 63),
        (2.0**53 + np.arange(-2048.0, 2049.0)).view(np.uint64),
        (switches.view(np.int64)[:, None] + ulps).ravel().view(np.uint64),
        special,
    ]).view(np.float64)


def test_kernel_is_repr():
    values = _kernel_values()
    for start in range(0, len(values), 1 << 16):
        part = values[start : start + (1 << 16)]
        words = floatrepr.encode(part)
        words[:, 3] |= ord("\n") << 56
        texts = floatrepr.texts(words).decode()
        expected = "\n".join(map(repr, part.tolist())) + "\n"
        if texts != expected:
            pairs = zip(expected.split("\n"), texts.split("\n"))
            assert [(r, t) for r, t in pairs if r != t][:5] == []
        assert texts == expected


@pytest.mark.parametrize("kernel_cells", [0, math.inf], ids=["kernel", "str"])
@settings(max_examples=60, deadline=None, database=None)
@given(table=tables(), data=st.data())
def test_write_csv_is_repr_joined_by_commas(tmp_path_factory, kernel_cells, table, data):
    cols = table.shape[1]
    header = [f"c{j}" for j in range(cols)]
    # Split the table into consecutive parts; each part is passed as columns
    # formatted or encoded ahead of time, as strided 1-D columns, or as one
    # 2-D array.
    cuts = sorted(data.draw(st.sets(st.integers(1, cols - 1), max_size=cols - 1))) if cols > 1 else []
    columns = []
    for lo, hi in zip([0, *cuts], [*cuts, cols]):
        kind = data.draw(st.sampled_from(["formatted", "encoded", "columns", "block"]))
        if kind == "block":
            columns.append(table[:, lo:hi])
        elif kind == "formatted":
            columns.extend(list(map(repr, table[:, j].tolist())) for j in range(lo, hi))
        elif kind == "encoded":
            columns.extend(runs._Encoded(table[:, j]) for j in range(lo, hi))
        else:
            columns.extend(table[:, j] for j in range(lo, hi))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with mock.patch.object(runs, "_KERNEL_CELLS", kernel_cells):
        runs.write_csv(path, header, columns)
    assert path.read_bytes() == _reference(header, table).encode()


@pytest.mark.parametrize("below", [1, 0], ids=["below", "at"])
def test_tables_either_side_of_the_kernel_threshold(tmp_path, below):
    rows = runs._KERNEL_CELLS - below
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 1)) * 10.0 ** rng.integers(-30, 30, (rows, 1))
    written = []
    for kernel_cells in (runs._KERNEL_CELLS, 0, math.inf):
        with mock.patch.object(runs, "_KERNEL_CELLS", kernel_cells):
            runs.write_csv(tmp_path / "t.csv", ["v"], [table[:, 0]])
        written.append((tmp_path / "t.csv").read_bytes())
    assert written == [_reference(["v"], table).encode()] * 3


def test_kernel_threshold_is_the_measured_crossover():
    """_KERNEL_CELLS is the crossover that `tools/sweep.py --layer output` recorded."""
    sources = json.loads(BENCH_OUTPUT.read_text())["sources"]
    tree = next(v for name, v in sources.items() if name.startswith("working tree"))
    assert runs._KERNEL_CELLS == tree["crossover_cells"]


def test_snapshot_memory_is_bounded_by_a_chunk(tmp_path):
    """An n=20,000 snapshot is encoded a chunk at a time, never as a whole table."""
    n = 20000
    x = build_grid(n, -20.0, 20.0).points()
    re, im = np.exp(-0.5 * (x + 2.0) ** 2) * np.cos(x), np.exp(-0.5 * (x + 2.0) ** 2) * np.sin(x)
    p_dens, phase = _density_and_phase(1.0, re, im)
    x = runs._Encoded(x)
    x.words  # encoded once per command, before its first snapshot
    columns = [x, re, im, p_dens, phase, 0.5 * p_dens]
    tracemalloc.start()
    try:
        runs.write_csv(tmp_path / "s.csv", ["x", "re", "im", "P", "S", "E"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 320 bytes a cell of a chunk were measured; the words alone of the
    # whole table, encoded at once, would take 32 bytes a cell.
    assert peak <= 512 * runs._CSV_CELLS
    assert peak <= 32 * 6 * n


def test_write_csv_takes_ints_strings_and_ranges(tmp_path):
    path = tmp_path / "t.csv"
    runs.write_csv(path, ["study", "level", "h"], [("cn", "rk4"), range(2), np.array([0.5, -0.0])])
    assert path.read_text() == "study,level,h\ncn,0,0.5\nrk4,1,-0.0\n"


def test_write_csv_refuses_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValueError, match="rows"):
        runs.write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


def _chunk_rows():
    """Rows per chunk of a six-column snapshot: x, re, im, P, S, E."""
    return runs._CSV_CELLS // 6


def _run_at(tmp_path, n):
    cfg = {
        "grid": {"n": n, "x_min": -12.0, "x_max": 12.0},
        "potential": {"name": "harmonic", "omega": 1.0},
        "initial_state": {"type": "gaussian", "center": -1.0, "width": 1.0, "momentum": 1.0},
        "integrator": "crank_nicolson",
        "dt": 0.01,
        "t_final": 0.04,
        "output": {"snapshot_stride": 2},
    }
    path = tmp_path / f"n{n}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"run{n}"
    assert main(["run-schrodinger", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    return out


def test_snapshots_at_a_chunk_boundary(tmp_path):
    for n in (_chunk_rows(), _chunk_rows() + 1):
        out = _run_at(tmp_path, n)
        x = [repr(v) for v in build_grid(n, -12.0, 12.0).points().tolist()]
        snapshots = sorted(out.glob("snapshot_*.csv"))
        assert len(snapshots) == 3
        for path in snapshots:
            text = path.read_text()
            header, *lines = text.splitlines()
            assert header == "x,re,im,P,S,E"
            cells = [line.split(",") for line in lines]
            assert len(cells) == n and all(len(row) == 6 for row in cells)
            # The x column is the same in every snapshot, and every cell is
            # the repr of the float it parses to.
            assert [row[0] for row in cells] == x
            table = np.array(cells, dtype=float)
            assert text == _reference(header.split(","), table)
            # Rows stay aligned across the boundary: P is re^2 + im^2 row by row.
            re, im, p_dens = table[:, 1], table[:, 2], table[:, 3]
            assert np.array_equal(p_dens, re * re + im * im)

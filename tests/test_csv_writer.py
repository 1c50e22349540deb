"""The CSV writer against the row-by-row formatting it replaced.

`runs.write_csv` formats a chunk of rows at a time, column by column, and
takes columns formatted ahead of time (lists of strings, as the x column of
every snapshot is) and 2-D arrays that stand for several columns. Every
file must still be, byte for byte, the header line and then each row's
floats written by `repr` and joined by commas.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schrofield import runs
from schrofield.cli import main
from schrofield.lattice import build_grid

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


@settings(max_examples=60, deadline=None, database=None)
@given(table=tables(), data=st.data())
def test_write_csv_is_repr_joined_by_commas(tmp_path_factory, table, data):
    cols = table.shape[1]
    header = [f"c{j}" for j in range(cols)]
    # Split the table into consecutive parts; each part is passed as columns
    # formatted ahead of time, as strided 1-D columns, or as one 2-D array.
    cuts = sorted(data.draw(st.sets(st.integers(1, cols - 1), max_size=cols - 1))) if cols > 1 else []
    columns = []
    for lo, hi in zip([0, *cuts], [*cuts, cols]):
        kind = data.draw(st.sampled_from(["formatted", "columns", "block"]))
        if kind == "block":
            columns.append(table[:, lo:hi])
        elif kind == "formatted":
            columns.extend(list(map(repr, table[:, j].tolist())) for j in range(lo, hi))
        else:
            columns.extend(table[:, j] for j in range(lo, hi))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    runs.write_csv(path, header, columns)
    assert path.read_bytes() == _reference(header, table).encode()


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

"""Deterministic SVG line plots of snapshot CSVs.

Output is a pure function of the data: fixed canvas, fixed palette, no
timestamps, so repeated invocations are byte-identical.
"""

from pathlib import Path

WIDTH = 800
HEIGHT = 500
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

_WAVE_COLUMNS = ("re", "im", "P")
_FIELD_COLUMNS = ("phi", "p", "E")


def _read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(float(cell))
    return header, columns


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return [out_lo + (v - lo) * (out_hi - out_lo) / span for v in values]


def _polyline(xs, ys, color):
    pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def render_snapshot(csv_path, svg_path):
    """Render one snapshot CSV to an SVG with fixed geometry."""
    header, columns = _read_csv(csv_path)
    if "x" not in header:
        raise ValueError(f"{csv_path}: missing 'x' column")
    if all(c in header for c in _WAVE_COLUMNS[:2]):
        series = [c for c in _WAVE_COLUMNS if c in header]
    elif all(c in header for c in _FIELD_COLUMNS[:2]):
        series = [c for c in _FIELD_COLUMNS if c in header]
    else:
        raise ValueError(f"{csv_path}: no recognized field columns in {header}")

    x = columns["x"]
    ys = [columns[name] for name in series]
    y_lo = min(min(col) for col in ys)
    y_hi = max(max(col) for col in ys)
    px = _scale(x, x[0], x[-1], MARGIN, WIDTH - MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for name, col, color in zip(series, ys, PALETTE):
        py = _scale(col, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        parts.append(_polyline(px, py, color))
    legend_y = 20
    for name, color in zip(series, PALETTE):
        parts.append(
            f'<text x="{MARGIN + 10}" y="{legend_y}" fill="{color}" '
            f'font-family="monospace" font-size="14">{name}</text>'
        )
        legend_y += 16
    parts.append(
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 20}" font-family="monospace" '
        f'font-size="12">x: {x[0]!r} .. {x[-1]!r}</text>'
    )
    parts.append(
        f'<text x="{MARGIN}" y="{MARGIN - 10}" font-family="monospace" '
        f'font-size="12">y: {y_lo!r} .. {y_hi!r}</text>'
    )
    parts.append("</svg>")
    Path(svg_path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def render_snapshots(run_dir):
    """Render every snapshot CSV in a run directory; returns the SVG paths.

    A run_dir that is not a directory is a ValueError.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ValueError(f"no run directory {run_dir}")
    written = []
    for csv_path in sorted(run_dir.glob("snapshot_*.csv")):
        svg_path = csv_path.with_suffix(".svg")
        render_snapshot(csv_path, svg_path)
        written.append(svg_path)
    return written

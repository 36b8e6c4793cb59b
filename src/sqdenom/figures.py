"""The six report figures with companion CSV data files.

fig1  sigma scatter, 1 <= a <= 500
fig2  the same scatter with the lower (blue) and upper (red) bound curves
fig3  tau heatmap, 8 <= a <= 256, 2 <= s <= 100, grayscale clamped at 10
fig4  tau-step heatmap, 1 <= a <= 256: black +1, red -1, white 0
fig5  sigma scatter on 100^2 <= a <= 101^2 with the matching curve family
fig6  off-bound points only, 1 <= a <= 2000

CSV companions carry the exact integer data; decimals appear only inside
the SVG coordinates.  Output is byte-deterministic.
"""

from __future__ import annotations

from operator import sub
from pathlib import Path

from . import svg
from .analysis import sweep
from .sigmacore import sigma_k, tau_columns

__all__ = ["FIG5_K_VALUES", "generate_figures", "heatmap_data", "heatmap_svg", "heatmap_text"]

FIG5_K_VALUES = tuple(range(1, 16)) + (18, 19, 22, 29, 40)

# The most cells a heatmap computes.  The grid is held whole before its
# text is written: a 1000 x 1000 grid peaked at about 250 MB RSS as SVG
# and 57 MB as CSV, so the cells are counted before any column is built.
HEATMAP_MAX_CELLS = 10**6

LOWER_COLOR = "#1f77b4"  # blue
UPPER_COLOR = "#d62728"  # red

_CURVE_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def write_csv(fh, header, rows) -> None:
    """Write header and rows in the one CSV dialect of every output.

    Every field of every row is an int, and a bool is written as 1/0; each
    row is a tuple as long as the header.  No such field needs quoting, so
    a header line and one "%d,...,%d" line per row are the bytes that
    csv.writer(fh, lineterminator="\\n") writes for the same rows.
    """
    line = ",".join(["%d"] * len(header)) + "\n"
    write = fh.write
    write(",".join(header) + "\n")
    for row in rows:
        write(line % row)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(fh, header, rows)


def _scatter_sigma(title, points, curves=None, width=760):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    y_hi = max(ys)
    frame = svg.Frame(width, 420, min(xs), max(xs), 0, y_hi + 2)
    parts = svg.open_svg(frame, title)
    svg.draw_axes(parts, frame, "a", "sigma(a)")
    for color, pts in curves or []:
        # split runs where the curve leaves the visible band
        run = []
        for x, y in pts:
            if y <= y_hi + 2:
                run.append((x, y))
            elif run:
                svg.draw_polyline(parts, frame, run, color)
                run = []
        if run:
            svg.draw_polyline(parts, frame, run, color)
    svg.draw_points(parts, frame, points)
    return svg.close_svg(parts)


def _gray(level: float) -> str:
    # 0 -> white, 1 -> black
    v = round(255 * (1 - level))
    return f"rgb({v},{v},{v})"


# tau heatmap fill per count, saturating at black from 10 up
_TAU_FILLS = tuple(_gray(v / 10) for v in range(11))


def _fig12(out_dir: Path, records) -> None:
    points = [(r.a, r.sigma) for r in records]
    _write_csv(out_dir / "fig1.csv", ["a", "sigma"], points)
    (out_dir / "fig1.svg").write_text(_scatter_sigma("sigma(a) for 1 <= a <= 500", points))

    _write_csv(
        out_dir / "fig2.csv",
        ["a", "sigma", "sigma1", "upper"],
        [(r.a, r.sigma, r.sigma1, r.upper) for r in records],
    )
    curves = [
        (LOWER_COLOR, [(r.a, r.sigma1) for r in records]),
        (UPPER_COLOR, [(r.a, r.upper) for r in records]),
    ]
    (out_dir / "fig2.svg").write_text(
        _scatter_sigma("sigma(a) with its bounds, 1 <= a <= 500", points, curves)
    )


def _delta_fill(d: int) -> str:
    if d == 1:
        return "black"
    if d == -1:
        return "red"
    return "white"


def _tau_fill(v: int) -> str:
    return _TAU_FILLS[min(v, 10)]


def _heatmap_columns(mode: str, a_lo: int, a_hi: int, s_lo: int, s_hi: int):
    """The grid's values, one list per a over s_lo..s_hi: tau(a, s), or in
    delta mode tau(a, s) - tau(a, s-1), differences within a tau column
    that starts one s lower."""
    if mode not in ("tau", "delta"):
        raise ValueError(f"unknown heatmap mode: {mode!r}")
    if a_lo < 1 or a_hi < a_lo:
        raise ValueError("need 1 <= a-min <= a-max")
    if s_lo < 1 or s_hi < s_lo:
        raise ValueError("need 1 <= s-min <= s-max")
    if mode == "delta" and s_lo < 2:
        raise ValueError("delta mode needs s-min >= 2")
    cells = (a_hi - a_lo + 1) * (s_hi - s_lo + 1)
    if cells > HEATMAP_MAX_CELLS:
        raise ValueError(f"heatmap would hold {cells} cells, over the cap of {HEATMAP_MAX_CELLS}")
    if mode == "tau":
        return tau_columns(a_lo, a_hi, s_lo, s_hi)
    return [list(map(sub, col[1:], col)) for col in tau_columns(a_lo, a_hi, s_lo - 1, s_hi)]


def _heatmap_csv(mode: str, a_lo: int, s_lo: int, columns) -> str:
    """write_csv's bytes for the grid: "a," then "s,v\n" a cell."""
    heads = [f"{a}," for a in range(a_lo, a_lo + len(columns))]
    body = svg.join_cells(heads, columns, "", lambda j, v: f"{s_lo + j},{v}\n")
    return f"a,s,{mode}\n{body}"


def _heatmap_svg(mode: str, a_lo: int, s_lo: int, columns) -> str:
    a_hi, s_hi = a_lo + len(columns) - 1, s_lo + len(columns[0]) - 1
    # svg.Frame's floats hold every cell edge a +- 0.5 only below 2^52
    if max(a_hi, s_hi) >= 2**52:
        raise ValueError("heatmap SVG needs a-max and s-max below 2^52; use --format csv")
    if mode == "tau":
        title, fill = "tau(a, s): white 0, black >= 10", _tau_fill
    else:
        title, fill = "tau(a, s) - tau(a, s-1): black +1, red -1, white 0", _delta_fill
    frame = svg.Frame(820, 460, a_lo - 0.5, a_hi + 0.5, s_lo - 0.5, s_hi + 0.5)
    parts = svg.open_svg(frame, title)
    svg.draw_cells(parts, frame, a_lo, s_lo, columns, fill)
    svg.draw_axes(parts, frame, "a", "s")
    return svg.close_svg(parts)


def heatmap_text(mode: str, fmt: str, a_lo: int, a_hi: int, s_lo: int, s_hi: int) -> str:
    """The tau or tau-step grid as CSV or SVG text, from one column pass."""
    columns = _heatmap_columns(mode, a_lo, a_hi, s_lo, s_hi)
    if fmt == "csv":
        return _heatmap_csv(mode, a_lo, s_lo, columns)
    return _heatmap_svg(mode, a_lo, s_lo, columns)


def heatmap_data(mode: str, a_lo: int, a_hi: int, s_lo: int, s_hi: int):
    """(header, rows) for a tau or tau-step grid, sorted by a then s.

    The rows are the (a, s, value) cells of tau_columns' grid, which costs
    one isqrt a cell; delta mode takes one more s a column.
    """
    columns = _heatmap_columns(mode, a_lo, a_hi, s_lo, s_hi)
    s_range = range(s_lo, s_hi + 1)
    rows = [(a, s, v) for a, col in zip(range(a_lo, a_hi + 1), columns)
            for s, v in zip(s_range, col)]
    return ["a", "s", mode], rows


def heatmap_svg(mode: str, rows) -> str:
    """Draw the rows of heatmap_data(mode, ...): a full grid, sorted by a
    then s, spanning the first row's (a, s) to the last row's."""
    (a_lo, s_lo, _), (a_hi, s_hi, _) = rows[0], rows[-1]
    depth = s_hi - s_lo + 1
    if len(rows) != (a_hi - a_lo + 1) * depth:
        raise ValueError("heatmap_svg needs every cell of the grid")
    values = [v for _, _, v in rows]
    columns = [values[i:i + depth] for i in range(0, len(values), depth)]
    return _heatmap_svg(mode, a_lo, s_lo, columns)


def _fig_heatmap(out_dir: Path, name: str, mode: str, a_lo: int, columns) -> None:
    (out_dir / f"{name}.csv").write_text(_heatmap_csv(mode, a_lo, 2, columns), newline="")
    (out_dir / f"{name}.svg").write_text(_heatmap_svg(mode, a_lo, 2, columns))


def _fig5(out_dir: Path) -> None:
    a_lo, a_hi = 100 * 100, 101 * 101
    values = [(r.a, r.sigma) for r in sweep(a_lo, a_hi)]
    _write_csv(out_dir / "fig5.csv", ["a", "sigma"], values)
    curve_rows = []
    curves = []
    for i, k in enumerate(FIG5_K_VALUES):
        pts = [(a, sigma_k(a, k)) for a in range(a_lo, a_hi + 1)]
        curves.append((_CURVE_COLORS[i % len(_CURVE_COLORS)], pts))
        curve_rows.extend((a, k, y) for a, y in pts)
    curve_rows.sort()
    _write_csv(out_dir / "fig5_curves.csv", ["a", "k", "sigma_k"], curve_rows)
    (out_dir / "fig5.svg").write_text(
        _scatter_sigma(
            "sigma(a) on 100^2 <= a <= 101^2 with curve family",
            values, curves, width=900,
        )
    )


def _fig6(out_dir: Path, records) -> None:
    points = [(r.a, r.sigma) for r in records if not r.on_bound]
    _write_csv(out_dir / "fig6.csv", ["a", "sigma"], points)
    (out_dir / "fig6.svg").write_text(
        _scatter_sigma("off-bound sigma(a) for 1 <= a <= 2000", points)
    )


def generate_figures(out_dir) -> list[Path]:
    """Write fig1..fig6 SVG + CSV into out_dir; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = sweep(1, 2000)  # fig1 and fig2 read its first 500 rows, fig6 all
    _fig12(out, records[:500])
    grid = tau_columns(1, 256, 1, 100)  # fig4 steps from s = 1, fig3 starts at s = 2
    _fig_heatmap(out, "fig3", "tau", 8, [col[1:] for col in grid[7:]])
    _fig_heatmap(out, "fig4", "delta", 1, [list(map(sub, col[1:], col)) for col in grid])
    _fig5(out)
    _fig6(out, records)
    names = [
        "fig1.svg", "fig1.csv", "fig2.svg", "fig2.csv",
        "fig3.svg", "fig3.csv", "fig4.svg", "fig4.csv",
        "fig5.svg", "fig5.csv", "fig5_curves.csv", "fig6.svg", "fig6.csv",
    ]
    return [out / n for n in names]

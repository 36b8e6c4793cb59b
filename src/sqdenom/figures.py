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

import csv
from pathlib import Path

from . import svg
from .analysis import off_bound_points, sweep
from .sigmacore import sigma, sigma_k, tau

__all__ = ["FIG5_K_VALUES", "generate_figures", "heatmap_data", "heatmap_svg"]

FIG5_K_VALUES = tuple(range(1, 16)) + (18, 19, 22, 29, 40)

LOWER_COLOR = "#1f77b4"  # blue
UPPER_COLOR = "#d62728"  # red

_CURVE_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def write_csv(fh, header, rows) -> None:
    """Write header and rows in the one CSV dialect of every output."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


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


def _fig12(out_dir: Path) -> None:
    records = sweep(1, 500)
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


def heatmap_data(mode: str, a_lo: int, a_hi: int, s_lo: int, s_hi: int):
    """(header, rows) for a tau or tau-step grid, sorted by a then s.

    Delta mode carries tau(a, s-1) along each a, so every cell costs one tau.
    """
    if mode not in ("tau", "delta"):
        raise ValueError(f"unknown heatmap mode: {mode!r}")
    if a_lo < 1 or a_hi < a_lo:
        raise ValueError("need 1 <= a-min <= a-max")
    if s_lo < 1 or s_hi < s_lo:
        raise ValueError("need 1 <= s-min <= s-max")
    if mode == "delta" and s_lo < 2:
        raise ValueError("delta mode needs s-min >= 2")
    rows = []
    for a in range(a_lo, a_hi + 1):
        if mode == "tau":
            rows.extend((a, s, tau(a, s)) for s in range(s_lo, s_hi + 1))
        else:
            prev = tau(a, s_lo - 1)
            for s in range(s_lo, s_hi + 1):
                cur = tau(a, s)
                rows.append((a, s, cur - prev))
                prev = cur
    return ["a", "s", mode], rows


def heatmap_svg(mode: str, rows) -> str:
    """Draw the rows of heatmap_data(mode, ...); the grid spans the first
    row's (a, s) to the last row's."""
    (a_lo, s_lo, _), (a_hi, s_hi, _) = rows[0], rows[-1]
    if mode == "tau":
        title = "tau(a, s): white 0, black >= 10"
        cells = ((a, s, _TAU_FILLS[min(v, 10)]) for a, s, v in rows)
    else:
        title = "tau(a, s) - tau(a, s-1): black +1, red -1, white 0"
        cells = ((a, s, _delta_fill(v)) for a, s, v in rows)
    frame = svg.Frame(820, 460, a_lo - 0.5, a_hi + 0.5, s_lo - 0.5, s_hi + 0.5)
    parts = svg.open_svg(frame, title)
    svg.draw_cells(parts, frame, cells)
    svg.draw_axes(parts, frame, "a", "s")
    return svg.close_svg(parts)


def _fig_heatmap(out_dir: Path, name: str, mode: str, a_lo: int) -> None:
    header, rows = heatmap_data(mode, a_lo, 256, 2, 100)
    _write_csv(out_dir / f"{name}.csv", header, rows)
    (out_dir / f"{name}.svg").write_text(heatmap_svg(mode, rows))


def _fig5(out_dir: Path) -> None:
    a_lo, a_hi = 100 * 100, 101 * 101
    values = [(a, sigma(a)) for a in range(a_lo, a_hi + 1)]
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


def _fig6(out_dir: Path) -> None:
    points = off_bound_points(1, 2000)
    _write_csv(out_dir / "fig6.csv", ["a", "sigma"], points)
    (out_dir / "fig6.svg").write_text(
        _scatter_sigma("off-bound sigma(a) for 1 <= a <= 2000", points)
    )


def generate_figures(out_dir) -> list[Path]:
    """Write fig1..fig6 SVG + CSV into out_dir; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _fig12(out)
    _fig_heatmap(out, "fig3", "tau", 8)
    _fig_heatmap(out, "fig4", "delta", 1)
    _fig5(out)
    _fig6(out)
    names = [
        "fig1.svg", "fig1.csv", "fig2.svg", "fig2.csv",
        "fig3.svg", "fig3.csv", "fig4.svg", "fig4.csv",
        "fig5.svg", "fig5.csv", "fig5_curves.csv", "fig6.svg", "fig6.csv",
    ]
    return [out / n for n in names]

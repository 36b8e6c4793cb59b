"""Minimal deterministic SVG output: scatter plots, step curves, cell grids.

Float formatting is fixed at two decimals and nothing here depends on
wall-clock, locale or dict order, so identical inputs give identical bytes.
Coordinates are the only place the library converts exact values to floats.
"""

from __future__ import annotations

from operator import getitem

MARGIN_L = 54
MARGIN_R = 16
MARGIN_T = 34
MARGIN_B = 44


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_step(span: float) -> float:
    # 1-2-5 progression, about 8 ticks
    step = 1.0
    while span / step > 8:
        for mult in (2.0, 2.5, 2.0):
            step *= mult
            if span / step <= 8:
                break
    return step


def _ticks(lo: float, hi: float) -> list[float]:
    step = _tick_step(hi - lo)
    first = lo if lo % step == 0 else (lo // step + 1) * step
    out = []
    v = first
    while v <= hi + 1e-9:
        out.append(v)
        v += step
    return out


class Frame:
    """Maps data coordinates into a margined pixel box, y growing upward."""

    def __init__(self, width, height, x_lo, x_hi, y_lo, y_hi):
        self.width = width
        self.height = height
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.plot_w = width - MARGIN_L - MARGIN_R
        self.plot_h = height - MARGIN_T - MARGIN_B

    def x(self, v) -> float:
        span = self.x_hi - self.x_lo
        return MARGIN_L + (v - self.x_lo) / span * self.plot_w

    def y(self, v) -> float:
        span = self.y_hi - self.y_lo
        return MARGIN_T + self.plot_h - (v - self.y_lo) / span * self.plot_h


def open_svg(frame: Frame, title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}" '
        f'height="{frame.height}" viewBox="0 0 {frame.width} {frame.height}">',
        f'<rect width="{frame.width}" height="{frame.height}" fill="white"/>',
        f'<text x="{frame.width // 2}" y="20" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{_esc(title)}</text>',
    ]
    return parts


def close_svg(parts: list[str]) -> str:
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def draw_axes(parts: list[str], frame: Frame, x_label: str, y_label: str) -> None:
    x0, x1 = MARGIN_L, frame.width - MARGIN_R
    y0, y1 = MARGIN_T, frame.height - MARGIN_B
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for v in _ticks(frame.x_lo, frame.x_hi):
        px = frame.x(v)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y1}" x2="{_fmt(px)}" y2="{y1 + 4}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{y1 + 17}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{v:g}</text>'
        )
    for v in _ticks(frame.y_lo, frame.y_hi):
        py = frame.y(v)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 7}" y="{_fmt(py + 3.5)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{v:g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{frame.height - 8}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">'
        f"{_esc(x_label)}</text>"
    )
    parts.append(
        f'<text x="14" y="{(y0 + y1) // 2}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {(y0 + y1) // 2})">{_esc(y_label)}</text>'
    )


def draw_points(parts, frame, points) -> None:
    for x, y in points:
        parts.append(
            f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" '
            'r="1.6" fill="#000"/>'
        )


def draw_polyline(parts, frame, points, color) -> None:
    coords = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in points)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        'stroke-width="1.2"/>'
    )


def join_cells(heads, columns, sep, piece) -> str:
    """A grid's cell texts joined by sep, column by column: cell j of
    column i, of value v, reads heads[i] + piece(j, v).

    Each row keeps a table of its pieces by value, formatted the first time
    the value shows up in that row, so no value range is assumed and each
    column costs one C-level lookup of its values and one join.  Columns
    are nonempty and all as long as the first.
    """
    tails = [{} for _ in columns[0]]
    texts = []
    for head, column in zip(heads, columns):
        try:
            pieces = list(map(getitem, tails, column))
        except KeyError:
            for j, v in enumerate(column):
                if v not in tails[j]:
                    tails[j][v] = piece(j, v)
            pieces = list(map(getitem, tails, column))
        texts.append(head + (sep + head).join(pieces))
    return sep.join(texts)


def draw_cells(parts, frame, x_lo, y_lo, columns, fill) -> None:
    """Unit cells centred on integers, one list of values a column: value j
    of column i is the cell at (x_lo + i, y_lo + j), filled with fill(value)."""
    half_w = frame.plot_w / (frame.x_hi - frame.x_lo) / 2
    half_h = frame.plot_h / (frame.y_hi - frame.y_lo) / 2
    size = f'" width="{_fmt(2 * half_w)}" height="{_fmt(2 * half_h)}" fill="'
    heads = [f'<rect x="{_fmt(frame.x(x) - half_w)}" y="'
             for x in range(x_lo, x_lo + len(columns))]
    ys = [_fmt(frame.y(y) - half_h) + size for y in range(y_lo, y_lo + len(columns[0]))]
    parts.append(join_cells(heads, columns, "\n", lambda j, v: f'{ys[j]}{fill(v)}"/>'))

"""Tiny dependency-free SVG line plots for run artifacts.

Output is a fixed-size canvas with axes, tick labels, and one polyline per
series.  These files are diagnostic figures only and are excluded from the
byte-identity contract of the harness (text layout may evolve).
"""

from __future__ import annotations

import numpy as np

from .errors import _write

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 44
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def _column_extremes(px: np.ndarray, py: np.ndarray):
    # Rank each run of consecutive points in one pixel column by y; its
    # first and last ranks are the ones a column can show.
    run = np.cumsum(np.r_[True, np.diff(np.floor(px)) != 0])
    order = np.lexsort((py, run))
    ranked = run[order]
    change = ranked[1:] != ranked[:-1]
    keep = np.zeros(len(px), dtype=bool)
    keep[order[np.r_[True, change] | np.r_[change, True]]] = True
    return px[keep], py[keep]


def write_line_plot(path, series: dict, title: str, xlabel: str, ylabel: str,
                    log_y: bool = False) -> None:
    """Write one SVG with a polyline per named series.

    series maps a label to (xs, ys) arrays; rows with a non-finite x or y,
    or with nonpositive y when log_y plots log10 of y, are dropped.  Of each
    run of consecutive points in one pixel column only the lowest and the
    highest are drawn, in their order, so the file's size is bounded by the
    canvas, not by the series.
    """
    prepared = {}
    for label, (xs, ys) in series.items():
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys) & (ys > 0 if log_y else True)
        xs, ys = xs[keep], np.log10(ys[keep]) if log_y else ys[keep]
        if len(xs):
            prepared[label] = (xs, ys)
    if not prepared:
        prepared = {"empty": (np.array([0.0, 1.0]), np.array([0.0, 0.0]))}
    x_lo = min(xs.min() for xs, _ in prepared.values())
    x_hi = max(xs.max() for xs, _ in prepared.values())
    y_lo = min(ys.min() for _, ys in prepared.values())
    y_hi = max(ys.max() for _, ys in prepared.values())
    if x_hi - x_lo < 1e-300:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-300:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def to_px(xs, ys):
        px = _MARGIN_L + (xs - x_lo) / (x_hi - x_lo) * plot_w
        py = _HEIGHT - _MARGIN_B - (ys - y_lo) / (y_hi - y_lo) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{_WIDTH - _MARGIN_R}" y2="{y0}" {axis_style}/>')
    parts.append(f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" {axis_style}/>')
    for tx in _ticks(x_lo, x_hi):
        px, _ = to_px(np.array([tx]), np.array([y_lo]))
        parts.append(
            f'<line x1="{px[0]:.1f}" y1="{y0}" x2="{px[0]:.1f}" y2="{y0 + 4}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{px[0]:.1f}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        _, py = to_px(np.array([x_lo]), np.array([ty]))
        parts.append(
            f'<line x1="{x0 - 4}" y1="{py[0]:.1f}" x2="{x0}" y2="{py[0]:.1f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{x0 - 7}" y="{py[0]:.1f}" text-anchor="end" dy="3" '
            f'font-family="sans-serif" font-size="10">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">{xlabel}</text>'
    )
    y_label_text = f"log10 {ylabel}" if log_y else ylabel
    parts.append(
        f'<text x="14" y="{(_MARGIN_T + y0) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {(_MARGIN_T + y0) / 2:.0f})">{y_label_text}</text>'
    )
    for idx, (label, (xs, ys)) in enumerate(prepared.items()):
        color = _COLORS[idx % len(_COLORS)]
        px, py = _column_extremes(*to_px(xs, ys))
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 14 + 14 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    _write(path, "\n".join(parts) + "\n")

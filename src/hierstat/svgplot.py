"""Hand-emitted single-panel SVG line charts.

Fixed 800 x 600 viewbox, linear axes, one polyline per series and a
text legend; enough to eyeball a curve without pulling in a plotting
stack.  Output is a deterministic string for byte-stable files.
"""

from __future__ import annotations

import math

from .gentile import _grid

__all__ = ["line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_WIDTH = 800
_HEIGHT = 600
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 170
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 60


def _limits(values):
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def line_chart(series, *, x_label: str = "", y_label: str = "",
               title: str = "") -> str:
    """Render ``series`` = [(label, xs, ys), ...] as an SVG document."""
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = _limits(xs_all)
    y_lo, y_hi = _limits(ys_all)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    axis_y = _MARGIN_TOP + plot_h
    out.append(f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" '
               f'x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}" stroke="black"/>')
    out.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
               f'x2="{_MARGIN_LEFT}" y2="{axis_y}" stroke="black"/>')
    for t in _grid(x_lo, x_hi, 5):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" '
                   f'y2="{axis_y + 6}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{axis_y + 22}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{t:.4g}</text>')
    for t in _grid(y_lo, y_hi, 5):
        py = sy(t)
        out.append(f'<line x1="{_MARGIN_LEFT - 6}" y1="{py:.2f}" '
                   f'x2="{_MARGIN_LEFT}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_LEFT - 10}" y="{py + 4:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="12">{t:.4g}</text>')
    out.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 14}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="14">{x_label}</text>')
    out.append(f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.2f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="14" '
               f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.2f})">'
               f'{y_label}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                       for x, y in zip(xs, ys)
                       if math.isfinite(float(x)) and math.isfinite(float(y)))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = _MARGIN_TOP + 16 + 18 * k
        lx = _MARGIN_LEFT + plot_w + 14
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

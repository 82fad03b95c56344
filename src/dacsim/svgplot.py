"""SVG line plots of a run: thin colored agent traces over a thick line for
the input average.  Convenience output only; nothing in the analysis
depends on it.

The polyline points are the bulk of the file.  ``_points`` rounds them to
hundredths of a pixel and writes them with the CSV writer's ``%.12g``
kernel, ``csvformat.format_g12``: the module has no number formatter of
its own, and only the few axis labels go through f-strings.
"""

from __future__ import annotations

import math

import numpy as np

from .csvformat import format_g12

__all__ = ["render_svg"]

PALETTE = ("#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2", "#bcbd22")
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 44
WIDTH, HEIGHT = 880, 500
MAX_POINTS = 1500  # rows of each polyline, at most


def _escape(text: str) -> str:
    """Text as XML character data: &, < and > as entities, as
    xml.sax.saxutils.escape writes them.  That module is not imported: it
    loads urllib.request (ssl, http, email), which added about 4 MB and
    40 ms to the set-up of every run."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1, 2, 5, 10) if m * mag >= raw), default=10) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def _points(xs, ys) -> str:
    """The polyline points text: each coordinate rounded to hundredths,
    rint(100 x) / 100, and written as ``"%.12g"`` by ``format_g12``, so
    "x,y" pairs joined by single spaces with no trailing zeros."""
    v = np.empty((len(xs), 2))
    v[:, 0], v[:, 1] = xs, ys
    with np.errstate(over="ignore", invalid="ignore"):  # huge and non-finite values
        np.rint(np.multiply(v, 100.0, out=v), out=v)
    v /= 100.0
    return format_g12(v)[:-1].replace(b"\n", b" ").decode("ascii")


def render_svg(path, traj, title: str = ""):
    """Write an SVG of every agent's x trace plus the network input average,
    each polyline through at most MAX_POINTS evenly strided rows."""
    stride = -(-len(traj.times) // MAX_POINTS)  # ceil: rows / stride <= MAX_POINTS
    t = traj.times[::stride]
    xs = traj.x[::stride]
    avg = traj.avg_u[::stride]

    lo = min(float(xs.min()), float(avg.min()))
    hi = max(float(xs.max()), float(avg.max()))
    pad = 0.05 * (hi - lo or 1.0)
    lo, hi = lo - pad, hi + pad
    t0, t1 = float(t[0]), float(t[-1]) or 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # plain arithmetic: a tick (float) or a whole strided column (array)
    def px(tt):
        return MARGIN_L + (tt - t0) / (t1 - t0) * plot_w

    def py(vv):
        return MARGIN_T + (hi - vv) / (hi - lo) * plot_h

    def polyline(ts, vs, color, sw, dash=""):
        pts = _points(px(ts), py(vs))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="{sw}"'
                f'{extra} points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-size="14">{_escape(title)}</text>')
    for tick in _ticks(t0, t1):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#555"/>')
        parts.append(f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle">{tick:g}</text>')
    for tick in _ticks(lo, hi):
        y = py(tick)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
                     f'y2="{y:.2f}" stroke="#555"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{tick:g}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 8}" '
                 'text-anchor="middle">t [s]</text>')

    for i in range(traj.n):
        color = PALETTE[i % len(PALETTE)]
        parts.append(polyline(t, xs[:, i], color, 1.0))
    parts.append(polyline(t, avg, "#1f4fd8", 3.0))
    parts.append(f'<text x="{MARGIN_L + 8}" y="{MARGIN_T + 16}" fill="#1f4fd8">'
                 'thick: input average; thin: agent states</text>')
    parts.append("</svg>")

    data = "\n".join(parts)
    with open(path, "w") as fh:
        fh.write(data)
    return len(data)

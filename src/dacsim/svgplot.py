"""SVG line plots of a run: thin colored agent traces over a thick line for
the input average.  Convenience output only; nothing in the analysis
depends on it.

The polyline points are the bulk of the file.  ``_points`` writes each
coordinate as ``"%.2f" %`` would, from two small numpy tables of 8-byte
words, the integer part and the ``.dd`` fraction, built on the first
render so that importing the package stays cheap.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["render_svg"]

PALETTE = ("#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2", "#bcbd22")
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 44
INT_DIGITS = 4  # the tables cover 0 <= x < 10 ** INT_DIGITS
TIE_WINDOW = 1e-6  # hundredths this close to a half go through %


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


@functools.cache
def _tables():
    """(ints, fracs) of little-endian 8-byte words: ints[q] holds the
    digits of 0 <= q < 10 ** INT_DIGITS right-aligned in its first
    INT_DIGITS bytes, NUL in place of leading zeros; fracs[r] holds ".dd"
    of 0 <= r < 100 in the three bytes after them."""
    place = 10 ** np.arange(INT_DIGITS - 1, -1, -1)
    q = np.arange(10 ** INT_DIGITS)[:, None]
    digits = (q // place % 10 + ord("0")).astype(np.uint8)
    digits[:, :-1][q < place[:-1]] = 0  # leading zeros, dropped with the NULs
    ints = np.zeros((q.size, 8), dtype=np.uint8)
    ints[:, :INT_DIGITS] = digits
    fracs = np.zeros((100, 8), dtype=np.uint8)
    fracs[:, INT_DIGITS:INT_DIGITS + 3] = np.frombuffer(
        b"".join(b".%02d" % r for r in range(100)), dtype=np.uint8).reshape(100, 3)
    return ints.view("<u8").ravel(), fracs.view("<u8").ravel()


def _points(xs, ys) -> str:
    """The polyline points text ``" ".join("%.2f,%.2f" % p for p in
    zip(xs, ys))``, formatted by table.

    With s = 100 x and m = rint(s), m is the correctly rounded number of
    hundredths unless the exact 100 x lies within the roundoff of s
    (< 1e-11 in the tables' range) of a half; cells where |s - m| is within
    TIE_WINDOW of 0.5, negative or non-finite values, -0.0 and values past
    the tables are written as a "%.2f" template and formatted by Python.
    A cell is one word: ints[m // 100] | fracs[m % 100] | its separator in
    the top byte, ',' after x, ' ' after y and none at the end; the NULs
    are then dropped."""
    ints, fracs = _tables()
    v = np.empty((len(xs), 2))
    v[:, 0], v[:, 1] = xs, ys
    v = v.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # the slow cells' arithmetic
        s = v * 100.0
        m = np.rint(s)
        s -= m
    # NaN and the infinities fail the comparisons
    fast = ~np.signbit(v) & (m < 100 * ints.size) & (np.abs(s) <= 0.5 - TIE_WINDOW)
    m[~fast] = 0
    q, r = np.divmod(m.astype(np.intp), 100)
    words = ints.take(q)
    words |= fracs.take(r)
    words[0::2] |= ord(",") << 56
    words[1::2] |= ord(" ") << 56
    words[-1:] &= (1 << 56) - 1
    slow = np.flatnonzero(~fast)
    words[slow] = (words[slow] & (0xFF << 56)) | int.from_bytes(b"%.2f", "little")
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(v[slow].tolist()) if slow.size else text


def render_svg(path, traj, title: str = "", width: int = 880, height: int = 500,
               max_points: int = 1500):
    """Write an SVG of every agent's x trace plus the network input average,
    each polyline through at most ``max_points`` evenly strided rows."""
    stride = -(-len(traj.times) // max_points)  # ceil: rows / stride <= max_points
    t = traj.times[::stride]
    xs = traj.x[::stride]
    avg = traj.avg_u[::stride]

    lo = min(float(xs.min()), float(avg.min()))
    hi = max(float(xs.max()), float(avg.max()))
    pad = 0.05 * (hi - lo or 1.0)
    lo, hi = lo - pad, hi + pad
    t0, t1 = float(t[0]), float(t[-1]) or 1.0

    plot_w = width - MARGIN_L - MARGIN_R
    plot_h = height - MARGIN_T - MARGIN_B

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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
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
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{height - 8}" '
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

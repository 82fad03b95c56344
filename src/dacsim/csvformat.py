"""Exact ``%.12g`` text of float blocks, formatted by numpy a block at a
time: the CSV writer's number format.

Python's ``"%.12g" % x`` runs a correctly rounded binary-to-decimal
conversion (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990) once per float.  ``format_g12`` takes the 12-digit
mantissa from one scaled multiply per cell instead, sends the cells whose
rounding that could get wrong through ``%``, and lays every cell out
through byte templates, so its bytes equal ``%``'s exactly.
It is a module of its own, imported by the writer on its first call:
compiled as part of ``engine`` at import, it raised the peak memory of a
whole run by 0.5 MB.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_g12"]


# Source of the cells of one format_g12 block: eight uint32 planes of one
# slot per cell, the four 3-digit groups of the mantissa (three digit bytes
# each), the exponent "e+dd" or "e-ddd" over two planes (unused bytes 0),
# the bytes '-', '.', '0' and the cell's separator, and a plane of 0 pads.
# A template lists the source of each output byte of a cell as the code
# 4 * plane + byte; mantissa digit j has code 4 * (j // 3) + j % 3.
_WIDTH = 20  # bytes of the widest cell and its separator, "-1.23456789012e-300,"
_MINUS, _POINT, _ZERO, _SEP, _PAD = 24, 25, 26, 27, 28
_EXPONENT = [16, 17, 18, 19, 20]
_POW_MIN, _EXP_MIN = -300, -330  # the smallest entries of the scale and exponent tables
_PYTHON = 2 * 18 * 12  # key of the final template, for cells formatted by Python


@functools.cache
def _tables():
    """Lookup tables of format_g12, built on its first call so importing
    the package stays cheap: the ASCII slot of each 3-digit group; for each
    of the four places of a group in the mantissa, the mantissa's last
    nonzero digit that the group gives (0 for a zero group); the two
    exponent slots; correctly rounded powers of ten; the first template of
    each decimal exponent's layout; and the templates (planes, bytes).

    Template (sign * 18 + layout) * 12 + end is a cell whose last nonzero
    mantissa digit is digit ``end``.  Layout E + 4 is fixed notation for
    decimal exponent -4 <= E < 12, layout 16 is d.ddde+XX and layout 17 is
    zero; trailing zeros and a bare '.' are left out, as %g does.  The
    final template holds only the separator: the bytes of a cell formatted
    by Python go in front of it."""
    triples = np.frombuffer(b"".join(b"%03d\0" % g for g in range(1000)), dtype="<u4")
    # each group's last nonzero digit, placed; a zero group (g = 0) has none
    last = np.array([len((b"%03d" % g).rstrip(b"0")) - 1 for g in range(1000)], dtype=np.intp)
    ends = 3 * np.arange(4, dtype=np.intp)[:, None] + last
    ends[:, 0] = 0
    exps = np.frombuffer(b"".join((b"e%+03d" % e).ljust(8, b"\0")
                                  for e in range(_EXP_MIN, -_EXP_MIN + 1)), dtype="<u4")
    powers = np.array([float(f"1e{k}") for k in range(_POW_MIN, 306)])
    layouts = np.array([12 * (e + 4 if -4 <= e < 12 else 16)
                        for e in range(_EXP_MIN, -_EXP_MIN + 1)], dtype=np.intp)

    def digits(first, end):
        return [4 * (j // 3) + j % 3 for j in range(first, end + 1)]

    codes = []
    for sign in (0, 1):
        for layout in range(18):
            e = layout - 4
            for end in range(12):
                cell = [_MINUS] if sign else []
                if layout == 17:
                    cell.append(_ZERO)
                elif layout == 16:
                    cell += digits(0, 0) + ([_POINT] + digits(1, end) if end else [])
                    cell += _EXPONENT
                elif e >= 0:
                    cell += digits(0, e) + ([_POINT] + digits(e + 1, end) if end > e else [])
                else:
                    cell += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits(0, end)
                codes += cell + [_PAD] * (_WIDTH - 1 - len(cell)) + [_SEP]
    codes += [_PAD] * (_WIDTH - 1) + [_SEP]
    planes = np.array([[c // 4 for c in range(_PAD + 1)], [c % 4 for c in range(_PAD + 1)]], dtype=np.intp)
    table = np.take(planes, np.array(codes, dtype=np.intp).reshape(-1, _WIDTH), axis=1)
    return triples, ends, exps.reshape(-1, 2).T.copy(), powers, layouts, table


def _source(x: np.ndarray):
    """(source planes, template keys) of the cells x; the plane of the
    constant bytes, which holds each cell's separator, is left to the caller.

    For 1e-290 <= |x| <= 1e300, E = floor(log10 |x|) and the 12-digit
    mantissa m = rint(s), s = |x| 10^(11 - E), come from one multiply by a
    table of correctly rounded powers of ten; E moves by one where s falls
    outside [1e11, 1e12), and once more where m rounds up to 1e12.  s
    carries two roundings, within 3e-4 of the exact product, so rint(s) is
    the correctly rounded mantissa unless frac(s) lies within 1e-3 of 0.5.
    Those near ties, non-finite values and |x| outside the range get the
    final template, for Python's formatting; zeros have templates of their
    own."""
    triples, ends, exps, powers, layouts, _ = _tables()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-290) & (a <= 1e300)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * powers[11 - _POW_MIN - e]
    e -= s < 1e11
    e += s >= 1e12
    np.multiply(a, powers[11 - _POW_MIN - e], out=s)
    m = np.rint(s)
    s -= np.floor(s)
    fast &= np.abs(s - 0.5) >= 1e-3
    up = m >= 1e12
    e += up
    m[up] = 1e11
    # m < 2^40, so these quotients are exact before the floor
    high = np.floor(m * 1e-6)
    m -= high * 1e6
    groups = [np.floor(high * 1e-3), high, np.floor(m * 1e-3), m]
    groups[1] -= groups[0] * 1e3
    groups[3] -= groups[2] * 1e3
    groups = [g.astype(np.intp) for g in groups]

    src = np.empty((8, x.size), dtype="<u4")
    for plane, g in enumerate(groups):
        np.take(triples, g, out=src[plane], mode="clip")
    e -= _EXP_MIN
    np.take(exps[0], e, out=src[4], mode="clip")
    np.take(exps[1], e, out=src[5], mode="clip")
    src[7] = 0

    end = ends[0][groups[0]]
    for place in (1, 2, 3):
        np.maximum(end, ends[place][groups[place]], out=end)
    key = layouts[e]
    key += end
    key[zero] = 17 * 12
    key += np.signbit(x) * (18 * 12)
    key[~(fast | zero)] = _PYTHON
    return src, key


def format_g12(block: np.ndarray) -> bytes:
    """The rows of a 2-D float block as CSV lines, every cell byte for byte
    as ``"%.12g" % x``: cells joined by ',', each row ended by '\\n'.  Each
    cell's bytes are gathered from its source planes through its template
    (``_source``), then the pad bytes are dropped."""
    table = _tables()[-1]
    rows, cols = block.shape
    x = np.asarray(block, dtype=np.float64).ravel()
    n = x.size
    src, key = _source(x)
    consts = src[6].reshape(rows, cols)
    consts[:] = np.frombuffer(b"-.0,", dtype="<u4")[0]
    consts[:, -1] = np.frombuffer(b"-.0\n", dtype="<u4")[0]
    index = np.take(table[0] * (4 * n) + table[1], key, axis=0)
    index += np.arange(0, 4 * n, 4)[:, None]
    out = src.view(np.uint8).ravel().take(index)
    slow = np.flatnonzero(key == _PYTHON)
    if slow.size:
        text = b"".join(("%.12g" % v).encode().ljust(_WIDTH - 1, b"\0")
                        for v in x[slow].tolist())
        out[slow, :-1] = np.frombuffer(text, dtype=np.uint8).reshape(slow.size, -1)
    return out.tobytes().translate(None, b"\0")

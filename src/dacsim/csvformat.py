"""Exact ``%.12g`` text of float blocks, formatted by numpy a block at a
time: the one number format of the outputs, the CSV writer's cells and
``svgplot``'s polyline points.

Python's ``"%.12g" % x`` runs a correctly rounded binary-to-decimal
conversion (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990) once per float.  ``format_g12`` takes the decade from
the float's binary exponent and the 12-digit mantissa from one scaled
multiply per cell instead, and sends the cells whose rounding that could
get wrong through ``%``.  It lays every cell out as four little-endian
8-byte words, each taken from a small table: the head (sign and the
``0.``-``0.000`` prefix, or zero's ``0``), two mantissa words of four
4-byte slots, one per 3-digit group of the mantissa with the decimal point
and the ``%g`` cut of trailing zeros already in place, and the tail (the
exponent, whose text only the ``d.ddde±XX`` decades have, and the
separator).
Bytes a cell does not use are NUL, and dropping them leaves ``%``'s text.
It is a module of its own, imported by the CSV writer on its first call
and by ``svgplot``, which only a ``--svg`` run imports: compiled as part of
``engine`` at import, it raised the peak memory of a whole run by 0.5 MB.
It also holds the writer's ``BlockHelper``, a forked process that formats
the second half of a long table, so that its compile is not part of the
set-up of every run either.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import sys
import tempfile

import numpy as np

__all__ = ["format_g12", "helper_allowed", "BlockHelper"]


_EXP_MIN = -330  # decades _EXP_MIN..-_EXP_MIN have scale, layout and exponent entries
# s = |x| 10^(11 - E) < 2^40 lies within 2^-53 1e12 (the rounded scale) +
# 2^-14 (half an ulp of s) = 1.72e-4 of the exact product
_TIE_MARGIN = 2e-4
# a table of fewer blocks is written by one process: fork, reap and
# OpenBLAS's at-fork pool shutdown took 2.8-3.5 ms in a discrete_wide-sized
# process, against about 0.7 ms a block; with the table split in halves,
# two processes wrote slower at 12 blocks and about as fast at 16 and 20
FORK_BLOCKS = 16


def _slot_map(code):
    """Bytes of the group slot with code 4 * point + kept, as offsets into
    the group's text "ddd.\\0": digit j is byte j, except that digits from
    ``kept`` on are left out; the point follows digit ``point - 1`` (no
    point for 0); unused bytes are the NUL."""
    point, kept = divmod(code, 4)
    digits = [j if j < kept else 4 for j in range(3)]
    return digits[:point] + [3] + digits[point:] if point else digits + [4]


@functools.cache
def _tables():
    """Lookup tables of format_g12, built on its first call so importing
    the package stays cheap:

    - ``decade``: for each biased binary exponent, the decade E0 of the
      binade's lower end, less ``_EXP_MIN``: a decade index;
    - by decade index: ``scale``, the correctly rounded 10^(11 - E);
      ``layouts``, the first template key of decade E's layout; ``exps``,
      the tail word "e%+03d" of a d.ddde+XX decade E, 0 for the decades of
      fixed notation;
    - ``ends``: for each of the four places of a group in the mantissa, the
      mantissa's last nonzero digit that the group gives (0 for a zero group);
    - by template key: ``heads``, the head word; ``codes``, for each of the
      four groups, the offset 1000 * (4 * point + kept) of its slots, where
      the point follows the group's digit ``point - 1`` (none for 0) and
      the group keeps ``kept`` digits;
    - ``slots``: the 4-byte slot of group value g at its code's offset + g.

    Template (sign * 18 + layout) * 12 + end is a cell whose last nonzero
    mantissa digit is digit ``end``.  Layout E + 4 is fixed notation for
    decimal exponent -4 <= E < 12, layout 16 is d.ddde+XX and layout 17 is
    zero; trailing zeros and a bare '.' are left out, as %g does."""
    decade = np.floor(np.arange(-1023, 1025) * math.log10(2)).astype(np.intp)
    decade -= _EXP_MIN
    es = range(_EXP_MIN, 1 - _EXP_MIN)
    scale = np.array([float(f"1e{11 - e}") for e in es])
    layouts = np.array([12 * (e + 4 if -4 <= e < 12 else 16) for e in es], dtype=np.intp)
    exps = np.frombuffer(b"".join((b"" if -4 <= e < 12 else b"e%+03d" % e).ljust(8, b"\0") for e in es),
                         dtype="<u8")
    # each group's last nonzero digit, placed; a zero group (g = 0) has none
    last = np.array([len((b"%03d" % g).rstrip(b"0")) - 1 for g in range(1000)], dtype=np.intp)
    ends = 3 * np.arange(4, dtype=np.intp)[:, None] + last
    ends[:, 0] = 0
    text = np.frombuffer(b"".join(b"%03d.\0" % g for g in range(1000)), dtype=np.uint8)
    # one slot code at a time: no large index array is built and freed
    starts = 5 * np.arange(1000)[:, None]
    slots = np.empty((16, 1000, 4), dtype=np.uint8)
    for code in range(16):
        text.take(starts + _slot_map(code), out=slots[code], mode="clip")
    slots = slots.view("<u4").ravel()

    heads, codes = [], []
    for sign in (0, 1):
        for layout in range(18):
            e = layout - 4
            for end in range(12):
                head = b"-" if sign else b""
                kept, point = end, None  # the last digit kept; the digit the point follows
                if layout == 17:
                    head, kept = head + b"0", -1
                elif layout == 16:
                    point = 0 if end else None
                elif e >= 0:
                    kept, point = max(end, e), (e if end > e else None)
                else:
                    head += b"0." + b"0" * (-e - 1)
                heads.append(head.ljust(8, b"\0"))
                for first in (0, 3, 6, 9):
                    at = point - first + 1 if point is not None and 0 <= point - first < 3 else 0
                    codes.append(1000 * (4 * at + min(max(kept + 1 - first, 0), 3)))
    heads = np.frombuffer(b"".join(heads), dtype="<u8")
    codes = np.array(codes, dtype=np.intp).reshape(-1, 4).T.copy()
    return decade, scale, layouts, exps, ends, heads, codes, slots


def format_g12(block: np.ndarray) -> bytes:
    """The rows of a 2-D float block as CSV lines, every cell byte for byte
    as ``"%.12g" % x``: cells joined by ',', each row ended by '\\n'.

    For 1e-290 <= |x| <= 1e300, the decade E = floor(log10 |x|) is E0 or
    E0 + 1, where E0 is the decade of the lower end of the binade of x,
    looked up by its binary exponent; it is E0 + 1 where
    |x| 10^(11 - E0) >= 1e12.  The 12-digit mantissa m = rint(s),
    s = |x| 10^(11 - E), comes from one multiply by a table of correctly
    rounded powers of ten, and E moves once more where m rounds up to
    1e12.  s carries two roundings, the scale's and the product's, within
    2^-53 1e12 + 2^-14 = 1.72e-4 of the exact product, so rint(s) is the
    correctly rounded mantissa unless frac(s) lies within ``_TIE_MARGIN``
    = 2e-4 of 0.5.  Those near ties, non-finite values and |x| outside the
    range are formatted by Python; zeros have templates of their own.

    A cell's words are looked up by its template key, its decade and its
    four 3-digit groups, then the NUL bytes are dropped."""
    decade, scale, layouts, exps, ends, heads, codes, slots = _tables()
    rows, cols = block.shape
    x = np.asarray(block, dtype=np.float64).ravel()
    n = x.size
    # Every per-cell array is a row of one work array, which is most of the
    # memory a call takes.  glibc's malloc raises its heap trim threshold to
    # twice the largest chunk it has unmapped, so once the first block frees
    # this 1 MB mmapped array the heap stays mapped from one block to the
    # next; ~40 separate arrays let it trim and refault the heap on every
    # block (~400 minor page faults a block, against ~5).
    work = np.empty((16, n), dtype=np.int64)
    words = work[:4].reshape(n, 4).view("<u8")
    a, s, m, high = work[4:8].view(np.float64)
    groups = work[8:12]
    d, key, t, u = work[12:]
    t8, u4 = t.view("<u8"), u.view("<u4")[:n]

    np.abs(x, out=a)
    zero = a == 0
    fast = (a >= 1e-290) & (a <= 1e300)
    a[~fast] = 1.0
    np.right_shift(a.view(np.int64), 52, out=t)
    decade.take(t, out=d, mode="clip")
    np.multiply(a, scale.take(d, out=s, mode="clip"), out=s)
    d += s >= 1e12
    np.multiply(a, scale.take(d, out=s, mode="clip"), out=s)
    np.rint(s, out=m)
    s -= m
    fast &= np.abs(s, out=s) <= 0.5 - _TIE_MARGIN  # |s - m| = 0.5 - |frac(s) - 0.5|
    up = m >= 1e12
    d += up
    m[up] = 1e11
    # m < 2^40, so these quotients are exact before the floor
    np.floor(np.multiply(m, 1e-6, out=high), out=high)
    m -= np.multiply(high, 1e6, out=s)
    for place, part in ((0, high), (2, m)):
        groups[place] = np.floor(np.multiply(part, 1e-3, out=s), out=s)
        s *= -1e3
        groups[place + 1] = np.add(part, s, out=s)

    ends[0].take(groups[0], out=t, mode="clip")
    for place in (1, 2, 3):
        np.maximum(t, ends[place].take(groups[place], out=u, mode="clip"), out=t)
    np.add(layouts.take(d, out=key, mode="clip"), t, out=key)
    key[zero] = 17 * 12
    key += np.signbit(x) * (18 * 12)

    words[:, 0] = heads.take(key, out=t8, mode="clip")
    slot = words.view("<u4")
    for place, g in enumerate(groups):
        g += codes[place].take(key, out=t, mode="clip")
        slot[:, 2 + place] = slots.take(g, out=u4, mode="clip")
    exps.take(d, out=t8, mode="clip")
    sep = np.full(cols, ord(",") << 56, dtype="<u8")
    sep[-1] = ord("\n") << 56
    np.bitwise_or(t8.reshape(rows, cols), sep, out=words[:, 3].reshape(rows, cols))
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        # Python's text replaces every byte of these cells but the separator
        text = b"".join(("%.12g" % v).encode().ljust(31, b"\0") for v in x[slow].tolist())
        words.view(np.uint8).reshape(n, 32)[slow, :31] = np.frombuffer(text, dtype=np.uint8).reshape(slow.size, -1)
    return words.tobytes().translate(None, b"\0")


def helper_allowed(blocks):
    """Whether ``engine.write_trajectory_csv`` forks a BlockHelper for a
    table of ``blocks`` blocks: a table of FORK_BLOCKS or more, on a
    platform with os.fork and os.copy_file_range (Linux), where this
    process may run on two CPUs and is not a worker of a multiprocessing
    pool, as ``dacsim batch``'s are, whose workers already keep the CPUs
    busy.  Python 3.12 and later deprecate fork in a process with more than
    one thread, which a run is once OpenBLAS has started its pool, so those
    versions keep one process."""
    pool = sys.modules.get("multiprocessing")  # imported by every pool worker
    return (blocks >= FORK_BLOCKS and sys.version_info < (3, 12)
            and hasattr(os, "fork") and hasattr(os, "copy_file_range")
            and len(os.sched_getaffinity(0)) > 1
            and (pool is None or pool.parent_process() is None))


class BlockHelper:
    """A forked process that formats the blocks at ``starts`` with ``text``
    into an unnamed file beside ``path`` and ends it with the 8-byte count
    of the bytes before it, for the parent to append to its own file once
    its blocks are written.  The helper runs only element-wise numpy and os
    calls, no BLAS or LAPACK, and leaves by os._exit alone: it runs no exit
    handler and flushes no buffer it shares with the parent."""

    def __init__(self, text, starts, path):
        # on the CSV's filesystem, so that the copy stays inside it
        self.file = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
        try:
            self.pid = os.fork()
        except OSError:
            self.file.close()
            raise
        if self.pid == 0:
            code = 1
            try:
                for a in starts:
                    self.file.write(text(a))
                self.file.write(self.file.tell().to_bytes(8, "little"))
                self.file.flush()
                code = 0
            finally:
                os._exit(code)

    def append_to(self, fd):
        """Wait for the helper and append its bytes to ``fd`` by
        os.copy_file_range: they never enter this process's memory.  Raise
        OSError if the helper failed or its count is missing or wrong."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise OSError(f"the CSV writer's helper process {how}")
        src = self.file.fileno()
        size = os.fstat(src).st_size - 8
        if size < 0 or int.from_bytes(os.pread(src, 8, size), "little") != size:
            raise OSError("the CSV writer's helper process ended early")
        done = 0
        while done < size:
            moved = os.copy_file_range(src, fd, size - done, done)
            if not moved:
                raise OSError("the CSV writer's helper process ended early")
            done += moved

    def close(self):
        """Kill the helper if it still runs (this process failed before
        append_to), reap it, and close its file."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.file.close()

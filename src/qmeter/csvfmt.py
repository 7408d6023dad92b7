"""The bytes of the output files: the column sets of the sweep and slice
tables, the ``%.17g`` token of a float, and the CSV writer.

``csv_lines`` makes C's ``%.17g`` for a whole array in numpy, so a table of
any size is written with exactly the bytes of ``fmt`` on each value.
"""

from __future__ import annotations

import contextlib
import functools
import shutil
import stat
from pathlib import Path
from typing import TextIO

import numpy as np

from .blocks import NODE_BLOCK, split_blocks

CSV_HEADER = "alpha,phi,w_ext,q_m,q_t,eta,ds,xi,zeta,delta,gamma"
CSV_FIELDS = CSV_HEADER.split(",")
SLICE_HEADER = "alpha,phi,w_ext,q_m,eta,ds,zeta,delta,gamma,dp3,dp4"
SLICE_FIELDS = SLICE_HEADER.split(",")
U64 = np.dtype("<u8")  # the slots of csv_lines, their first character in the low byte
K_OFFSET = 400  # csv_lines's tables cover decimal exponents -400 to 399
RAW = 23  # the layout of a token written whole into bytes 0-23 of its slot


def fmt(value: float) -> str:
    """17-significant-digit token; NaN serializes as 'nan'."""
    return "%.17g" % value


def open_output(path: Path) -> TextIO:
    """Open ``path`` for writing, unlinking it first if it is a regular file.

    On ext4 (default ``auto_da_alloc``), closing a file truncated to zero or
    renamed over waits for its writeback: the default ``sweep.csv`` took
    0.42-0.90 s rewritten in place, 0.41-0.62 s through a rename and 0.18 s
    as a new file (2-vCPU VM). A hard link keeps the old bytes; symlinks are
    written through; a refused unlink falls back to truncating."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(path.lstat().st_mode):
            path.unlink()
    return path.open("w", newline="")


@functools.cache
def _token_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``csv_lines``, built on its first call.  A token
    is put together in a slot of four little-endian words: the sign or NUL,
    ``0.000``, the first digit and a point (bytes 0-7), the other 16 digits
    (8-23), ``e``, the exponent's sign and three digits (24-28), and the
    separator (29).  ``insert`` moves the digits after a point that follows
    digit 1 to 15 up a byte; ``keep`` has a byte mask per layout and count
    of significant digits that zeroes the bytes a token does not use."""
    group = np.indices((10,) * 4).reshape(4, -1).T  # the digits of 0 to 9999
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, :4] = ord("0") + group
    used = ((group > 0) * np.arange(1, 5)).max(1)
    # significant digits up to the last nonzero one of the j-th group of four after the first
    last = np.where(used > 0, used + 4 * np.arange(4)[:, None] + 1, 1)
    ks = np.arange(-K_OFFSET, K_OFFSET)
    exponent = np.zeros((ks.size, 8), np.uint8)
    exponent[:, :2] = np.array([ord("e"), ord("+")]) + (ks < 0)[:, None] * [0, 2]  # '-' = '+' + 2
    exponent[:, 2:5], exponent[:, 5] = ord("0") + group[np.abs(ks), 1:], ord(",")
    # fixed notation for -4 <= k < 17 (layout k + 4), else two or three exponent digits
    layout = np.where((ks >= -4) & (ks < 17), ks + 4, np.where(np.abs(ks) < 100, 21, 22))
    keep = np.zeros((RAW + 1, 18, 32), np.uint8)
    keep[..., [0, 29]] = keep[RAW, :, :24] = 255
    for c in range(RAW):
        p = c - 4 if 4 <= c <= 20 else 0  # the digit the point follows
        at = [6, *(7 + i + (0 < p < i) for i in range(1, 17))]  # the byte of each digit
        keep[c][:, at] = 255 * (np.arange(17) < np.maximum(np.arange(18), p + 1)[:, None])
        if c < 4:  # 0.000ddd
            keep[c][:, [1, 2, *range(3, 6 - c)]] = 255
        else:  # the point where digits follow it
            keep[c, p + 2:, 7 + p + (p > 0)] = 255
        if c > 20:  # e, the exponent's sign and two or three digits
            keep[c][:, [24, 25, *range(48 - c, 29)]] = 255
    byte, p = np.arange(16), np.arange(16)[:, None, None]
    insert = np.concatenate([(byte < p) * 255, (byte == p) * ord("."), (byte > p) * 255], axis=1)
    be = np.arange(2048)
    decade = (be - 1023) * 78913 >> 18  # floor(log10(2**(be - 1023)))
    tens = np.array([float(f"1e{d}") for d in range(-307, 310)])[decade + 308]  # 10**(decade+1)
    r = 1059 - be + decade  # r of _scaled for k = decade
    fast = (decade >= -11) & (decade <= 15) & (r >= 2) & (r + 1 <= 62)  # for k = decade + 1 too
    words = [int.from_bytes(w, "little") for w in (b"0", b"-0", b"inf", b"-inf", b"nan", b"nan")]
    return (quads.view(U64).ravel(), last, exponent.view(U64).ravel(), layout * 18,
            keep.view(U64).reshape(-1, 4), insert.astype(np.uint8).view(U64).reshape(16, 6),
            decade, tens.view(np.uint64), fast, np.array(words, U64),
            np.array([5**s for s in range(28)], np.uint64))


def _scaled(m: np.ndarray, be: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m * 2**(be - 1075) * 10**(16 - k)`` rounded half-even to an integer,
    and whether it is at least 1e16 before rounding, i.e. k is not too big."""
    s = 16 - k
    r = (1075 - be - s).astype(np.uint64)  # the value times 10**s is m * 5**s / 2**r
    p = np.take(_token_tables()[-1], s, mode="clip")
    ml, mh, pl, ph = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    mid = mh * pl + ml * ph  # the 128-bit product hi:lo from 32-bit halves
    lo = ml * pl + (mid << 32)
    hi = mh * ph + (mid >> 32) + (lo < (mid << 32))
    t = hi << (65 - r) | lo >> (r - 1)  # floor(product / 2**(r - 1)): the quotient, a half bit
    up = t >> 1 & 1 | (lo << (65 - r) != 0)  # an odd quotient, or bits below the half
    return (t + up) >> 1, t >= 2 * 10**16


def csv_lines(values: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 array: ``fmt`` of each value, commas
    between the columns and a newline after each row, the same bytes for
    every float.  Where ``s = 16 - k`` (k the decimal exponent) is in [0, 27]
    and ``r = 1075 - biased exponent - s`` in [2, 62] for both candidates of
    k in the value's binade (the integer window, about 1.5e-11 <= |v| <
    5.6e14), the 17 digits are exact integers: ``v * 10**s`` is
    ``m * 5**s / 2**r`` with the 53-bit mantissa m and 5**s < 2**64, so
    their 128-bit product shifted right by r, rounded half-even from the
    bits shifted out, is C's correctly rounded ``%.17g``.  The table
    estimate of k is one too high only where the float of a power of ten
    lies below it (1e-6, 1e-7); that quotient, below 1e16, is computed
    again.  No float there rounds up to a power of ten.  The layout is C's
    ``%g``: fixed notation for -4 <= k < 17, else ``d.ddde±XX``, no trailing
    zeros.  NaN of either sign is ``nan``, zeros and infinities are words,
    and every other value takes ``fmt``.
    """
    quads, last, exponent, layout, keep, insert, decade, tens, window, words, _ = _token_tables()
    flat = values.ravel()
    bits = flat.view(np.uint64)
    be = (bits >> 52 & 0x7FF).astype(np.int64)
    m = bits & (1 << 52) - 1 | 1 << 52
    k = np.take(decade, be) + (bits & (1 << 63) - 1 >= np.take(tens, be))
    q, exact = _scaled(m, be, k)
    fast = np.take(window, be)
    redo = np.flatnonzero(fast & ~exact)
    if redo.size:
        k[redo] -= 1
        q[redo] = _scaled(m[redo], be[redo], k[redo])[0]
    high = q.view(np.int64) // 10**8  # the digits in groups of 1, 4, 4, 4 and 4
    low = q.view(np.int64) - high * 10**8
    head = high // 10**8
    mid = high - head * 10**8
    g1, g3 = mid // 10**4, low // 10**4
    groups = g1, mid - g1 * 10**4, g3, low - g3 * 10**4
    slot = np.empty((flat.size, 4), U64)
    slot[:, 0] = (int.from_bytes(b"\x000.0000.", "little") + (head.view(np.uint64) << 48)
                  + (bits >> 63) * ord("-"))
    slot[:, 1] = np.take(quads, groups[0]) | np.take(quads, groups[1]) << 32
    slot[:, 2] = np.take(quads, groups[2]) | np.take(quads, groups[3]) << 32
    slot[:, 3] = np.take(exponent, k + K_OFFSET)
    slot[values.shape[1] - 1::values.shape[1], 3] ^= (ord(",") ^ ord("\n")) << 40  # ends a row
    moved = np.flatnonzero((k - 1).view(np.uint64) < 15)  # a point after digit 1 to 15
    if moved.size:
        a, b, masks = slot[moved, 1], slot[moved, 2], insert[k[moved]]
        slot[moved, 1] = a & masks[:, 0] | masks[:, 2] | a << 8 & masks[:, 4]
        slot[moved, 2] = b & masks[:, 1] | masks[:, 3] | (b << 8 | a >> 56) & masks[:, 5]
        slot[moved, 3] = slot[moved, 3] >> 8 << 8 | b >> 56  # digit 16 over the unused 'e'
    # the row of keep: 18 * layout + significant digits
    sid = np.take(last[3], groups[3]) + np.take(layout, k + K_OFFSET)
    short = np.flatnonzero(groups[3] == 0)  # trailing zeros past the last group of four
    sid[short] += np.maximum.reduce([last[j][groups[j][short]] for j in range(3)]) - 1
    raw = np.flatnonzero(~fast)
    sid[raw], slot[raw, 1:3] = RAW * 18, 0
    is_word = (bits[raw] << 1 == 0) | (be[raw] == 0x7FF)  # zeros, infinities and NaN
    w = raw[is_word]
    slot[w, 0] = words[2 * (be[w] == 0x7FF) + 2 * (bits[w] << 12 != 0) + np.signbit(flat[w])]
    other = raw[~is_word]
    tokens = b"".join([fmt(v).encode().ljust(24, b"\0") for v in flat[other].tolist()])
    slot[other, :3] = np.frombuffer(tokens, U64).reshape(-1, 3)
    slot &= np.take(keep, sid, axis=0)
    return slot.tobytes().translate(None, b"\0")


def write_rows_csv(rows: np.ndarray, fields: list[str], path: Path) -> None:
    """Header plus one line per structured row, the ``fmt`` tokens of its
    fields, made by ``csv_lines`` ``NODE_BLOCK`` rows at a time so that the
    memory held does not grow with the table.  From ``SPLIT_BLOCKS`` blocks
    on, ``split_blocks`` has a forked child format the second half, whose
    bytes are copied after the parent's."""
    values = np.empty((min(len(rows), NODE_BLOCK), len(fields)))
    _token_tables()  # before a split, so that the child shares them

    def work(starts, out):
        for start in starts:
            block = rows[start:start + NODE_BLOCK]
            for j, name in enumerate(fields):
                values[:len(block), j] = block[name]
            (sink if out is None else out).write(csv_lines(values[:len(block)]))

    with open_output(path) as fh:
        sink = fh.buffer
        sink.write((",".join(fields) + "\n").encode())
        split_blocks(len(rows), work, lambda out, cut: shutil.copyfileobj(out, sink))

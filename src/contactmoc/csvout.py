"""CSV output shared by every writer.

Floats carry 17 significant digits, enough to round-trip every double, so
reruns with the same inputs write byte-identical files.  A float is written
as the bytes of ``'%.17g' % v``, made for a whole block of values at once by
``_float_cells``:

* E = floor(log10|x|) and V = |x| 10^(16-E), with 10^(16-E) held as a
  double-double (hi, lo) built from Python ints, and V formed by Dekker's
  exact product (Numer. Math. 18, 1971) of |x| and hi plus |x| lo.  V is an int64 part (hi of the
  product, an integer once V >= 2^53) plus a fraction f in [-1/2, 1/2];
  E moves by one until 10^16 <= V < 10^17, and the 17 digits are
  N = round(V), with N = 10^17 read as 10^16 at E + 1.
* The error of V is below 1e-14: the (hi, lo) pair is within 2^-106 of
  10^(16-E) relative, |x| lo rounds within 2^-53 of a term of size 2^-53 V,
  and summing the low parts rounds within 2^-49 absolute.  A value whose
  computed f lies within 1e-6 of +-1/2 could round either way and is
  written by ``'%.17g' %`` itself; that covers the exact ties such as
  4000000000000001/4.  Outside that window round(V) is exact.
* At the ends of [10^16, 10^17) a window of 1e-6 is read as landing on the
  end exactly.  Only an exact power of ten can land there: no other double
  in range lies within 2.6e-19 relative of a power of ten, so its V is at
  least 2.6e-3 away from an end.
* Zero, non-finite values and |x| outside [1e-280, 1e280], where the
  scaled product could underflow or overflow, are written by
  ``'%.17g' %`` too.

The digits come from a table of 4-digit groups, and each value fills a
zero-padded cell of ``_CELL`` bytes at fixed places (sign, ``0.`` and
leading zeros, 17 digits each with a slot after it for the point, then
``e+XX``); trailing zeros and unused slots stay zero bytes, which are
dropped when the block is written.
"""

from __future__ import annotations

import functools

import numpy as np

# Rows per block: each block is formatted by one kernel call over its float
# columns and written as one string.
_BLOCK_ROWS = 512

_CELL = 48           # bytes of one float cell; the longest '%.17g' string has 24
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_E_MAX = 284          # the tables cover the exponents |E| <= _E_MAX
_TIE = 0.5 - 1e-6     # |f| above this goes to '%.17g' %
_EDGE = 1e-6          # V this close to 10^16 or 10^17 is the power itself


@functools.cache
def _tables():
    """The tables of the kernel, built on first use."""
    hi, lo = [], []
    for k in range(16 - _E_MAX, 17 + _E_MAX):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:  # 10^k - hi = (den - num 10^-k) / (den 10^-k), rounded once
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    t = hi * _SPLIT
    hi_hi = t - (t - hi)
    powers = (hi, hi_hi, hi - hi_hi, np.array(lo))

    # Row g of a group: its 4 digits, each followed by a zero byte, the slot
    # of a point.  Row 10000 + g: the same without the group's trailing zeros.
    g = np.arange(10000, dtype=np.int16)
    groups = np.zeros((2, 10000, 8), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        groups[:, :, 2 * j] = g // place % 10 + ord("0")
        groups[1, g % (10 * place) == 0, 2 * j] = 0
    # Byte masks of the four groups keeping their first k - 1 digits.
    keep = np.zeros((18, 32), np.uint8)
    for k in range(1, 18):
        keep[k, 0:2 * (k - 1):2] = 0xFF
    # Per exponent: the first 8 bytes of a cell (sign, "0." and leading
    # zeros; digit 0 and its slot are filled in) and the last 8 ("e+XX").
    prefix = np.zeros((2 * _E_MAX + 1, 8), np.uint8)
    suffix = np.zeros((2 * _E_MAX + 1, 8), np.uint8)
    for E in range(-_E_MAX, _E_MAX + 1):
        if -4 <= E < 0:
            text = b"0." + b"0" * (-E - 1)
            prefix[E + _E_MAX, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
        elif not 0 <= E < 17:
            text = b"e%+03d" % E
            suffix[E + _E_MAX, :len(text)] = np.frombuffer(text, np.uint8)
    return (powers, groups.view(np.uint64).ravel(), keep.view(np.uint64),
            prefix.view(np.uint64).ravel(), suffix.view(np.uint64).ravel())


def _scaled(a, E, powers):
    """round(|x| 10^(16-E)) and the fraction it rounds off."""
    hi, hi_hi, hi_lo, lo = (t.take(_E_MAX - E) for t in powers)
    p = a * hi
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    r = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    ri = np.rint(r)
    return p.astype(np.int64) + ri.astype(np.int64), r - ri


def _float_cells(values):
    """``(n, _CELL)`` uint8 cells holding ``'%.17g' % v`` of each of the
    ``n`` floats, zero-padded at fixed places (see the module docstring)."""
    powers, groups, keep, prefix, suffix = _tables()
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    direct = ~((a >= 1e-280) & (a <= 1e280))
    a[direct] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    N, f = _scaled(a, E, powers)
    while True:
        move = (N > 10**17) | ((N == 10**17) & (f > -_EDGE))
        move = move.astype(np.int64) - ((N < 10**16) | ((N == 10**16) & (f < -_EDGE)))
        redo = np.flatnonzero(move)
        if not redo.size:
            break
        E[redo] += move[redo]
        N[redo], f[redo] = _scaled(a[redo], E[redo], powers)
    direct |= np.abs(f) > _TIE
    del a, f
    top = N == 10**17
    N[top] = 10**16
    E += top

    # N = d0 | four groups of 4 digits.  A group is written without its
    # trailing zeros when every group after it is 0000.
    hi = N // 10**8
    lo = N - hi * 10**8
    d0 = hi // 10**8
    hi -= d0 * 10**8
    del N
    g = np.empty((n, 4), np.int64)
    g[:, 0] = hi // 10**4
    g[:, 1] = hi - g[:, 0] * 10**4
    g[:, 2] = lo // 10**4
    g[:, 3] = lo - g[:, 2] * 10**4
    del hi, lo
    tail = np.ones(n, bool)
    for j in (3, 2, 1, 0):
        g[:, j] += 10000 * tail
        tail &= g[:, j] == 10000

    cells = np.empty((n, _CELL // 8), np.uint64)
    cells[:, 0] = prefix.take(E + _E_MAX)
    cells[:, 1:5] = groups.take(g)
    cells[:, 5] = suffix.take(E + _E_MAX)
    b = cells.view(np.uint8)
    b[:, 0] = (x < 0) * np.uint8(ord("-"))
    b[:, 6] = d0 + ord("0")
    # The point follows digit E of the fixed format with E >= 0, digit 0 of
    # the exponent format.  Digits 0..E of the fixed format are all written:
    # where the stripping took some, the value is whole and gets them back.
    whole = (E >= 0) & (E < 17)
    at = np.arange(6, n * _CELL, _CELL) + 2 * np.where(whole, E, 0)
    flat = b.ravel()
    short = np.flatnonzero(whole & (flat[at] == 0))
    if short.size:
        cells[short, 1:5] = groups.take(g[short] % 10000)
        cells[short, 1:5] &= keep.take(E[short] + 1, axis=0)
    flat[at[(flat[at + 2] != 0) & ((E >= 0) | (E < -4))] + 1] = ord(".")
    direct = np.flatnonzero(direct)
    if direct.size:
        b[direct] = np.array([b"%.17g" % v for v in x[direct].tolist()],
                             dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return b


def _text_cells(column):
    """'%s' of each value of ``column``, as zero-padded uint8 cells."""
    if column.dtype.kind == "U":  # ASCII text is its UCS-4 code units
        codes = np.ascontiguousarray(column).view(np.uint32).reshape(len(column), -1)
        if codes.max() < 128:
            return codes.astype(np.uint8)
    if column.dtype.kind in "iub":
        text = column.astype("S")
    else:
        text = np.array([("%s" % v).encode() for v in column.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(len(text), -1)


def _line_cells(cols, floats):
    """The equal-length ``cols`` as one zero-padded uint8 row per CSV line:
    each column's cells followed by its ',' or the line's newline.  The
    columns indexed by ``floats`` are formatted in one kernel call."""
    rows = len(cols[0])
    values = np.empty((rows, len(floats)))
    for j, i in enumerate(floats):
        values[:, j] = cols[i]
    fcells = _float_cells(values).reshape(rows, len(floats), _CELL)
    cells = [fcells[:, floats.index(i)] if i in floats else _text_cells(c)
             for i, c in enumerate(cols)]
    line = np.zeros((rows, sum(c.shape[1] + 1 for c in cells)), np.uint8)
    end = 0
    for c in cells:
        line[:, end:end + c.shape[1]] = c
        end += c.shape[1] + 1
        line[:, end - 1] = ord(",")
    line[:, -1] = ord("\n")
    return line


def format_value(x):
    """``x`` as text: a float with 17 significant digits, the bytes of
    ``format(x, '.17g')`` as a CSV cell holds them, anything else as
    ``str``."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def write_csv(path, header, columns):
    """Write equal-length ``columns`` under the column names in ``header``.

    A float column is written with '%.17g' (the bytes of
    ``format(x, '.17g')``), any other column (int, str) with '%s'.  The rows
    are written in blocks of ``_BLOCK_ROWS``, each laid out by
    ``_line_cells`` and written after its zero bytes are dropped.
    """
    cols = [np.asarray(c) for c in columns]
    floats = [i for i, c in enumerate(cols) if c.dtype.kind == "f"]
    rows = min((len(c) for c in cols), default=0)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, _BLOCK_ROWS):
            block = [c[start:min(start + _BLOCK_ROWS, rows)] for c in cols]
            fh.write(_line_cells(block, floats).tobytes().translate(None, b"\0"))

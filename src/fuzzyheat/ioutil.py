"""Deterministic CSV output: every value with 9 significant digits,
byte for byte what ``"{:.9g}".format`` prints, formatted in bulk.

:func:`write_csv` formats a 2-D float table with NumPy alone, in chunks
of 2048 values, each written to the stream as soon as it is done.
Per value, with ``a = |x|``:

* ``e = floor(log10(a))`` and ``y = a * p``, where ``p`` is the double
  nearest ``10**(8 - e)``.  Two roundings of at most ``2**-53`` each
  put ``y`` within ``2.3e-7`` of the exact ``a * 10**(8 - e)`` while
  ``y < 1e9``.
* The rounding certificate: ``1e8 - 0.5 <= y < 1e9 - 0.5`` and
  ``|frac(y) - 0.5| > 1e-6``.  Then the exact value rounds to the same
  integer ``r`` as ``y``, so ``r`` holds the nine correctly rounded
  significant digits and ``e`` their decimal exponent, as Python's
  formatter finds them.
* The digits of ``r`` come from a table of ``0000`` to ``9999``, and
  their trailing zeros from a second table.  Each value fills a 24-byte
  record: sign, the ``0.`` and zeros of ``-4 <= e < 0``, ten slots for
  the digits with the decimal point shifted in, the exponent of
  ``e < -4`` or ``e > 8`` and the separator.  Every byte the value does
  not print is NUL, and one ``bytes.translate`` deletes them all.
  Zeros take the same path and print ``0`` or ``-0``.

What the certificate does not cover is formatted by ``format(x, ".9g")``
one value at a time: NaN and infinities, ``|x|`` below ``1e-280`` or
above ``1e280``, values within ``1e-6`` of a rounding tie (exact ties
included) and values whose nine-digit rounding leaves the decade ``e``
names (next to powers of ten).
"""

from __future__ import annotations

import numpy as np

# Stdout lines and error messages format one value at a time.
fmt = "{:.9g}".format

# Values formatted at a time.  A chunk's temporaries peak at about 185
# bytes a value.  glibc 2.36 keeps those of 2048 values for the next chunk;
# those of 4096 it returned to the system after each chunk and faulted back
# in (about 90 page faults a chunk), unless an earlier large free had
# raised its trim threshold.
CHUNK = 2048
_LARGEST = 1e280  # |x| in [1 / _LARGEST, _LARGEST] can be certified

_WORD = np.dtype("<u8")  # eight bytes of a record, first byte lowest
_RECORD = 24  # bytes per value: sign and zeros, slots 0-7, slots 8-9 with exponent and separator


def _word(text: bytes, at: int = 0) -> int:
    """``text`` from byte ``at`` of a record word."""
    return int.from_bytes(b"\0" * at + text, "little")


def _table(rows) -> np.ndarray:
    return np.array([_word(*row) if isinstance(row, tuple) else row for row in rows], dtype=_WORD)


# By exponent e in [-300, 300], at e + 300: the power of ten that scales
# |x| to nine digits; the digits before the point (1 in exponent form, 9
# for none when e < 0); the fewest digits printed; the first record word
# ("0." and the zeros of -4 <= e < 0, after the sign at byte 2); and the
# exponent, in bytes 2 to 6 of the last word.
_E = range(-300, 301)
_POW10 = np.array([float(f"1e{8 - e}") for e in _E])
_POINT = np.array([1 if not -4 <= e <= 8 else 9 if e < 0 else e + 1 for e in _E])
_LEAST = np.array([e + 1 if 0 <= e <= 8 else 0 for e in _E])
_HEAD = _table((b"0." + b"0" * (-e - 1), 3) if -4 <= e < 0 else 0 for e in _E)
_EXPONENT = _table((b"e%+03d" % e, 2) if not -4 <= e <= 8 else 0 for e in _E)
_SIGN = np.uint64(_word(b"-", 2))

# Four ASCII digits of 0 to 9999, and their trailing zeros (4 for 0).
_I = np.arange(10000, dtype=np.uint32)
_QUAD = sum((_I // 10**k % 10 + ord("0")) << 8 * (3 - k) for k in range(4)).astype(_WORD)
_ZEROS = sum((_I % 10**k == 0).astype(np.int8) for k in range(1, 5))
del _I

# The point after p of the nine digits, by p (slots 0-7 in one word,
# slots 8 and 9 in the next): the slots that keep their digit, the point,
# and the slots after it, which take the digit one slot before.
_ALL = 2**64 - 1
_KEEP_LO = _table(_ALL >> 8 * max(8 - p, 0) if p else 0 for p in range(10))
_KEEP_HI = _table(0xFF if p == 9 else 0 for p in range(10))
_POINT_LO = _table((b".", p) if p < 8 else 0 for p in range(10))
_POINT_HI = _table((b".", p - 8) if p >= 8 else 0 for p in range(10))
_MOVE_LO = _table(_ALL & ~(_ALL >> 8 * (7 - p)) if p < 7 else 0 for p in range(10))
_MOVE_HI = _table(0xFFFF if p < 8 else 0xFF00 if p == 8 else 0 for p in range(10))
# The first c of the ten slots, by c.
_PRINT_LO = _table(_ALL >> 8 * (8 - min(c, 8)) if c else 0 for c in range(11))
_PRINT_HI = _table((1 << 8 * max(c - 8, 0)) - 1 for c in range(11))


def write_csv(stream, header: str | None, table, prefix: str = "") -> None:
    """Write ``header`` and then one line per row of the 2-D float
    ``table``: ``prefix``, then the row's values as ``"{:.9g}"`` prints
    them, separated by commas.  ``prefix`` holds no NUL."""
    if header:
        stream.write(header)
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    per_chunk = max(1, CHUNK // cols)
    size = min(rows, per_chunk) * cols
    lead = -(-len(prefix.encode()) // 8)  # words of prefix per record
    records = np.zeros((size, lead + _RECORD // 8), dtype=_WORD)
    col = np.arange(size) % cols
    if lead:  # before each row's first value
        records[col == 0, :lead] = np.frombuffer(prefix.encode().ljust(8 * lead, b"\0"), _WORD)
    ends = np.where(col == cols - 1, _word(b"\n", 7), _word(b",", 7)).astype(_WORD)
    for start in range(0, rows, per_chunk):
        values = table[start:start + per_chunk].ravel()
        n = values.size
        _format(values, records[:n, lead:], ends[:n])
        stream.write(records[:n].tobytes().translate(None, b"\0").decode())


def _format(x: np.ndarray, out: np.ndarray, ends: np.ndarray) -> None:
    """Fill the three record words ``out`` of the values ``x``; ``ends``
    holds their separators."""
    a = np.abs(x)
    fine = (a >= 1.0 / _LARGEST) & (a <= _LARGEST)
    a[~fine] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp) + 300
    y = a * _POW10.take(e)
    whole = np.floor(y)
    frac = y - whole
    sure = fine & (y >= 1e8 - 0.5) & (y < 1e9 - 0.5) & (np.abs(frac - 0.5) > 1e-6)
    e[~sure] = 300  # zeros print as "0"
    r = np.where(sure, whole + (frac > 0.5), 0.0).astype(np.int32)

    # The nine digits of r = 10 (10000 top + bottom) + last: slots 0-7 in
    # lo and slot 8 in hi, before the point moves in.
    head = r // 10
    last = r - 10 * head
    top = head // 10000
    bottom = head - 10000 * top
    lo = _QUAD.take(bottom) << np.uint64(32) | _QUAD.take(top)
    hi = (last + ord("0")).astype(_WORD)
    zeros = (last == 0) * (1 + _ZEROS.take(bottom) + (bottom == 0) * _ZEROS.take(top))
    digits = np.maximum(9 - zeros, _LEAST.take(e))
    point = _POINT.take(e)
    printed = digits + (digits > point)  # slots: the point only with a digit after it

    # The slots after the point take the digit one slot before.
    next_lo = lo << np.uint64(8)
    next_hi = (hi << np.uint64(8)) | (lo >> np.uint64(56))
    lo = (lo & _KEEP_LO.take(point)) | _POINT_LO.take(point) | (next_lo & _MOVE_LO.take(point))
    hi = (hi & _KEEP_HI.take(point)) | _POINT_HI.take(point) | (next_hi & _MOVE_HI.take(point))
    out[:, 0] = _HEAD.take(e) | np.signbit(x) * _SIGN
    out[:, 1] = lo & _PRINT_LO.take(printed)
    out[:, 2] = (hi & _PRINT_HI.take(printed)) | _EXPONENT.take(e) | ends

    for i in np.nonzero(~sure & (x != 0.0))[0].tolist():
        out[i] = np.frombuffer(format(float(x[i]), ".9g").encode().ljust(_RECORD, b"\0"), _WORD)
        out[i, 2] |= ends[i]

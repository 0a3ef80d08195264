"""Deterministic CSV output: every value with 9 significant digits,
byte for byte what ``"{:.9g}".format`` prints, formatted in bulk.

:func:`write_csv` formats a 2-D float table with NumPy alone, in chunks
of 4096 values, each written to the stream as soon as it is done.  Every
step of the formatter writes into work arrays that one call allocates
once (``out=`` ufuncs and ``take(..., out=)``), so a chunk allocates
nothing the size of the chunk but its text.  Per value, with ``a = |x|``:

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
  not print is NUL, and one ``translate`` of the chunk's record buffer
  deletes them all.
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

# Values formatted at a time.  The work arrays, 68 bytes a value, are
# allocated once per write_csv call, so a larger chunk costs no page faults
# per chunk and fewer NumPy calls per value.  At 4096 values the rod's
# time-series table is written about 10 % faster than at 2048; 8192 was
# faster still but raised the peak memory of a 40x40 sweep by 0.4 MiB.
CHUNK = 4096
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
# slots 8 and 9 in the next): the slots that keep their digit, and the
# point.  The digits of the other slots move one slot up.
_ALL = 2**64 - 1
_KEEP_LO = _table(_ALL >> 8 * max(8 - p, 0) if p else 0 for p in range(10))
_KEEP_HI = _table(0xFF if p == 9 else 0 for p in range(10))
_POINT_LO = _table((b".", p) if p < 8 else 0 for p in range(10))
_POINT_HI = _table((b".", p - 8) if p >= 8 else 0 for p in range(10))
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
    width = 8 * lead + _RECORD  # bytes per value
    text = bytearray(size * width)  # the records, translated in place of a copy
    records = np.frombuffer(text, dtype=_WORD).reshape(size, width // 8)
    if lead:  # before each row's first value
        records[::cols, :lead] = np.frombuffer(prefix.encode().ljust(8 * lead, b"\0"), _WORD)
    ends = np.full(size, _word(b",", 7), dtype=_WORD)
    ends[cols - 1::cols] = _word(b"\n", 7)
    words, masks = np.empty((8, size), dtype=_WORD), np.empty((4, size), dtype=np.bool_)
    for start in range(0, rows, per_chunk):
        values = table[start:start + per_chunk].ravel()
        n = values.size
        _format(values, records[:n, lead:], ends[:n], words[:, :n], masks[:, :n])
        chunk = text if n == size else text[:n * width]
        stream.write(chunk.translate(None, b"\0").decode())


def _format(x: np.ndarray, out: np.ndarray, ends: np.ndarray, words: np.ndarray,
            masks: np.ndarray) -> None:
    """Fill the three record words ``out`` of the values ``x``; ``ends``
    holds their separators.  ``words`` (eight rows of 64-bit words) and
    ``masks`` (four rows of bytes), each ``len(x)`` long, are the work
    arrays: every step writes into one of their rows, named for what it
    holds at that step.  The lookups run ``take`` with ``mode="clip"``
    (every index is in range), since ``mode="raise"`` copies ``out``."""
    f, i, u = words.view(np.float64), words.view(np.intp), words
    sure, other = masks[0], masks[1]  # booleans
    zeros, more = masks[2].view(np.int8), masks[3].view(np.int8)

    a, c = f[0], f[1]
    np.abs(x, out=a)
    np.fmin(a, _LARGEST, out=c)  # NaN becomes _LARGEST
    np.fmax(c, 1.0 / _LARGEST, out=c)
    np.equal(c, a, out=sure)  # so far: finite and in range
    e, lg = i[2], f[0]
    np.log10(c, out=lg)
    np.floor(lg, out=lg)
    np.copyto(e, lg, casting="unsafe")
    np.add(e, 300, out=e)
    y, whole = f[0], f[1]
    _POW10.take(e, out=y, mode="clip")
    np.multiply(c, y, out=y)
    np.floor(y, out=whole)
    np.greater_equal(y, 1e8 - 0.5, out=other)
    np.logical_and(sure, other, out=sure)
    np.less(y, 1e9 - 0.5, out=other)
    np.logical_and(sure, other, out=sure)
    half = whole  # frac(y) - 0.5
    np.subtract(y, whole, out=half)
    np.subtract(half, 0.5, out=half)
    np.abs(half, out=half)
    np.greater(half, 1e-6, out=other)
    np.logical_and(sure, other, out=sure)  # the certificate
    # A certified y is no tie, so rint(y) is floor(y) + (frac(y) > 0.5).
    np.rint(y, out=y)
    r = i[1]
    np.copyto(r, y, casting="unsafe")
    np.logical_not(sure, out=other)
    unsure = np.flatnonzero(other)
    e[unsure] = 300  # zeros print as "0"
    r[unsure] = 0

    # The nine digits of r = 10 (10000 top + bottom) + last: slots 0-7 in
    # lo and slot 8 in hi, before the point moves in.
    head, part, top, last, bottom = i[0], i[3], i[4], r, i[0]
    np.floor_divide(r, 10, out=head)
    np.multiply(head, 10, out=part)
    np.subtract(r, part, out=last)
    np.floor_divide(head, 10000, out=top)
    np.multiply(top, 10000, out=part)
    np.subtract(head, part, out=bottom)
    # Trailing zeros of the nine digits: of last, bottom and top in turn.
    _ZEROS.take(top, out=zeros, mode="clip")
    np.equal(bottom, 0, out=other)
    np.multiply(zeros, other, out=zeros)
    _ZEROS.take(bottom, out=more, mode="clip")
    np.add(zeros, more, out=zeros)
    np.add(zeros, 1, out=zeros)
    np.equal(last, 0, out=other)
    np.multiply(zeros, other, out=zeros)
    lo, hi = u[5], u[1]
    _QUAD.take(bottom, out=lo, mode="clip")
    np.left_shift(lo, np.uint64(32), out=lo)
    _QUAD.take(top, out=u[6], mode="clip")
    np.bitwise_or(lo, u[6], out=lo)
    np.add(last, ord("0"), out=last)  # hi: the ninth digit
    point, printed = i[0], i[3]
    _POINT.take(e, out=point, mode="clip")
    _LEAST.take(e, out=printed, mode="clip")
    np.subtract(9, zeros, out=zeros)
    np.maximum(printed, zeros, out=printed)
    np.greater(printed, point, out=other)
    np.add(printed, other, out=printed)  # slots: the point only with a digit after it

    # The digits from the point's slot on move one slot up, slot 7 from lo
    # into slot 8 of hi, and the point takes its slot.
    part, moved, carry = u[4], u[6], u[7]  # u[4]: top's row, free now
    _KEEP_LO.take(point, out=part, mode="clip")
    np.bitwise_and(lo, part, out=part)
    np.bitwise_xor(lo, part, out=moved)
    np.right_shift(moved, np.uint64(56), out=carry)
    np.left_shift(moved, np.uint64(8), out=moved)
    np.bitwise_or(part, moved, out=lo)
    _POINT_LO.take(point, out=part, mode="clip")
    np.bitwise_or(lo, part, out=lo)
    _KEEP_HI.take(point, out=part, mode="clip")
    np.bitwise_and(hi, part, out=part)
    np.bitwise_xor(hi, part, out=moved)
    np.left_shift(moved, np.uint64(8), out=moved)
    np.bitwise_or(moved, carry, out=moved)
    np.bitwise_or(part, moved, out=hi)
    _POINT_HI.take(point, out=part, mode="clip")
    np.bitwise_or(hi, part, out=hi)
    _PRINT_LO.take(printed, out=part, mode="clip")
    np.bitwise_and(lo, part, out=out[:, 1])
    _PRINT_HI.take(printed, out=part, mode="clip")
    np.bitwise_and(hi, part, out=hi)
    _EXPONENT.take(e, out=part, mode="clip")
    np.bitwise_or(hi, part, out=hi)
    np.bitwise_or(hi, ends, out=out[:, 2])
    _HEAD.take(e, out=part, mode="clip")
    np.right_shift(x.view(_WORD), np.uint64(63), out=lo)  # the sign bit
    np.multiply(lo, _SIGN, out=lo)
    np.bitwise_or(part, lo, out=out[:, 0])

    for k in unsure[x[unsure] != 0.0].tolist():
        out[k] = np.frombuffer(format(float(x[k]), ".9g").encode().ljust(_RECORD, b"\0"), _WORD)
        out[k, 2] |= ends[k]

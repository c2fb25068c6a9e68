"""The exact ``'%.17g' % v`` text of float64 values, a block at a time.

``%.17g`` rounds a value to 17 significant digits, ties to even, and prints
it in fixed notation if its decimal exponent k (that of the rounded value)
is in [-4, 16], as ``d.ddde±XX`` otherwise (at least two exponent digits),
with trailing zeros and a bare point stripped. :class:`BlockFormatter` makes
the same bytes for a block of values with a fixed number of numpy calls:

* **Significand.** k = floor(log10|x|). The 17-digit significand is
  |x| 10**(16-k), rounded to an integer: a Dekker two-product of |x| with the
  high part of a double-double 10**(16-k), built exactly from Python ints,
  plus |x| times its low part, gives it to within 1e-14. Where log10 rounded
  across a power of ten, so that the significand falls outside [10**16,
  10**17), k moves by one and the product is taken again; a round up to
  10**17 is 10**16 at k + 1.
* **Digits.** Int64 divisions split the significand into a leading digit and
  four 4-digit groups; one gather from a table of 8-byte words gives their
  text, each digit followed by a slot for the point.
* **Layout.** Each value gets a :data:`ROW`-byte row holding every byte its
  text could need: the sign, a ``0.000`` prefix, the 17 digits and their
  slots, the exponent and the field's separator (``,`` or the line's
  ``\\n``). A mask row, looked up by the value's notation and sign and its
  number of significant digits, keeps the bytes of its text; the rest are
  zeroed, and one ``bytes.translate`` per block deletes them.

Rounding is decided exactly except within 1e-6 of a tie, which the kernel
cannot tell from a tie. A value there (true ties such as 1000000000000000.25
included) or of magnitude outside [1e-250, 1e250], where the tables end
(subnormals, ±inf and nan included), goes alone through ``'%.17g' %``, the
only other path. Zeros take the constant texts ``0`` and ``-0`` from the mask.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# Values formatted per block, whole lines of them. A block's working memory
# is about 190 B a value: 130 B of arrays kept from block to block, the
# 48 B of ``bytes.translate``'s result and the block of values itself.
VALUES = 2048
# Bytes of a value's row: sign, "0.000", 17 digits each with a point slot,
# "e", exponent sign and up to three digits, separator, two spare bytes.
ROW = 48
_SEP = 45  # the separator's byte in a row
# Magnitudes the kernel formats; the powers of ten cover their k, corrected
_SMALLEST, _LARGEST = 1e-250, 1e250
_P_LO, _P_HI = -240, 272  # the exponents p of the tabled 10**p
_P0 = 16 - _P_LO  # table index of 10**(16 - k) is _P0 - k
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# A fraction within this of 1/2 may be a tie
_TIE = 1e-6


def _power_of_ten(p: int) -> tuple[float, float, float, float]:
    """10**p as the double-double hi + lo (each correctly rounded from exact
    integers), with hi's Veltkamp halves: (hi, hi_high, hi_low, lo)."""
    if p >= 0:
        hi = float(10**p)
        lo = float(10**p - int(hi))
    else:
        hi = 1 / 10**-p
        num, den = hi.as_integer_ratio()
        lo = (den - num * 10**-p) / (den * 10**-p)
    split = _VELTKAMP * hi
    high = split - (split - hi)
    return hi, high, hi - high, lo


_POWERS = np.array([_power_of_ten(p) for p in range(_P_LO, _P_HI)]).T
_HI_PARTS, _LO_PARTS = _POWERS[:2].copy(), _POWERS[2:].copy()  # (hi, hi_high), (hi_low, lo)


def _words(texts: np.ndarray) -> np.ndarray:
    """The rows of an ``[m, 8]`` uint8 array of text as 8-byte words."""
    return np.ascontiguousarray(texts, np.uint8).view(np.uint64).ravel()


def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """The words of a row's text, one table: 10 000 groups of four digits
    each followed by a point slot, ``d.d.d.d.``; then at _HEAD + d the head
    ``-0.000d.``; then at _EXP + 2 p + (1 for a line's last field) the
    exponent of index p with its separator, ``e+dd_,`` or ``e-ddd,``. And
    each group's trailing zeros, 99 for the zero group."""
    group = np.arange(10_000, dtype=np.int16)  # small temporaries keep the import's peak low
    quads = np.full((10_000, 8), ord("."), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        quads[:, 2 * j] = group // place % 10 + ord("0")
    heads = b"".join(b"-0.000%d." % d for d in range(10))
    exps = b"".join((b"e%c%02d" % (b"-+"[k >= 0], abs(k))).ljust(5, b"0") + sep
                    for k in range(16 - _P_LO, 16 - _P_HI, -1) for sep in (b",\0\0", b"\n\0\0"))
    zeros = np.zeros(10_000, np.int8)
    for place in (10, 100, 1000):
        zeros += group % place == 0
    zeros[0] = 99
    return np.concatenate([_words(quads), np.frombuffer(heads + exps, np.uint64)]), zeros


_TEXT, _GROUP_ZEROS = _text_tables()
_HEAD, _EXP = 10_000, 10_010
# The digits after each group: the least over the groups of its trailing
# zeros plus these is the trailing zeros of the 16 digits after the first
# (99 and more if all are zero, which a fifth row of 16 caps)
_ZEROS_AFTER = np.array([12, 8, 4, 0], np.int8)[:, None]

# Layout classes: fixed notation for k = -4..16, exponent notation with two
# or three exponent digits, zero, and the per-value fallback's own text.
_FIXED = range(-4, 17)
_EXP2, _EXP3, _ZERO, _RAW = 21, 22, 23, 24
# A mask row's index: class * 50 + 25 * (negative) + kept, where kept counts
# the significant digits (the fallback's text length, for _RAW).
_CLASS, _NEG = 50, 25


def _masks() -> np.ndarray:
    """The mask rows, as ``[rows, ROW // 8]`` words: 0xFF where a byte of a
    row is kept. Byte j is kept if its rank r[j] < kept: rank 0 is always
    kept, rank i is the i-th significant digit, 99 never."""
    ranks = np.full((25, 2, ROW), 99)
    digit = np.arange(17)
    for cls in range(25):
        for neg in (0, 1):
            r = ranks[cls, neg]
            r[_SEP] = 0
            if cls == _RAW:
                r[:24] = np.arange(24)
                continue
            r[0] = 0 if neg else 99
            if cls == _ZERO:
                r[1] = 0
            elif cls < _EXP2:
                k = _FIXED[cls]
                r[6:40:2] = np.where(digit <= k, 0, digit)  # the integer digits always
                if k >= 0:
                    r[7 + 2 * k] = k + 1  # a point only before a significant digit
                else:
                    r[1:2 - k] = 0  # "0." and the zeros after the point
            else:
                r[6:40:2] = digit
                r[7] = 1
                r[40:44 if cls == _EXP2 else 45] = 0
    kept = np.arange(25)
    mask = ranks[:, :, None, :] < kept[:, None]
    return _words(mask.reshape(-1, ROW) * np.uint8(0xFF)).reshape(-1, ROW // 8)


_MASKS = _masks()


def _layout_class(k: int) -> int:
    if k in _FIXED:
        return k - _FIXED.start
    return _EXP2 if abs(k) < 100 else _EXP3


# The mask row's index for each power index, before the sign and the count
_CLASS_OF = np.array([_layout_class(16 - p) * _CLASS + 17 for p in range(_P_LO, _P_HI)])


class BlockFormatter:
    """The CSV text of blocks of a table's values: called with up to
    ``rows`` whole lines of ``columns`` values, row-major, it gives their
    ``%.17g`` text, fields separated by ``,`` and each line ended by ``\\n``.
    It holds one block's working arrays, reused by every call."""

    def __init__(self, columns: int):
        self.rows = max(1, VALUES // columns)
        n = self.rows * columns
        # Rows of float work: s, c, ah, al, ph, e, then t, u, which take two
        # parts of 10**(16-k) at a time. Once the significand is rounded,
        # rows 0-5 hold the text words' indices, later the words themselves
        # (as [n, 6]); row 6 the significand, later the mask row's index.
        self._work = np.empty((8, n))
        self._p = np.empty(n, np.intp)
        # the groups' trailing zeros, under a last row of 16 for all zero
        self._zeros = np.full((5, n), 16, np.int8)
        self._kept = np.empty(n, np.int8)
        self._flag = np.empty(n, bool)
        self._exp = np.tile(_EXP + (np.arange(columns) == columns - 1), self.rows).astype(np.int16)
        # The block's rows of text: the words' indices, then the mask, then
        # the kept bytes of the text, the rest zero
        self._text = bytearray(n * ROW)
        self._rows = np.frombuffer(self._text, np.uint64).reshape(n, ROW // 8)

    def __call__(self, x: np.ndarray) -> bytearray:
        n = len(x)
        work = self._work[:, :n]
        s, c, ah, al, ph, e, t, u = work
        p, flag = self._p[:n], self._flag[:n]
        np.abs(x, out=t)
        np.fmax(t, _SMALLEST, out=s)
        np.fmin(s, _LARGEST, out=s)
        special = t != s  # zero, out of range, inf or nan
        np.log10(s, out=c)
        np.floor(c, out=c)
        np.subtract(_P0, c, out=c)
        np.copyto(p, c, casting="unsafe")
        while True:
            # the significand is ph + e: Dekker's exact s * hi, plus s * lo
            np.multiply(s, _VELTKAMP, out=c)
            np.subtract(c, s, out=ah)
            np.subtract(c, ah, out=ah)
            np.subtract(s, ah, out=al)
            np.take(_HI_PARTS, p, axis=1, out=work[6:], mode="clip")
            np.multiply(s, t, out=ph)
            np.multiply(ah, u, out=e)
            e -= ph
            np.multiply(al, u, out=c)
            np.take(_LO_PARTS, p, axis=1, out=work[6:], mode="clip")
            ah *= t
            e += ah
            e += c
            al *= t
            e += al
            u *= s
            e += u
            if ph.min() > 1.0001e16 and ph.max() < 0.9999e17:
                break
            low = (ph - 1e16) + e < 0
            high = (ph - 1e17) + e >= 0.5  # [10**17, 10**17 + 1/2) rounds to 10**17
            if not (low.any() or high.any()):
                break
            p += low
            p -= high
        np.rint(e, out=c)  # the rounded significand is ph + c
        e -= c
        np.abs(e, out=e)  # 1/2 at a tie
        tie = e > 0.5 - _TIE if e.max() > 0.5 - _TIE else None
        digits = t.view(np.int64)
        np.copyto(digits, ph, casting="unsafe")
        np.copyto(u.view(np.int64), c, casting="unsafe")
        digits += u.view(np.int64)
        if digits.max() == 10**17:
            carry = digits == 10**17
            digits[carry] = 10**16
            p -= carry

        # the words' indices: head (with the first digit), four groups of
        # four digits, exponent (with the separator)
        word = work[:6].view(np.intp)
        np.floor_divide(digits, 10**8, out=word[2])  # the first 9 digits
        np.multiply(word[2], 10**8, out=word[4])
        np.subtract(digits, word[4], out=word[4])  # the last 8
        np.floor_divide(word[2], 10**8, out=word[0])
        np.multiply(word[0], 10**8, out=word[1])
        word[2] -= word[1]  # digits 2-9
        np.floor_divide(word[2::2], 10**4, out=word[1:4:2])
        scratch = work[6:].view(np.int64)
        np.multiply(word[1:4:2], 10**4, out=scratch)
        word[2::2] -= scratch
        zeros, kept = self._zeros[:, :n], self._kept[:n]
        np.take(_GROUP_ZEROS, word[1:5], out=zeros[:4], mode="clip")
        zeros[:4] += _ZEROS_AFTER
        np.min(zeros, axis=0, out=kept)  # the trailing zeros
        word[0] += _HEAD
        np.multiply(p, 2, out=word[5])
        word[5] += self._exp[:n]

        # the mask row's index: layout class, sign, significant digits
        index = work[6].view(np.intp)
        np.take(_CLASS_OF, p, out=index, mode="clip")
        np.signbit(x, out=flag)
        np.multiply(flag, _NEG, out=zeros[0])
        kept -= zeros[0]
        index -= kept

        rows = self._rows[:n]
        np.copyto(rows.view(np.intp), word.T)
        words = self._work[:6].view(np.uint64).reshape(-1, ROW // 8)[:n]
        np.take(_TEXT, rows.view(np.intp), out=words, mode="clip")
        if tie is not None or special.any():
            zero = x == 0
            index[zero] = _ZERO * _CLASS + 1 + _NEG * flag[zero]
            text = words.view(np.uint8)
            for i in np.flatnonzero((special if tie is None else special | tie) & ~zero):
                fallback = b"%.17g" % x[i]
                text[i, :len(fallback)] = np.frombuffer(fallback, np.uint8)
                index[i] = _RAW * _CLASS + len(fallback)
        np.take(_MASKS, index, axis=0, out=rows, mode="clip")
        rows &= words
        self._rows[n:] = 0  # a short last block leaves no stale text
        return self._text.translate(None, b"\0")


def csv_blocks(columns: Sequence[np.ndarray]) -> Iterator[bytearray]:
    """The CSV lines of the rows of ``columns``, equal-length float arrays,
    each value ``%.17g``: the text of :data:`VALUES` values at a time, so
    the columns are never copied whole."""
    formatter = BlockFormatter(len(columns))
    block = np.empty((formatter.rows, len(columns)))
    length = len(columns[0])
    for start in range(0, length, formatter.rows):
        rows = block[:min(formatter.rows, length - start)]
        np.stack([column[start:start + len(rows)] for column in columns], axis=1, out=rows)
        yield formatter(rows.ravel())

"""JSON/CSV output helpers.  Floats are printed at 17 significant digits,
which round-trips them exactly.

:func:`write_csv` prints its floats in numpy, a block of rows at a time,
with the bytes of ``"%.17g" % v`` for every value.  Each value's 17 digits
N = round(|v| * 10**(16 - k)), k = floor(log10 |v|), come from an exact
product with a table of powers of ten, as in Ryu printf (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019); a value the
product does not settle (k off by one, a fraction near 1/2), and every inf
or NaN, is printed by ``%``.
The CSV tables are mostly grids, whose axis columns repeat a few values
over many rows; such a column has each distinct value printed once.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np


def _encode(obj, indent, level):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{float(obj)} is not a JSON number")
        return f"{float(obj):.17g}"
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not obj:
        return brackets
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"keys {list(obj)} are not all strings")
        items = [f"{json.dumps(key)}: {_encode(value, indent, level + 1)}"
                 for key, value in obj.items()]
    else:
        items = [_encode(value, indent, level + 1) for value in obj]
    inner = "\n" + indent * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent * level + brackets[1]


def dumps(obj, indent=2):
    """``json.dumps(obj, indent=indent)``, with every float printed at 17
    significant digits.  A float that is not finite has no JSON form and
    raises ``ValueError``; a dict key that is not a str raises ``TypeError``."""
    return _encode(obj, " " * indent, 0)


#: Rows written per block.  Beyond the table and a sorted copy of one of its
#: columns, a block's text and the printing's temporaries are all the memory
#: a table costs.
_CSV_BLOCK = 2048

#: A printed value is a column of this many bytes, NUL where it has no
#: character: row 0 the sign, rows 1-5 a "0.000" prefix, row 6 + 2j digit j
#: and row 7 + 2j the point after it, rows 40-44 an "e+308" suffix.
#: Dropping the NULs leaves ``"%.17g" % v``.
_WIDTH = 45
_AFFIX_ROWS = [*range(1, 6), *range(40, 45)]

#: Every k = floor(log10 |v|) of a finite float.
_K_MIN, _K_MAX = -324, 308
#: Dekker's split of a float into two 26-bit halves.
_SPLIT = 134217729.0
#: A fraction of N this close to 1/2 may round either way: ``%`` prints it.
_TIE_MARGIN = 1e-9


@functools.cache
def _pow10_table():
    """``(pow10, hi, hi_hi, hi_lo, lo, biased_exp)``, read-only arrays built
    on the first print: pow10[k - _K_MIN] = float(10**k) for k in [_K_MIN,
    _K_MAX + 1], to correct floor(log10) by one, and over k in [_K_MIN,
    _K_MAX], 10**(16 - k) = (hi + lo) * 2**(biased_exp - 1023) to 2**-106,
    with hi in [1, 2), lo the rest and hi_hi + hi_lo = hi Dekker's split.
    Each of hi and lo is the float nearest its exact value: Python's int
    true division rounds exactly."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 16:
            num = 10 ** (16 - k)
            exp = num.bit_length() - 1
            den = 1 << exp
        else:
            den = 10 ** (k - 16)
            exp = -den.bit_length()
            num = 1 << -exp
        hi = num / den
        lo = ((num << 52) - int(hi * 2.0 ** 52) * den) / (den << 52)
        hi_hi = _SPLIT * hi - (_SPLIT * hi - hi)
        rows.append((hi, hi_hi, hi - hi_hi, lo, exp + 1023))
    hi, hi_hi, hi_lo, lo, biased_exp = zip(*rows)
    pow10 = [float(f"1e{k}") for k in range(_K_MIN, _K_MAX + 2)]
    return _read_only(pow10, hi, hi_hi, hi_lo, lo, biased_exp)


@functools.cache
def _layout_table():
    """``(point, keep, affix)``, read-only arrays built on the first print,
    over k in [_K_MIN, _K_MAX]: the digit after which the point goes (16:
    none, as no digit follows digit 16), how many digits are printed even
    if zero, and the prefix and suffix text as ``(len(k), 10)`` bytes."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        if -4 <= k < 0:  # 0.000ddd
            rows.append((16, 0, b"0." + b"0" * (-k - 1)))
        elif 0 <= k <= 16:  # ddd.ddd, its integer digits all printed
            rows.append((k, k + 1, b""))
        else:  # d.ddde+XX
            rows.append((0, 1, b"\0" * 5 + b"e%+03d" % k))
    point, keep, affix = zip(*rows)
    affix = np.frombuffer(b"".join(text.ljust(10, b"\0") for text in affix), np.uint8)
    return _read_only(point, np.array(keep, np.uint8), affix.reshape(-1, 10))


def _read_only(*tables):
    """Each table as an array that no caller of a cached builder can write."""
    arrays = tuple(np.array(table) for table in tables)
    for array in arrays:
        array.flags.writeable = False
    return arrays


_DIGIT_INDEX = np.arange(17, dtype=np.uint8)[:, None]
_CHUNK_ENDS = np.array([4, 8, 12, 16])


def _decimal(v):
    """``(k, n, fast)`` for the 1-D float array ``v``: n = round(|v| *
    10**(16 - k)), k = floor(log10 |v|), where ``fast``.

    n comes from frexp(|v|)'s mantissa times 10**(16 - k) as hi + lo, by
    Dekker's exact product, to a relative 2**-104 (5e-15 absolute on n <
    10**17).  ``fast`` is False where the product's integer part is outside
    [10**16, 10**17) (k off by one), its fraction within _TIE_MARGIN of 1/2,
    or |v| is inf or NaN.  A zero is given 1's k and n.
    """
    pow10, hi, hi_hi, hi_lo, lo, biased_exp = _pow10_table()
    a = np.abs(v)
    fast = np.isfinite(a)
    a = np.where(fast & (a != 0), a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)  # which may be one off: correct it
    k += a >= np.take(pow10, k - (_K_MIN - 1), mode="clip")
    k -= a < np.take(pow10, k - _K_MIN, mode="clip")
    row = k - _K_MIN
    mant, e = np.frexp(a)
    scale = ((e + np.take(biased_exp, row, mode="clip")) << 52).view(np.float64)
    # mant * hi = prod + err exactly, then err += mant * lo.
    prod = mant * np.take(hi, row, mode="clip")
    m_hi = mant * _SPLIT
    m_hi -= m_hi - mant
    m_lo = mant - m_hi
    b_hi = np.take(hi_hi, row, mode="clip")
    b_lo = np.take(hi_lo, row, mode="clip")
    err = m_lo * b_lo - (((prod - m_hi * b_hi) - m_lo * b_hi) - m_hi * b_lo)
    err += mant * np.take(lo, row, mode="clip")
    # Scaled to about 2**55, prod is a whole number and err below 16.
    prod *= scale
    err *= scale
    floor = np.floor(err)
    n = prod.astype(np.int64)
    n += floor.astype(np.int64)  # the product's integer part
    err -= floor
    err -= 0.5  # and its fraction, less 1/2
    fast &= (n >= 10 ** 16) & (np.abs(err) > _TIE_MARGIN)
    n += err > 0
    fast &= n < 10 ** 17
    return k, n, fast


def _print17(v):
    """``"%.17g" % v`` for each value of the 1-D float array ``v``, as a
    ``(_WIDTH, len(v))`` array of bytes, one column per value.

    Each value the :func:`_decimal` product cannot print is printed by ``%``:
    log10 and the tie margin choose only which way a value is printed,
    never a byte of it.
    """
    points, keeps, affixes = _layout_table()
    k, n, fast = _decimal(v)
    np.copyto(n, 10 ** 16, where=~fast)
    row = k - _K_MIN
    # n's 17 digits: chunks of 5, 4, 4 and 4 digits, each divided by 10 in turn.
    high = n // 10 ** 8
    low = n - high * 10 ** 8
    chunks = np.empty((4, len(v)), np.uint32)
    chunks[0] = high // 10 ** 4
    chunks[1] = high - chunks[0] * 10 ** 4
    chunks[2] = low // 10 ** 4
    chunks[3] = low - chunks[2] * 10 ** 4
    d = np.empty((17, len(v)), np.uint8)
    for place in range(4):  # the last digit of each chunk first
        tens = chunks // 10
        d[_CHUNK_ENDS - place] = chunks - tens * 10
        chunks = tens
    d[0] = chunks[0]
    # Trailing zeros are dropped, except a fixed number's integer digits.
    n_sig = ((d != 0) * (_DIGIT_INDEX + 1)).max(axis=0)
    out = np.zeros((_WIDTH, len(v)), np.uint8)
    digits = out[6:40:2]
    shown = _DIGIT_INDEX < np.maximum(n_sig, np.take(keeps, row, mode="clip"))
    np.multiply(shown.view(np.uint8), ord("0"), out=digits)
    digits += d
    digits[0, v == 0] = ord("0")
    out[0] = np.signbit(v)
    out[0] *= ord("-")
    out[_AFFIX_ROWS] = np.take(affixes, row, axis=0, mode="clip").T
    # The point goes after digit `point` when a digit follows it.
    point = np.take(points, row, mode="clip")
    np.put(out, (7 + 2 * point) * len(v) + np.arange(len(v)),
           (n_sig > point + 1) * ord("."))
    for j in np.flatnonzero(~fast):
        text = b"%.17g" % v[j]
        out[:, j] = 0
        out[:len(text), j] = np.frombuffer(text, np.uint8)
    return out


def _distinct(col):
    """``(bits, text)`` when ``col`` repeats, else ``None``.

    A column repeats when it has at most half as many distinct bit patterns
    as rows.  ``bits`` holds those patterns sorted, and ``text`` each one's
    value printed once, a row of bytes each, NUL-padded to the longest; a
    cell's text is row ``searchsorted(bits, cell's bits)``.  Bit patterns,
    not float equality, decide what is distinct, so ``-0.0`` and ``0.0``
    (and NaNs with different payloads) keep their own text.
    """
    # Sorted and deduplicated by hand: np.unique may build a hash set of
    # every distinct value, which costs a column of floats ~2 MB of RSS.
    bits = np.sort(col.view(np.uint64))
    first = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) > len(col):
        return None
    bits = bits[first]
    text = _print17(bits.view(float))
    return bits, np.ascontiguousarray(text[text.any(axis=1)].T)


def _csv_rows(block, columns, ends):
    """The CSV text of the rows of ``block``, as bytes: each column's cells
    printed by :func:`_print17` or taken from its ``columns`` entry, and
    each field's comma or newline at byte ``ends[j] - 1`` of a row, before
    its NULs are dropped."""
    rows = len(block)
    printed = [j for j, c in enumerate(columns) if c is None]
    text = None
    if printed:  # each printed column as (value, byte) views
        text = iter(_print17(block[:, printed].T.ravel()).reshape(
            _WIDTH, len(printed), rows).transpose(1, 2, 0))
    buf = bytearray(rows * ends[-1])  # translated without a copy to bytes
    line = np.frombuffer(buf, np.uint8).reshape(rows, ends[-1])
    for j, (c, end) in enumerate(zip(columns, ends)):
        if c is None:
            line[:, end - 1 - _WIDTH:end - 1] = next(text)
        else:
            bits, distinct = c
            line[:, end - 1 - distinct.shape[1]:end - 1] = np.take(
                distinct, np.searchsorted(bits, block[:, j].view(np.uint64)), axis=0)
        line[:, end - 1] = ord(",")
    line[:, -1] = ord("\n")
    del text  # the printed bytes, freed before the translated copy is made
    return buf.translate(None, b"\0")


def write_csv(path, header, table):
    """Write a 2-D array of floats under a comma-separated header.

    Every cell is printed as ``"%.17g" % cell``.  A repeating column (a grid
    axis) has each distinct value printed once and its cells filled from
    that text; the other columns are printed a block of rows at a time.
    Each block is laid out as NUL-padded fields, a row of bytes per row,
    and written with its NULs dropped.
    """
    table = np.asarray(table, dtype=float)
    columns = [_distinct(col) for col in table.T]
    ends = np.cumsum([(_WIDTH if c is None else c[1].shape[1]) + 1 for c in columns])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(table), _CSV_BLOCK):
            fh.write(_csv_rows(table[start:start + _CSV_BLOCK], columns, ends))

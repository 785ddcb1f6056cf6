"""JSON/CSV output helpers.  Floats are printed at 17 significant digits,
which round-trips them exactly.

The CSV tables are mostly grids, whose axis columns repeat a few values
over many rows.  :func:`write_csv` formats each distinct value of such a
column once and fills its cells from that text; the bytes are those of
formatting every cell on its own.
"""

from __future__ import annotations

import json
import re

import numpy as np

_TOKEN = "@@f17@@"
_TOKEN_RE = re.compile(f'"{_TOKEN}([^"]*){_TOKEN}"')


def _tag_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return f"{_TOKEN}{float(obj):.17g}{_TOKEN}"
    if isinstance(obj, dict):
        return {k: _tag_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(v) for v in obj]
    return obj


def dumps(obj, indent=2):
    """json.dumps with every float printed at 17 significant digits."""
    text = json.dumps(_tag_floats(obj), indent=indent)
    return _TOKEN_RE.sub(lambda m: m.group(1), text)


#: Rows formatted per ``%`` operation.  One operation over a whole table
#: holds all its text and a Python object per value at once; blocks of this
#: size keep that small and are as fast.
_CSV_BLOCK = 4096


def _distinct_text(col):
    """``(bits, text)`` when ``col`` repeats, else ``None``.

    A column repeats when it has at most half as many distinct bit patterns
    as rows.  ``bits`` holds those patterns sorted, and ``text`` each one's
    value formatted once, as an object array of str; a cell's text is
    ``text[searchsorted(bits, cell's bits)]``.  Bit patterns, not float
    equality, decide what is distinct, so ``-0.0`` and ``0.0`` (and NaNs
    with different payloads) keep their own text.
    """
    # Sorted and deduplicated by hand: np.unique may build a hash set of
    # every distinct value, which costs a column of floats ~2 MB of RSS.
    bits = np.sort(col.view(np.uint64))
    first = np.ones(len(bits), dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    bits = bits[first]
    if 2 * len(bits) > len(col):
        return None
    text = ("%.17g\n" * len(bits) % tuple(bits.view(float).tolist())).split("\n")
    return bits, np.array(text[:-1], dtype=object)


def write_csv(path, header, table):
    """Write a 2-D array of floats under a comma-separated header.

    Every cell is printed at ``%.17g``.  A repeating column (a grid axis)
    has each distinct value formatted once and its cells filled from that
    text; every other column is formatted cell by cell.
    """
    table = np.asarray(table, dtype=float)
    columns = [_distinct_text(col) for col in table.T]
    line = ",".join("%.17g" if c is None else "%s" for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK]
            cells = np.empty(block.shape, dtype=object)
            for j, c in enumerate(columns):
                if c is None:
                    cells[:, j] = block[:, j]
                else:
                    bits, text = c
                    index = np.searchsorted(bits, block[:, j].view(np.uint64))
                    cells[:, j] = text[index]
            fh.write(line * len(cells) % tuple(cells.ravel().tolist()))

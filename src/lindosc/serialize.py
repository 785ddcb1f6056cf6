"""JSON/CSV output helpers.  Floats are printed at 17 significant digits,
which round-trips them exactly."""

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
#: holds all its text and a Python float per value at once; blocks of this
#: size keep that small and are as fast.
_CSV_BLOCK = 4096


def write_csv(path, header, table):
    """Write a 2-D array of floats under a comma-separated header."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))

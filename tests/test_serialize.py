import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lindosc import serialize

N = 2 * serialize._CSV_BLOCK + 5


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(float).tolist()


# Every float class that prints specially: signed zero, subnormal,
# infinities, and NaNs with either sign and different payloads.
NANS = _bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
             0x7FF80000DEADBEEF)
SPECIALS = [-0.0, 0.0, 5e-324, math.inf, -math.inf, 0.1, 1e16] + NANS


def specials_table():
    # More rows than one formatting block, and no repeating column.
    rng = np.random.default_rng(7)
    table = rng.normal(scale=1e3, size=(N, 3))
    table.flat[:len(SPECIALS)] = SPECIALS
    table.flat[-len(SPECIALS):] = SPECIALS
    return table


def grid_table():
    # The layout of wigner.csv and landscape.csv: an outer axis repeated,
    # an inner axis tiled, a value per cell.  N = 7 * 1171.
    rng = np.random.default_rng(8)
    outer, inner = rng.normal(size=7), np.linspace(-3.0, 3.0, 1171)
    return np.column_stack([np.repeat(outer, len(inner)), np.tile(inner, len(outer)),
                            rng.normal(size=N)])


def repeated_specials_table():
    rng = np.random.default_rng(9)
    return np.column_stack([np.resize(SPECIALS, N), rng.normal(size=N)])


def distinct_table(m, n=N + 1):
    # n rows whose first column has exactly m distinct values.
    rng = np.random.default_rng(m)
    values = rng.normal(size=m)
    index = rng.permutation(np.resize(np.arange(m), n))
    return np.column_stack([values[index], rng.normal(size=n)])


POOL = SPECIALS + [1.0 / 3.0, -2.5, 1e-300]

TABLES = {
    "specials": st.just(specials_table()),
    "grid": st.just(grid_table()),
    "repeated_specials": st.just(repeated_specials_table()),
    "half_distinct": st.just(distinct_table((N + 1) // 2)),
    "half_plus_one_distinct": st.just(distinct_table((N + 1) // 2 + 1)),
    "0_rows": st.just(np.empty((0, 3))),
    "1_row": st.just(np.array([[-0.0, math.nan, 5e-324]])),
    # Small tables from a small pool, so that columns repeat.
    "pool": arrays(float, st.tuples(st.integers(0, 40), st.integers(1, 4)),
                   elements=st.sampled_from(POOL)),
}


@pytest.mark.parametrize("case", TABLES)
# tmp_path is shared by the examples of one case; each overwrites the file.
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_csv_bytes_match_per_value_formatting(tmp_path, case, data):
    table = data.draw(TABLES[case])
    header = ",".join("abcd"[:table.shape[1]])
    path = tmp_path / "t.csv"
    serialize.write_csv(path, header, table)
    expected = header + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == expected.encode()


def test_dumps_lays_out_json_as_json_dumps():
    # Without floats the text is json.dumps's own, escapes and empty
    # containers included.
    obj = {"a": 1, "b": [True, None, "x\u00e9\"\n", [], (2, 3)], "c": {},
           "d": {"e": [1, [2]]}}
    assert serialize.dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_prints_floats_at_17_digits_and_they_read_back():
    floats = [0.1, 1.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308,
              np.float64(1.0 / 3.0)]
    text = serialize.dumps({"x": floats})
    assert text.splitlines()[2:9] == [f"    {x:.17g}," for x in floats[:-1]] + [
        f"    {floats[-1]:.17g}"]
    # Equal in value: "1" and "-0" read back as the ints 1 and 0.
    assert json.loads(text)["x"] == floats


def test_dumps_leaves_strings_as_they_are():
    # Text that looks like a formatted float, or like a marker around one,
    # stays a string.
    obj = {"s": "@@f17@@x@@f17@@", "t": ["@@f17@@1.5@@f17@@", 0.1], "1.5": "0.1"}
    assert json.loads(serialize.dumps(obj)) == obj


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_dumps_rejects_a_float_that_is_not_finite(value):
    # json.loads reads no bare nan or inf, so there is no text to write.
    with pytest.raises(ValueError, match="not a JSON number"):
        serialize.dumps({"a": [1.0, {"b": value}]})


def test_dumps_rejects_a_key_that_is_not_a_string():
    with pytest.raises(TypeError):
        serialize.dumps({1: 2.0})

import decimal
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lindosc import (CovDecomposition, GaussianState, QuadratureSpec, compose, serialize,
                     wigner_grid)

# Four blocks and a part: 7 * 1171 rows.
N = 4 * serialize._CSV_BLOCK + 5


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


def printed(values):
    """serialize._print17's text of each value, NULs dropped."""
    out = serialize._print17(np.asarray(values, dtype=float))
    return [bytes(column).translate(None, b"\0").decode() for column in out.T]


def decimal_17g(v):
    """``%.17g`` of a finite float from the standard library's exact decimal
    arithmetic: v's exact value rounded half-even to 17 significant digits,
    laid out by C's %g rules."""
    if v == 0.0:
        return "-0" if math.copysign(1.0, v) < 0 else "0"
    rounded = decimal.Context(prec=17, rounding=decimal.ROUND_HALF_EVEN).plus(
        decimal.Decimal(v))
    sign, digits, _ = rounded.as_tuple()
    digits, k = "".join(map(str, digits)).ljust(17, "0"), rounded.adjusted()
    if -4 <= k < 17:
        whole, frac = (digits[:k + 1], digits[k + 1:]) if k >= 0 else (
            "0", "0" * (-k - 1) + digits)
        text = whole + ("." + frac.rstrip("0")).rstrip(".")
    else:
        text = digits[0] + ("." + digits[1:].rstrip("0")).rstrip(".") + "e%+03d" % k
    return "-" * sign + text


def assert_printed_as_17g(values):
    values = np.asarray(values, dtype=float)
    assert printed(values) == [format(v, ".17g") for v in values.tolist()]
    finite = values[np.isfinite(values)].tolist()
    assert printed(finite) == [decimal_17g(v) for v in finite]


# Bit patterns: each class of float, and the ends of each class.
PATTERN = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.sampled_from([0, 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
                     0x7FF0000000000000, 0x7FF0000000000001, 0x7FF8000000000000,
                     0x7FFFFFFFFFFFFFFF]),
).flatmap(lambda bits: st.sampled_from([bits, bits | 1 << 63]))


@settings(max_examples=300, deadline=None)
@given(st.lists(PATTERN, min_size=1, max_size=40))
def test_print17_matches_percent_and_the_decimal_oracle_on_bit_patterns(patterns):
    # Raw patterns: NaN payloads, infinities, subnormals and both zeros.
    assert_printed_as_17g(np.array(patterns, dtype=np.uint64).view(float))


def powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def ties():
    # K / 2**j with exactly 18 significant digits, the last a 5: 17 digits
    # and an exact half.
    out = []
    for j in range(2, 26):
        low = -(-10 ** 17 // 5 ** j) | 1  # the first odd K with 18 digits
        out += [k / 2.0 ** j for k in range(low, low + 40, 2)
                if k < 2 ** 53 and k * 5 ** j < 10 ** 18]
    return np.array(out)


def test_the_ties_are_17_digit_ties():
    digits = [decimal.Decimal(v).as_tuple().digits for v in ties()]
    assert len(digits) > 400 and all(len(d) == 18 and d[-1] == 5 for d in digits)


FIXED = {
    "powers_of_ten": powers_of_ten(),
    "ties": ties(),
    "ends": np.array([np.finfo(float).tiny, np.finfo(float).max, 5e-324,
                      np.nextafter(np.finfo(float).tiny, 0.0), 1.0, np.nextafter(1.0, 2.0)]),
    "round_up_to_a_power_of_ten": np.array([9.9999999999999999e16, 99999999999999999.0,
                                            0.99999999999999999, 9.99999999999999999e-5]),
}


@pytest.mark.parametrize("case", FIXED)
def test_print17_matches_percent_and_the_decimal_oracle_on_fixed_lists(case):
    values = FIXED[case]
    assert_printed_as_17g(np.concatenate([values, -values]))


def test_few_values_take_the_fallback():
    # Random normal floats, as bit patterns and as N(0, 1) draws: the exact
    # product prints nearly all of them.
    rng = np.random.default_rng(11)
    bits = rng.integers(1 << 52, 0x7FF0 << 48, size=200_000, dtype=np.uint64)
    bits |= rng.integers(0, 2, size=len(bits), dtype=np.uint64) << np.uint64(63)
    for values in (bits.view(float), rng.normal(size=200_000)):
        fast = serialize._decimal(values)[2]
        assert np.count_nonzero(~fast) < 1e-3 * len(values)


def test_write_csv_peak_memory_on_the_example_wigner_table(tmp_path):
    # The example's 201 x 201 table, laid out as the CLI writes it.  Printing
    # % by % peaked at 764 KiB; a block of rows at a time stays below it.  The
    # first write also builds the printing's tables, once per process.
    sigma = compose(CovDecomposition(A=1.0, aleph=2.0, theta=0.8), 1.0)
    x1, x2, f = wigner_grid(GaussianState(mean=[1.5, -0.5], sigma=sigma),
                            QuadratureSpec(8.0, 201))
    table = np.column_stack([np.repeat(x1, len(x2)), np.tile(x2, len(x1)), f.ravel()])
    serialize.write_csv(tmp_path / "wigner.csv", "x1,x2,f", table)
    tracemalloc.start()
    try:
        serialize.write_csv(tmp_path / "wigner.csv", "x1,x2,f", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 764 * 1024


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

import math

import numpy as np

from lindosc import serialize


def test_write_csv_bytes_match_per_value_formatting(tmp_path):
    # More rows than one formatting block, and every float class that
    # prints specially: signed zero, subnormal, infinities, nan.
    specials = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 0.1, 1e16]
    rng = np.random.default_rng(7)
    n = 2 * serialize._CSV_BLOCK + 5
    table = rng.normal(scale=1e3, size=(n, 3))
    table.flat[:len(specials)] = specials
    table.flat[-len(specials):] = specials
    path = tmp_path / "t.csv"
    serialize.write_csv(path, "a,b,c", table)
    expected = "a,b,c\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == expected.encode()

"""_mat2 takes a matrix as its entries: Python floats for one matrix, one
array per entry for a stack.  One expression serves both, so each function
gives a matrix the same bits as a stack that holds it, at every edge of the
float range."""

import math

import numpy as np
import pytest

from lindosc import _mat2

#: Entries placed at random among the random ones.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308, 1e-300,
           1e300, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
           math.nan]


def matrices(n, seed):
    """``(n, 2, 2)``: entries of random sign and size from 1e-300 to 1e300, a
    tenth of them from :data:`SPECIAL`.  Before the specials go in, a quarter
    of the matrices are symmetric, a quarter symmetric positive definite, and
    a quarter symmetric with entries of one size, where ``np.hypot`` and
    ``math.hypot`` round apart most often."""
    rng = np.random.default_rng(seed)
    m = rng.choice([-1.0, 1.0], (n, 2, 2)) * 10.0 ** rng.uniform(-300.0, 300.0, (n, 2, 2))
    quarter = n // 4
    pd, one_size = slice(quarter, 2 * quarter), slice(2 * quarter, 3 * quarter)
    m[one_size] = rng.normal(size=(quarter, 2, 2))
    m[pd, 0, 0], m[pd, 1, 1] = np.abs(m[pd, 0, 0]), np.abs(m[pd, 1, 1])
    near = rng.uniform(-1.0, 1.0, quarter) * 10.0 ** -rng.uniform(0.0, 17.0, quarter)
    m[pd, 0, 1] = np.sqrt(m[pd, 0, 0]) * np.sqrt(m[pd, 1, 1]) * near
    m[:3 * quarter, 1, 0] = m[:3 * quarter, 0, 1]
    special = rng.random((n, 2, 2)) < 0.1
    m[special] = rng.choice(SPECIAL, special.sum())
    return m


def flat(result):
    """The floats and bools of a nested result, in order."""
    if isinstance(result, (tuple, list)):
        return [x for part in result for x in flat(part)]
    return [result]


def same(one, stack, k):
    """Whether each value of ``one`` has the bits of entry k of ``stack``'s
    (any NaN matching any NaN), and one matrix's results are Python scalars."""
    for x, y in zip(flat(one), flat(stack), strict=True):
        assert type(x) in (float, int, bool), type(x)
        y = y[k]
        if isinstance(x, bool):
            if x != bool(y):
                return False
        elif not (x != x and y != y) and np.float64(x).view(np.uint64) != y.view(np.uint64):
            return False
    return True


def entries(stack):
    return [[stack[:, i, j] for j in range(2)] for i in range(2)]


def test_one_matrix_as_floats_has_the_bits_of_a_stack_that_holds_it():
    stack = matrices(20_000, seed=27)
    rng = np.random.default_rng(28)
    d = rng.choice([-1.0, 1.0], len(stack)) * 10.0 ** rng.uniform(-300.0, 300.0, len(stack))
    special = rng.random(len(d)) < 0.1
    d[special] = rng.choice([x for x in SPECIAL if x != 0.0], special.sum())
    rows = stack[:, 0, :].T.copy()  # the first rows, one array per entry
    for function in (_mat2.det, _mat2.normalize, _mat2.spd, _mat2.hurwitz, _mat2.spectrum):
        with np.errstate(all="ignore"):
            got = function(entries(stack))
        assert all(same(function(stack[k].tolist()), got, k) for k in range(len(stack))), \
            function.__name__
    with np.errstate(all="ignore"):
        got_inv = _mat2.inv(entries(stack), d)
        got_dot = _mat2.dot(rows, entries(stack)[1])
    for k in range(len(stack)):
        one = stack[k].tolist()
        assert same(_mat2.inv(one, float(d[k])), got_inv, k)
        assert same(_mat2.dot(one[0], one[1]), [got_dot], k)
    # The stack holds every kind of matrix: some pass spd, some fail it.
    ok = _mat2.spd(entries(stack))[0]
    assert 0 < ok.sum() < len(ok)


@pytest.mark.filterwarnings("error")
def test_spd_tests_python_floats_outside_errstate_with_the_same_bits(monkeypatch):
    # numpy's error state does not govern Python float arithmetic, which
    # never warns: spd enters np.errstate only for numpy entries, whose
    # arithmetic would warn on inf, NaN or an overflow, and both give the
    # same (ok, unit, s, det) bits.
    entered = []
    errstate = np.errstate

    def spy(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(_mat2.np, "errstate", spy)
    stack = np.concatenate([matrices(4_000, seed=31),
                            [np.full((2, 2), 1e308), np.diag([1e308, -1e308]),
                             [[1e308, math.inf], [math.inf, 1e308]],
                             [[math.nan, 1e308], [1e308, 1.0]]]])
    for m in stack:
        floats = m.tolist()
        scalars = [[np.float64(x) for x in row] for row in floats]
        got = flat(_mat2.spd(floats))
        assert not entered
        want = flat(_mat2.spd(scalars))
        assert len(entered) == 1
        entered.clear()
        assert type(got[0]) is bool and got[0] == bool(want[0])
        assert all(type(x) is float for x in got[1:])
        assert all((x != x and y != y) or np.float64(x).view(np.uint64) == np.float64(y).view(np.uint64)
                   for x, y in zip(got[1:], want[1:], strict=True))

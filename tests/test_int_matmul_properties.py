"""Property tests: ``exact.int_matmul`` against the product in Python ints,
with the largest |x| placed one below, at and one above the int64 bound
n max|x| max|num| headroom < INT64_LIMIT, for headroom 1 and primes m; and
two edge cases its dtype choice must not get wrong."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from moranspec.exact import INT64_LIMIT, int_matmul  # noqa: E402


@st.composite
def operands_at_the_bound(draw):
    """(x, num, headroom): max|num| = b and max|x| = t - 1, t or t + 1, where t is the least
    max|x| with n t b headroom >= INT64_LIMIT. The first row of x times the first row of num
    is +-n max|x| b, the largest entry the bound allows for."""
    n = draw(st.integers(1, 3), label="n")
    headroom = draw(st.sampled_from((1, 2, 3, 5)), label="headroom")
    # a power of two makes n t b headroom land on the limit exactly for n, headroom in {1, 2}
    b = draw(st.one_of(st.integers(1, 2**40), st.integers(0, 40).map(lambda j: 2**j)), label="max |num|")
    t = -(-INT64_LIMIT // (n * b * headroom))
    a = t + draw(st.sampled_from((-1, 0, 1)), label="offset")
    sign = draw(st.sampled_from((-1, 1)), label="sign")
    x = [[sign * a] * n] + draw(st.lists(st.lists(st.integers(-a, a), min_size=n, max_size=n), max_size=3))
    num = [[b] * n] + draw(st.lists(st.lists(st.integers(-b, b), min_size=n, max_size=n), max_size=3))
    return x, num, headroom


@settings(max_examples=300, deadline=None)
@given(operands_at_the_bound(), st.sampled_from(("int64", "object", "tuples")))
@example(([[2**61]], [[1]], 2), "int64")  # n max|x| max|num| headroom = 2^62 exactly: Python ints
@example(([[2**61 - 1]], [[1]], 2), "int64")  # one below: int64
@example(([[2**62 - 1]], [[2**10]], 1), "int64")  # far above: a bound taken in int64 scalars would wrap
def test_int_matmul_matches_python_ints_at_the_bound(case, kind):
    x, num, headroom = case
    a, b, n = max(abs(v) for row in x for v in row), max(abs(v) for row in num for v in row), len(x[0])
    if kind == "int64":
        x = np.array(x, dtype=np.int64)
    elif kind == "object":
        x = np.array(x, dtype=object)
    got = int_matmul(x, num, headroom)
    want = np.array(x, dtype=object) @ np.array(num, dtype=object).T
    assert got.dtype == (np.int64 if n * a * b * headroom < INT64_LIMIT else object)
    # the caller's next step, times headroom, must not wrap either
    assert (got * headroom).tolist() == (want * headroom).tolist()


def test_zero_num_keeps_x_past_int64_in_python_ints():
    # the bound n max|x| max|num| is 0, but x itself cannot be cast to int64
    x = np.array([[2**63, -(2**70)], [1, 2]], dtype=object)
    got = int_matmul(x, [[0, 0]])
    assert got.dtype == object
    assert got.tolist() == [[0], [0]]


def test_uint64_x_comes_back_exact():
    # numpy would promote uint64 @ int64 to float64; int_matmul casts both operands first
    big = np.array([[2**64 - 1, 3], [5, 2**63]], dtype=np.uint64)
    assert int_matmul(big, [[1, 2], [-1, 0]]).tolist() == [[2**64 + 5, -(2**64 - 1)], [2**64 + 5, -5]]
    small = np.array([[2**53 + 1, 0]], dtype=np.uint64)
    got = int_matmul(small, [[-1, 7]])
    assert got.dtype == np.int64
    assert got.tolist() == [[-(2**53) - 1]]

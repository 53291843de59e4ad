"""Property tests: the scaled-integer Matrix, mixed_radix_sums and support
point clouds against plain Fraction oracles (cofactor determinant and
adjugate inverse from test_exact, schoolbook products, itertools.product
enumeration)."""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import table_floats  # noqa: E402
from moranspec.errors import SingularMatrix  # noqa: E402
from moranspec.exact import Matrix, mixed_radix_sums  # noqa: E402
from moranspec.render import support_points  # noqa: E402
from moranspec.system import build_system  # noqa: E402
from test_exact import adjugate_inverse, cofactor_det  # noqa: E402

small_int = st.integers(-12, 12)
rational = st.one_of(small_int.map(Fraction), st.builds(Fraction, small_int, st.integers(1, 9)))


def square(entries, n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def vector(entries, n):
    return st.lists(entries, min_size=n, max_size=n)


sizes = st.integers(1, 4)
matrices = sizes.flatmap(lambda n: square(rational, n))
matrix_pairs = sizes.flatmap(lambda n: st.tuples(square(rational, n), square(rational, n)))
matrix_and_vector = sizes.flatmap(lambda n: st.tuples(square(rational, n), vector(rational, n)))


def frac_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


@given(matrices)
def test_rows_roundtrip_and_entry_types(rows):
    m = Matrix.from_rows(rows)
    assert m.rows == tuple(tuple(row) for row in rows)
    assert all(m[i, j] == rows[i][j] for i in range(m.n) for j in range(m.n))
    integral = all(v.denominator == 1 for row in rows for v in row)
    assert all(type(v) is (int if integral else Fraction) for row in m.rows for v in row)


@given(matrix_pairs, st.integers(1, 30))
def test_equality_is_entrywise(pair, k):
    a, b = pair
    ma, mb = Matrix.from_rows(a), Matrix.from_rows(b)
    assert (ma == mb) == (a == b)
    # the same matrix over a scaled denominator reduces to the same fields
    scaled = Matrix(tuple(tuple(v * k for v in row) for row in ma.num), ma.den * k)
    assert scaled == ma and hash(scaled) == hash(ma)


@given(matrices)
def test_det_matches_cofactor_oracle(rows):
    assert Matrix.from_rows(rows).det() == cofactor_det(rows)


@given(matrices)
def test_inverse_matches_adjugate_oracle(rows):
    m = Matrix.from_rows(rows)
    if cofactor_det(rows) == 0:
        with pytest.raises(SingularMatrix):
            m.inverse()
        return
    inv = m.inverse()
    assert inv == adjugate_inverse(rows)
    assert m.mul(inv) == Matrix.identity(m.n) == inv.mul(m)


@given(matrix_pairs)
def test_mul_matches_fraction_product(pair):
    a, b = pair
    got = Matrix.from_rows(a).mul(Matrix.from_rows(b))
    assert got.rows == tuple(tuple(row) for row in frac_matmul(a, b))


@given(matrix_and_vector)
def test_mul_vec_matches_fraction_product(pair):
    rows, v = pair
    m = Matrix.from_rows(rows)
    want = tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)
    assert m.mul_vec(v) == want
    assert m.mul_vec_num(v) == tuple(x * m.den for x in want)


def tower_inputs(n):
    level = st.tuples(square(rational, n), st.lists(vector(small_int, n), min_size=1, max_size=3))
    return st.lists(level, min_size=1, max_size=4)


@given(sizes.flatmap(tower_inputs))
def test_mixed_radix_sums_matches_product_order(levels):
    coefs = [Matrix.from_rows(rows) for rows, _ in levels]
    sets = [vecs for _, vecs in levels]
    nums, den = mixed_radix_sums(coefs, sets)
    assert den > 0 and all(type(x) is int for p in nums.tolist() for x in p)
    # int64 exactly when the numerator bound and den are both below 2^53
    scales = [den // c.den for c in coefs]
    bound = sum(max(abs(s * x) for v in vecs for x in c.mul_vec_num(v)) for c, s, vecs in zip(coefs, scales, sets))
    assert nums.dtype == (np.int64 if max(bound, den) < 2**53 else object)
    got = [tuple(Fraction(x, den) for x in p) for p in nums.tolist()]
    # itertools.product varies its last factor fastest, so feed it the sets
    # reversed to make the earliest set fastest
    want = []
    for picks in product(*reversed(sets)):
        total = [Fraction(0)] * coefs[0].n
        for coef, v in zip(coefs, reversed(picks)):
            total = [t + x for t, x in zip(total, coef.mul_vec(v))]
        want.append(tuple(total))
    assert got == want
    if len(sets) > 1:
        head_nums, head_den = mixed_radix_sums(coefs[:-1], sets[:-1])
        head = [tuple(Fraction(x, head_den) for x in h) for h in head_nums.tolist()]
        shift = coefs[-1].mul_vec(sets[-1][0])
        assert got[: len(head)] == [tuple(x + y for x, y in zip(h, shift)) for h in head]


@st.composite
def triangular_levels(draw, n, m=3):
    """(R, D): R upper triangular with a nonzero entry above a diagonal of
    5..9, so it contracts and is not diagonal; D's first coordinate runs
    through 0..m-1, which makes e_1 a zero direction."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(5, 9))
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-2, 2))
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
    rows[i][j] = draw(st.sampled_from([-2, -1, 1, 2]))
    rest = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * (n - 1)), min_size=m, max_size=m))
    return rows, [(k, *r) for k, r in enumerate(rest)]


level_lists = st.sampled_from([2, 3]).flatmap(lambda n: st.lists(triangular_levels(n), min_size=1, max_size=3))


@given(level_lists, st.integers(1, 3))
def test_point_cloud_floats_and_box_match_fractions(levels, depth):
    system = build_system(len(levels[0][1][0]), 3, levels[:-1], levels[-1:])
    cloud = support_points(system, depth)
    exact = [tuple(Fraction(x, cloud.den) for x in p) for p in cloud.points]
    # the sums over (R_k ... R_1)^-1 d_k, the deepest level fastest
    inv = [system.level(1).matrix.inverse()]
    for k in range(2, depth + 1):
        inv.append(inv[-1].mul(system.level(k).matrix.inverse()))
    want = []
    for picks in product(*(system.level(k).digits.digits for k in range(1, depth + 1))):
        total = [Fraction(0)] * system.dimension
        for coef, d in zip(inv, picks):
            total = [t + x for t, x in zip(total, coef.mul_vec(d))]
        want.append(tuple(total))
    assert exact == want
    assert table_floats(cloud).tolist() == [[float(x) for x in p] for p in exact]
    lo, hi = cloud.bounding_box()
    assert lo == tuple(min(col) for col in zip(*exact))
    assert hi == tuple(max(col) for col in zip(*exact))

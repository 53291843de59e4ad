import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
import pytest

from moranspec.errors import SingularMatrix
from moranspec.exact import (
    Matrix,
    check_contraction,
    cyclotomic_vanishes,
    operator_norm_upper,
)


def cofactor_det(mat):
    """Independent oracle: determinant by cofactor expansion over Fractions."""
    k = len(mat)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(mat[0][0])
    total = Fraction(0)
    for j in range(k):
        sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
        sign = -1 if j % 2 else 1
        total += sign * mat[0][j] * cofactor_det(sub)
    return total


def adjugate_inverse(rows):
    """Independent oracle: inverse via cofactor expansion over Fractions."""
    n = len(rows)
    minor_det = cofactor_det
    mat = [[Fraction(v) for v in row] for row in rows]
    det = minor_det(mat)
    assert det != 0
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [row[:i] + row[i + 1 :] for k, row in enumerate(mat) if k != j]
            sign = -1 if (i + j) % 2 else 1
            inv[i][j] = sign * minor_det(sub) / det
    return Matrix.from_rows(inv)


def test_inverse_identity():
    m = Matrix.identity(3)
    assert m.inverse() == Matrix.identity(3)


def test_inverse_scalar():
    m = Matrix.from_rows([[4]])
    assert m.inverse().rows == ((Fraction(1, 4),),)


def test_inverse_triangular_frozen_value():
    # Oracle (adjugate/determinant): adj([[3,1],[0,3]]) = [[3,-1],[0,3]], det = 9.
    m = Matrix.from_rows([[3, 1], [0, 3]])
    expected = Matrix.from_rows([[Fraction(1, 3), Fraction(-1, 9)], [0, Fraction(1, 3)]])
    assert m.inverse() == expected
    assert adjugate_inverse(m.rows) == expected


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_inverse_random_roundtrip_and_adjugate_agreement():
    rng = random.Random(20240517)
    checked = 0
    while checked < 100:
        n = rng.choice([1, 2, 3])
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(rows)
        if m.det() == 0:
            continue
        inv = m.inverse()
        assert m.mul(inv) == Matrix.identity(n)
        assert inv.mul(m) == Matrix.identity(n)
        assert inv == adjugate_inverse(rows)
        checked += 1


def test_norm_identity():
    n = 2
    val = operator_norm_upper(Matrix.identity(n))
    assert 1.0 <= val <= math.sqrt(n)


def test_norm_diagonal():
    m = Matrix.from_rows([[Fraction(1, 3), 0], [0, Fraction(1, 3)]])
    val = operator_norm_upper(m)
    assert 1 / 3 <= val <= math.sqrt(2) / 3


def test_norm_triangular_against_svd_oracle():
    m = Matrix.from_rows([[Fraction(1, 3), Fraction(-1, 9)], [0, Fraction(1, 3)]])
    val = operator_norm_upper(m)
    sigma = np.linalg.svd(np.array([[1 / 3, -1 / 9], [0, 1 / 3]]), compute_uv=False)[0]
    frob = math.sqrt(1 / 9 + 1 / 81 + 1 / 9)
    assert sigma - 1e-12 <= val <= frob * (1 + 1e-9)
    assert val >= 1 / 3


def test_norm_dominates_random_unit_vectors():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice([1, 2, 3])
        rows = [[Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(rows)
        bound = operator_norm_upper(m)
        arr = np.array([[float(v) for v in row] for row in rows])
        for _ in range(100):
            x = np.array([rng.gauss(0, 1) for _ in range(n)])
            nx = np.linalg.norm(x)
            if nx == 0:
                continue
            x /= nx
            assert np.linalg.norm(arr @ x) <= bound * (1 + 1e-9)


def test_contraction_examples():
    assert check_contraction(Matrix.diagonal([5, 5]), Fraction(1, 5)) is True
    assert check_contraction(Matrix.diagonal([2]), 0.4) is False
    assert check_contraction(Matrix.from_rows([[3, 1], [0, 3]]), 0.5) is True
    # SVD oracle for the triangular case: top singular value of the inverse.
    inv = np.linalg.inv(np.array([[3.0, 1.0], [0.0, 3.0]]))
    sigma = np.linalg.svd(inv, compute_uv=False)[0]
    assert sigma < 0.5


def test_contraction_boundary_exact():
    m = Matrix.diagonal([3, 3])
    assert check_contraction(m, Fraction(1, 3)) is True
    assert check_contraction(m, Fraction(33333, 100000)) is False
    assert check_contraction(m, Fraction(-1, 3)) is False  # the elimination alone sees only r^2


def test_contraction_singular_raises():
    with pytest.raises(SingularMatrix):
        check_contraction(Matrix.from_rows([[0]]), 0.5)


def poly_divmod_int(num, den):
    """Exact division of integer polynomials (ascending coefficients); den must be monic."""
    num = list(num)
    out = [0] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        coeff = num[-1]
        out[shift] = coeff
        for i, d in enumerate(den):
            num[shift + i] -= coeff * d
        while num and num[-1] == 0:
            num.pop()
    while num and num[-1] == 0:
        num.pop()
    return out, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q):
    """Independent oracle: Phi_q from x^q - 1 = prod_{d | q} Phi_d(x) by exact division."""
    num = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            num, rem = poly_divmod_int(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


def vanishes_by_division(exponents, q):
    """Independent oracle: Phi_q divides sum_e x^(e mod q)."""
    counts = [0] * q
    for e in exponents:
        counts[e % q] += 1
    return not poly_divmod_int(counts, list(cyclotomic_polynomial(q)))[1]


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_examples():
    assert cyclotomic_vanishes([0, 1, 2], 3) is True
    assert cyclotomic_vanishes([0, 2], 4) is True
    assert cyclotomic_vanishes([0, 1], 3) is False
    assert cyclotomic_vanishes([], 30) is True
    # the 2-gon {0, 15} plus the 3- and 5-gons without the root 1 sums to -2;
    # two rotated 6-gons sum to 0
    assert cyclotomic_vanishes([0, 15, 10, 20, 6, 12, 18, 24], 30) is False
    assert cyclotomic_vanishes([0, 5, 10, 15, 20, 25] + [3, 8, 13, 18, 23, 28], 30) is True
    with pytest.raises(ValueError):
        cyclotomic_vanishes([0], 0)


def test_cyclotomic_matches_float_oracle_exhaustively():
    # All multisets of size <= 6 over residues mod q, q <= 12, against the
    # direct floating sum of roots of unity.
    for q in range(1, 13):
        for size in range(1, 7):
            for combo in combinations_with_replacement(range(q), size):
                total = sum(cmath.exp(2j * cmath.pi * p / q) for p in combo)
                assert cyclotomic_vanishes(combo, q) == (abs(total) < 1e-10), (combo, q)


def test_matrix_helpers():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert a.mul(Matrix.identity(2)) == a
    assert a.mul_vec((1, 1)) == (3, 7)
    assert a.det() == -2
    assert not a.is_diagonal()
    assert Matrix.diagonal([2, 5]).is_diagonal()

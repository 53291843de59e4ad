"""Property tests: the integer-only norm kernels of ``exact`` against their
slow oracles (all principal minors by cofactor expansion, the adjugate
inverse, and Gram squaring through ``Matrix.mul``), and the zero structures
``build_system`` shares between levels with equal digit sets."""
import math
from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from moranspec import exact  # noqa: E402
from moranspec import system as system_module  # noqa: E402
from moranspec.errors import SingularMatrix  # noqa: E402
from moranspec.exact import Matrix, check_contraction, operator_norm_upper  # noqa: E402
from moranspec.masks import DigitSet, find_zero_directions  # noqa: E402
from moranspec.system import build_system  # noqa: E402
from test_exact import adjugate_inverse, cofactor_det  # noqa: E402


def minors_psd(s) -> bool:
    """Oracle: a symmetric matrix is PSD iff every principal minor is >= 0."""
    n = len(s)
    return all(
        cofactor_det([[s[i][j] for j in subset] for i in subset]) >= 0
        for size in range(1, n + 1)
        for subset in combinations(range(n), size)
    )


def norm_at_most(rows, b) -> bool:
    """Oracle for ||rows|| <= b: b >= 0 and b^2 I - rows^t rows PSD, over Fractions."""
    n = len(rows)
    gram = [[sum(Fraction(rows[t][i]) * rows[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return b >= 0 and minors_psd([[(b * b if i == j else 0) - gram[i][j] for j in range(n)] for i in range(n)])


def log2_fraction(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


def norm_upper_by_matrix_squaring(m: Matrix) -> float:
    """Oracle: operator_norm_upper's formula on gcd-reduced ``Matrix`` products."""
    g = m.transpose().mul(m)
    frob_sq = sum((g[i, i] for i in range(g.n)), Fraction(0))
    if frob_sq == 0:
        return 0.0
    sn, sd = math.isqrt(frob_sq.numerator), math.isqrt(frob_sq.denominator)
    if sn * sn == frob_sq.numerator and sd * sd == frob_sq.denominator:
        frob = float(Fraction(sn, sd))
    else:
        frob = 2.0 ** (log2_fraction(frob_sq) / 2.0) * (1 + 1e-12)
    for _ in range(exact._NORM_SQUARINGS):
        g = g.mul(g)
    k = 2**exact._NORM_SQUARINGS
    trace = sum((g[i, i] for i in range(g.n)), Fraction(0))
    return min(2.0 ** (log2_fraction(trace) / (2.0 * k)) * (1 + 1e-9), frob)


small_int = st.integers(-9, 9)
rational = st.one_of(small_int.map(Fraction), st.builds(Fraction, small_int, st.integers(1, 7)))
positive_rational = st.builds(Fraction, st.integers(0, 40), st.integers(1, 40))


def square(entries, n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


int_matrices = st.integers(1, 3).flatmap(lambda n: square(small_int, n))
rational_matrices = st.integers(1, 3).flatmap(lambda n: square(rational, n))


@st.composite
def symmetric_integer_matrices(draw):
    """A^t A + diag(e) with e in {-1, 0, 1}: PSD, singular PSD and indefinite cases alike."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k))
    shift = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    return [[sum(row[i] * row[j] for row in a) + (shift[i] if i == j else 0) for j in range(n)] for i in range(n)]


@given(symmetric_integer_matrices())
def test_psd_elimination_matches_principal_minors(s):
    assert exact._psd(s) == minors_psd(s)


@given(st.one_of(int_matrices, rational_matrices), positive_rational)
def test_check_contraction_matches_minors_of_the_inverse(rows, r):
    m = Matrix.from_rows(rows)
    if cofactor_det(rows) == 0:
        with pytest.raises(SingularMatrix):
            check_contraction(m, r)
        return
    assert check_contraction(m, r) == norm_at_most(adjugate_inverse(rows).rows, r)


signs = st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3)


@given(st.integers(1, 3), st.integers(2, 12), st.permutations(range(3)), signs)
def test_check_contraction_is_sharp_on_scaled_signed_permutations(n, m, perm, signs):
    # every singular value of m P S is m, so ||(m P S)^-1|| = 1/m exactly
    order = [p for p in perm if p < n]
    rows = [[m * signs[i] if j == order[i] else 0 for j in range(n)] for i in range(n)]
    matrix = Matrix.from_rows(rows)
    assert check_contraction(matrix, Fraction(1, m)) is True
    assert check_contraction(matrix, Fraction(1, m) - Fraction(1, 10**9)) is False


def test_check_contraction_boundary_and_singular_cases():
    for m in (2, 3, 5):
        for n in (1, 2, 3):
            diag = Matrix.diagonal([m] * n)
            assert check_contraction(diag, Fraction(1, m)) is True
            assert check_contraction(diag, Fraction(1, m) - Fraction(1, 10**9)) is False
    rotation = Matrix.from_rows([[3, -4], [4, 3]])  # 5 times a rotation
    assert check_contraction(rotation, Fraction(1, 5)) is True
    assert check_contraction(rotation, Fraction(1, 5) - Fraction(1, 10**9)) is False
    for rows in ([[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 0, 0], [0, 0, 3]]):
        with pytest.raises(SingularMatrix):
            check_contraction(Matrix.from_rows(rows), Fraction(1, 2))


@given(rational_matrices)
def test_operator_norm_upper_equals_matrix_squaring_bit_for_bit(rows):
    m = Matrix.from_rows(rows)
    assert operator_norm_upper(m) == norm_upper_by_matrix_squaring(m)
    if cofactor_det(rows):
        assert operator_norm_upper(m.inverse()) == norm_upper_by_matrix_squaring(m.inverse())


# m = 3 digit sets in the plane that have a coset-line zero direction, so build_system accepts them
PLANAR_SETS = (
    ((0, 0), (1, 0), (0, 1)),
    ((0, 0), (1, 2), (1, 3)),
    ((0, 0), (2, 3), (3, 5)),
    ((0, 0), (1, 0), (2, 0)),
)


@given(
    st.lists(st.sampled_from(PLANAR_SETS), min_size=1, max_size=3),
    st.lists(st.sampled_from(PLANAR_SETS), min_size=1, max_size=3),
)
def test_levels_sharing_a_digit_set_share_a_fresh_zero_structure(preamble_sets, cycle_sets):
    levels = [([[3, 0], [0, 3]], digits) for digits in preamble_sets + cycle_sets]
    calls = []

    def counted(digits, modulus):
        calls.append(digits)
        return find_zero_directions(digits, modulus)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_module, "find_zero_directions", counted)
        system = build_system(2, 3, levels[: len(preamble_sets)], levels[len(preamble_sets) :], r=Fraction(1, 3))
    assert len(calls) == len(set(calls)) == len(set(preamble_sets + cycle_sets))
    for k, digits in enumerate(preamble_sets + cycle_sets, start=1):
        assert system.level(k).zeros == find_zero_directions(DigitSet.from_vectors(digits), 3)

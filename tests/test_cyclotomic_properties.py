"""Property tests: the basis test ``cyclotomic_vanishes`` against polynomial
division by Phi_q (test_exact's oracle) and against the float sum of roots.

Every exponent may be moved by a multiple of q far outside [0, q), beyond
int64 included, which must not change the answer.
"""
import cmath

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from moranspec.exact import cyclotomic_vanishes  # noqa: E402
from test_exact import vanishes_by_division  # noqa: E402

PRIME_POWERS = (2, 3, 7, 8, 9, 25, 27, 49, 125)
SQUAREFREE = (6, 30, 210, 2310)
MIXED = (12, 90, 216, 900, 1250)
moduli = st.sampled_from(PRIME_POWERS + SQUAREFREE + MIXED)


def divisors(q, upto):
    return [d for d in range(1, min(q, upto) + 1) if q % d == 0]


@st.composite
def far_copies(draw, exponents, q):
    """The same residues, each shifted by q times an integer of up to 70 bits."""
    if not draw(st.booleans()):
        return exponents
    return [e + q * draw(st.integers(-(2**70), 2**70)) for e in exponents]


@st.composite
def polygon_unions(draw):
    """(exponents, q): a union of rotated regular d-gons, d | q and d > 1."""
    q = draw(moduli)
    exponents = []
    for d, rotation in draw(st.lists(st.tuples(st.sampled_from(divisors(q, q)[1:]), st.integers(0, q - 1)), min_size=1, max_size=4)):
        exponents += [rotation + j * (q // d) for j in range(d)]
    return draw(far_copies(exponents, q)), q


@st.composite
def multisets(draw):
    """(exponents, q): empty, random residues, or random roots of one small order d | q."""
    q = draw(moduli)
    kind = draw(st.sampled_from(["empty", "random", "subgroup"]))
    if kind == "empty":
        return [], q
    if kind == "random":
        return draw(far_copies(draw(st.lists(st.integers(0, q - 1), max_size=12)), q)), q
    # roots of a small order d balance often without vanishing: the near-misses
    d = draw(st.sampled_from(divisors(q, 12)))
    rotation = draw(st.integers(0, q - 1))
    exponents = [rotation + j * (q // d) for j in draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=12))]
    return draw(far_copies(exponents, q)), q


def float_vanishes(exponents, q):
    return abs(sum(cmath.exp(2j * cmath.pi * (e % q) / q) for e in exponents)) < 1e-9


@given(polygon_unions())
def test_polygon_unions_vanish(case):
    exponents, q = case
    assert cyclotomic_vanishes(exponents, q) is True
    assert vanishes_by_division(exponents, q) and float_vanishes(exponents, q)


@given(polygon_unions(), st.data())
def test_polygon_union_without_one_root_does_not_vanish(case, data):
    # the sum is then minus the removed root
    exponents, q = case
    del exponents[data.draw(st.integers(0, len(exponents) - 1))]
    assert cyclotomic_vanishes(exponents, q) is False


@given(multisets())
def test_vanishing_matches_division_and_float_sum(case):
    exponents, q = case
    got = cyclotomic_vanishes(exponents, q)
    assert got == vanishes_by_division(exponents, q)
    assert got == float_vanishes(exponents, q)

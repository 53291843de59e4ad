import cmath
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import LINE_3, SIERPINSKI, SQUARE_PLUS, SQUARE_PLUS_MIRROR, STAIRCASE, ref_mask
from moranspec.errors import DimensionMismatch, ModelViolation
from moranspec.masks import (
    DigitSet,
    ZeroStructure,
    coset_residues,
    find_zero_directions,
)


def mask_direct(digits, xi):
    """Direct unreduced summation in floats, a check on ref_mask's phase reduction."""
    total = 0j
    for d in digits.digits:
        total += cmath.exp(2j * cmath.pi * sum(float(x) * c for x, c in zip(xi, d)))
    return total / digits.size


def test_mask_eval_known_zero():
    val = ref_mask(SIERPINSKI, (Fraction(1, 3), Fraction(2, 3)))
    assert abs(val) < 1e-15


def test_mask_eval_at_origin_is_one():
    for d in [SIERPINSKI, SQUARE_PLUS, STAIRCASE, LINE_3]:
        assert ref_mask(d, (Fraction(0),) * d.n) == pytest.approx(1.0)


def test_mask_eval_half_point():
    val = ref_mask(LINE_3, (Fraction(1, 2),))
    assert val.real == pytest.approx(1 / 3, abs=1e-15)
    assert abs(val.imag) < 1e-15
    assert mask_direct(LINE_3, (0.5,)) == pytest.approx(val, abs=1e-12)


def test_mask_eval_dimension_mismatch():
    # the oracle refuses a point of another dimension rather than truncating it
    with pytest.raises(ValueError):
        ref_mask(SIERPINSKI, (Fraction(1, 3),))


def test_mask_eval_float_periodicity():
    rng = random.Random(4)
    for _ in range(25):
        xi = tuple(rng.uniform(-3, 3) for _ in range(2))
        shifted = tuple(a + 1 for a in xi)
        assert abs(ref_mask(SIERPINSKI, shifted) - ref_mask(SIERPINSKI, xi)) < 1e-12


def test_residue_vanishing_examples():
    assert find_zero_directions(SIERPINSKI, 3).residue_table.get((1, 2)) is not None
    assert find_zero_directions(STAIRCASE, 5).residue_table.get((1, 1)) is not None
    assert find_zero_directions(SQUARE_PLUS, 5).residue_table.get((1, 1)) is None


def test_residue_vanishing_oracle():
    # Residue enumeration oracle for SQUARE_PLUS at (1,1): 0,1,1,2,6 -> repeat.
    seen = [sum(a * b for a, b in zip(d, (1, 1))) % 5 for d in SQUARE_PLUS.digits]
    assert sorted(seen) != list(range(5))


def test_residue_vanishing_model_violation():
    with pytest.raises(ModelViolation):
        find_zero_directions(SIERPINSKI, 5)
    with pytest.raises(ModelViolation):
        find_zero_directions(DigitSet.from_vectors([(0,), (1,), (2,), (3,)]), 4)
    # the zero class is never a direction
    assert find_zero_directions(SIERPINSKI, 3).residue_table.get((0, 0)) is None


def test_scalar_closure_property():
    rng = random.Random(11)
    for _ in range(40):
        digs = set()
        while len(digs) < 5:
            digs.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        d = DigitSet.from_vectors(sorted(digs))
        nu = (rng.randint(0, 4), rng.randint(0, 4))
        if all(c % 5 == 0 for c in nu):
            continue
        # the mask vanishes on the coset line of nu iff <d, nu> mod 5 hits every residue once
        base = sorted(sum(a * b for a, b in zip(digit, nu)) % 5 for digit in d.digits) == list(range(5))
        z = find_zero_directions(d, 5)
        for j in range(1, 5):
            scaled = tuple(j * c % 5 for c in nu)
            assert (z.residue_table.get(scaled) is not None) == base


def test_find_zero_directions_line():
    z = find_zero_directions(LINE_3, 3)
    assert z.directions == ((1,),)
    assert z.model_compliant == (True,)


def test_find_zero_directions_sierpinski():
    z = find_zero_directions(SIERPINSKI, 3)
    assert z.directions == ((1, 2),)
    assert z.model_compliant == (True,)


def test_find_zero_directions_five_element_sets():
    assert find_zero_directions(SQUARE_PLUS, 5).directions == ((1, 2), (1, 3))
    assert find_zero_directions(SQUARE_PLUS_MIRROR, 5).directions == ((1, 2), (1, 3))
    assert find_zero_directions(STAIRCASE, 5).directions == ((1, 1),)


def test_zero_direction_masks_vanish():
    for digits, m in [(SIERPINSKI, 3), (SQUARE_PLUS, 5), (SQUARE_PLUS_MIRROR, 5), (STAIRCASE, 5), (LINE_3, 3)]:
        z = find_zero_directions(digits, m)
        assert z.count >= 1
        for nu in z.directions:
            for j in range(1, m):
                point = tuple(Fraction(j * c, m) for c in nu)
                assert abs(ref_mask(digits, point)) < 1e-12


def test_direction_lookup_by_residue():
    z = find_zero_directions(SQUARE_PLUS, 5)
    assert z.residue_table.get((2, 4)) == 0  # 2*(1,2)
    assert z.residue_table.get((4, 2)) == 1  # 4*(1,3)
    assert z.residue_table.get((1, 1)) is None
    assert z.residue_table.get((0, 0)) is None


def test_coset_residues_and_residue_table():
    assert coset_residues((1, 3), 5) == ((1, 3), (2, 1), (3, 4), (4, 2))
    assert coset_residues((-1, 7), 3) == ((2, 1), (1, 2))
    z = ZeroStructure(modulus=5, directions=((0, 1), (1, 3)), model_compliant=(False, True))
    assert z.residue_table == {
        **{(0, j): 0 for j in range(1, 5)},
        (1, 3): 1, (2, 1): 1, (3, 4): 1, (4, 2): 1,
    }
    assert z.residue_table is z.residue_table
    assert [z.residue_table.get(tuple(c % 5 for c in r)) for r in [(0, 7), (-4, 3), (1, 1)]] == [0, 1, None]


def test_exhaustive_small_sets_match_brute_force():
    # Every 3-element digit set inside {0..4}^2, against |mask| evaluated on
    # the 3x3 rational grid (a/3, b/3).
    points = [p for p in product(range(3), repeat=2) if p != (0, 0)]
    space = list(product(range(5), repeat=2))
    for combo in combinations(space, 3):
        d = DigitSet.from_vectors(combo)
        z = find_zero_directions(d, 3)
        claimed = set()
        for nu in z.directions:
            for j in range(1, 3):
                claimed.add(tuple((j * c) % 3 for c in nu))
        brute = set()
        for p in points:
            xi = (Fraction(p[0], 3), Fraction(p[1], 3))
            if abs(ref_mask(d, xi)) < 1e-9:
                brute.add(p)
        assert claimed == brute, (combo, claimed, brute)


def test_digit_set_validation():
    with pytest.raises(ModelViolation):
        DigitSet.from_vectors([(0, 0), (0, 0)])
    with pytest.raises(DimensionMismatch):
        DigitSet.from_vectors([(0, 0), (1,)])
    assert SIERPINSKI.max_norm() == pytest.approx(1.0)
    assert STAIRCASE.max_norm() == pytest.approx(8 ** 0.5, rel=1e-9)


def test_direction_with_zero_entry_reported_not_rejected():
    d = DigitSet.from_vectors([(0, 0), (1, 0), (2, 1)])
    z = find_zero_directions(d, 3)
    assert (1, 0) in z.directions
    idx = z.directions.index((1, 0))
    assert z.model_compliant[idx] is False


def test_from_vectors_rejects_non_integral_coordinates():
    with pytest.raises(ValueError, match=r"\(0\.5, 0\)"):
        DigitSet.from_vectors([(0.5, 0), (1, 0), (0, 1)])
    assert DigitSet.from_vectors([(0, 0), (2.0, 0), (0, Fraction(4, 2))]).digits == ((0, 0), (2, 0), (0, 2))


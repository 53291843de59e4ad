import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import SIERPINSKI
from moranspec.errors import SizeMismatch
from moranspec.exact import Matrix, vec_dot
from moranspec.pairs import (
    CompatiblePair,
    is_compatible_pair,
    row_tuples,
    tower_arrays,
)

R3 = Matrix.diagonal([3, 3])
SIERP_LABELS = ((0, 0), (1, 2), (2, 1))


def gram_defect(matrix, digits, labels):
    """Numeric oracle: max entry of |H H* - I|."""
    inv = np.linalg.inv(np.array(matrix.rows, dtype=float))
    phases = (np.array(digits, float) @ inv.T) @ np.array(labels, float).T
    h = np.exp(2j * np.pi * phases) / np.sqrt(len(digits))
    return np.abs(h.conj().T @ h - np.eye(len(labels))).max()


def test_sierpinski_pair_exact_and_numeric():
    ok, witness = is_compatible_pair(R3, SIERPINSKI.digits, SIERP_LABELS)
    assert ok and witness is None
    assert gram_defect(R3, SIERPINSKI.digits, SIERP_LABELS) < 1e-12


def test_singleton_pair_trivially_compatible():
    ok, _ = is_compatible_pair(Matrix.diagonal([5, 5]), [(0, 0)], [(0, 0)])
    assert ok


def test_diagonal_labels_fail_with_witness():
    bad = ((0, 0), (1, 1), (2, 2))
    ok, witness = is_compatible_pair(R3, SIERPINSKI.digits, bad)
    assert not ok
    assert set(witness) == {(1, 1), (0, 0)}
    assert gram_defect(R3, SIERPINSKI.digits, bad) > 0.1


def test_quarter_cantor_pair_composite_denominator():
    ok, _ = is_compatible_pair(Matrix.from_rows([[4]]), [(0,), (2,)], [(0,), (1,)])
    assert ok


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        is_compatible_pair(R3, SIERPINSKI.digits, [(0, 0), (1, 2)])


def test_labels_reduced_mod_r_transpose_stay_compatible():
    # representatives of the labels inside 3(-1/2,1/2]^2
    assert is_compatible_pair(R3, SIERPINSKI.digits, ((0, 0), (1, -1), (-1, 1))) == (True, None)


def test_digits_shifted_mod_r_and_labels_mod_r_transpose_stay_compatible():
    # an upper-triangular R, so R Z^2 and R^t Z^2 differ: R e2 = (1, 3), R^t e1 = (3, 1), R^t e2 = (0, 3)
    mat = Matrix(((3, 1), (0, 3)))
    digits, labels = ((0, 0), (1, 0), (2, 0)), ((0, 0), (-4, -4), (-2, -4))
    assert is_compatible_pair(mat, digits, labels) == (True, None)
    assert is_compatible_pair(mat, digits, ((0, 0), (-4, -1), (-2, -4))) == (True, None)
    assert is_compatible_pair(mat, ((0, 0), (2, 3), (2, 0)), labels) == (True, None)
    # the swapped shifts break compatibility
    assert not is_compatible_pair(mat, digits, ((0, 0), (-3, -1), (-2, -4)))[0]
    assert not is_compatible_pair(mat, ((0, 0), (4, 1), (2, 0)), labels)[0]


def test_tower_arrays_single_level_identity():
    pair = CompatiblePair(R3, SIERPINSKI.digits, SIERP_LABELS)
    matrix, digits, labels = tower_arrays([pair])
    assert set(row_tuples(digits)) == set(pair.digits)
    assert set(row_tuples(labels)) == set(pair.labels)
    assert matrix == pair.matrix


def test_tower_arrays_two_sierpinski_levels():
    pair = CompatiblePair(R3, SIERPINSKI.digits, SIERP_LABELS)
    matrix, digits, labels = tower_arrays([pair, pair])
    assert len(digits) == 9
    assert len(labels) == 9
    assert matrix == Matrix.diagonal([9, 9])
    assert gram_defect(matrix, digits, labels) < 1e-10
    ok, _ = is_compatible_pair(matrix, digits, labels)
    assert ok


def _random_unimodular(rng, n):
    m = Matrix.identity(n)
    for _ in range(2):
        if n == 1:
            continue
        a = rng.randint(-2, 2)
        upper = Matrix.from_rows([[1, a], [0, 1]])
        lower = Matrix.from_rows([[1, 0], [rng.randint(-2, 2), 1]])
        m = m.mul(upper if rng.random() < 0.5 else lower)
    return m


def _random_compatible(rng, n, m):
    """Model-class pair: R = mI, digits hit all residues along a direction."""
    while True:
        nu = tuple(rng.randint(0, m - 1) for _ in range(n))
        if any(c % m for c in nu):
            break
    # w with <w, nu> = 1 mod m
    while True:
        w = tuple(rng.randint(-3, 3) for _ in range(n))
        if vec_dot(w, nu) % m == 1:
            break
    digits = []
    for j in range(m):
        shift = tuple(m * rng.randint(-1, 1) for _ in range(n))
        digits.append(tuple(j * a + s for a, s in zip(w, shift)))
    labels = []
    for j in range(m):
        shift = tuple(m * rng.randint(-1, 1) for _ in range(n))
        labels.append(tuple(j * a + s for a, s in zip(nu, shift)))
    if len(set(digits)) < m or len(set(labels)) < m:
        return None
    return Matrix.diagonal([m] * n), tuple(digits), tuple(labels)


def _random_junk(rng, n, m):
    while True:
        mat = Matrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        if mat.det() != 0:
            break
    seen = set()
    while len(seen) < 2 * m:
        seen.add(tuple(rng.randint(-6, 6) for _ in range(n)))
    seen = sorted(seen)
    return mat, tuple(seen[:m]), tuple(seen[m : 2 * m])


def test_exact_and_numeric_agree_on_random_pairs():
    rng = random.Random(9157)
    true_count = 0
    for trial in range(200):
        n = rng.choice([1, 2])
        m = rng.choice([2, 3, 5])
        made = _random_compatible(rng, n, m) if trial % 2 == 0 else None
        if made is None:
            made = _random_junk(rng, n, m)
        mat, digits, labels = made
        exact_ok, _ = is_compatible_pair(mat, digits, labels)
        numeric_ok = gram_defect(mat, digits, labels) < 1e-9
        assert exact_ok == numeric_ok, (mat.rows, digits, labels)
        true_count += exact_ok
    assert true_count >= 40  # both branches exercised


def test_closure_operations_reverify_on_random_towers():
    rng = random.Random(40912)
    done = 0
    while done < 50:
        n = rng.choice([1, 2])
        m = rng.choice([2, 3, 5])
        depth = rng.choice([1, 2, 3] if m < 5 else [1, 2])
        levels = []
        while len(levels) < depth:
            made = _random_compatible(rng, n, m)
            if made is None:
                continue
            mat, digits, labels = made
            u = _random_unimodular(rng, n)
            mat = mat.mul(u) if n > 1 and rng.random() < 0.3 else mat
            ok, _ = is_compatible_pair(mat, digits, labels)
            if not ok:
                continue
            levels.append(CompatiblePair(mat, digits, labels))

        # (ii) translation closure
        s = tuple(rng.randint(-3, 3) for _ in range(n))
        d0 = tuple(rng.randint(-3, 3) for _ in range(n))
        shifted_digits = [tuple(a + b for a, b in zip(d, d0)) for d in levels[0].digits]
        shifted_labels = [tuple(a + b for a, b in zip(l, s)) for l in levels[0].labels]
        ok, _ = is_compatible_pair(levels[0].matrix, shifted_digits, shifted_labels)
        assert ok

        # (v) congruence reduction closure
        base = levels[0]
        rt = base.matrix.transpose()
        new_digits = tuple(
            tuple(a + b for a, b in zip(d, rt.mul_vec(tuple(rng.randint(-1, 1) for _ in range(n)))))
            for d in base.digits
        )
        new_labels = tuple(
            tuple(a + b for a, b in zip(l, base.matrix.mul_vec(tuple(rng.randint(-1, 1) for _ in range(n)))))
            for l in base.labels
        )
        if len(set(new_digits)) == len(base.digits) and len(set(new_labels)) == len(base.labels):
            ok, _ = is_compatible_pair(base.matrix, new_digits, new_labels)
            assert ok

        # (vi) tower closure
        matrix, digits, labels = tower_arrays(levels)
        assert len(digits) == m ** depth
        if len(digits) <= 27:
            ok, _ = is_compatible_pair(matrix, digits, labels)
        else:
            ok = gram_defect(matrix, digits, labels) < 1e-10
        assert ok
        done += 1


def test_is_compatible_pair_rejects_non_integral_labels():
    with pytest.raises(ValueError, match=r"\(1\.9, 0\)"):
        is_compatible_pair(R3, SIERPINSKI.digits, [(0, 0), (1.9, 0), (0, 1)])
    assert is_compatible_pair(R3, SIERPINSKI.digits, [(0, 0), (1.0, Fraction(4, 2)), (2, 1)]) == (True, None)


def test_witness_is_the_first_failing_pair_in_row_major_order():
    # a two-level Sierpinski tower repeats its label differences, and moving
    # two labels makes several pairs fail; the cached test must still name
    # the first of them, found here by the numeric Gram matrix
    rng = random.Random(77)
    level = CompatiblePair(R3, SIERPINSKI.digits, SIERP_LABELS)
    matrix, digits, tower_labels = tower_arrays([level, level])
    inv = np.linalg.inv(np.array(matrix.rows, dtype=float))
    for _ in range(30):
        labels = list(row_tuples(tower_labels))
        for idx in rng.sample(range(len(labels)), 2):
            labels[idx] = tuple(x + rng.randint(-2, 2) for x in labels[idx])
        phases = (np.array(digits, float) @ inv.T) @ np.array(labels, float).T
        h = np.exp(2j * np.pi * phases)
        gram = np.abs(h.conj().T @ h)
        failing = [(a, b) for a in range(len(labels)) for b in range(a + 1, len(labels)) if gram[a, b] > 1e-9]
        ok, witness = is_compatible_pair(matrix, digits, labels)
        assert ok == (not failing)
        assert witness == (None if ok else (labels[failing[0][0]], labels[failing[0][1]]))

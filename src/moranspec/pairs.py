"""Hadamard triples / compatible pairs and their closure operations.

(R, D, L) is a Hadamard triple when H = (1/sqrt(#D)) [exp(2*pi*i*<R^-1 d, l>)]
is unitary. Column orthogonality says that for every pair of distinct
labels the sum over digits of exp(2*pi*i*<R^-1 d, l - l'>) vanishes, which
is decided exactly by the cyclotomic test on the rational inner products.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact
from .errors import CongruenceViolation, DimensionMismatch, SizeMismatch
from .exact import Matrix, intvec, mixed_radix_sums, vec_dot, vec_sub


@dataclass(frozen=True)
class CompatiblePair:
    """A (R^-1 D, L) pair; ``is_compatible_pair`` decides whether it is compatible."""

    matrix: Matrix
    digits: tuple
    labels: tuple


def first_repeated_row(rows: np.ndarray) -> int:
    """Least index of a row equal to an earlier row, else ``len(rows)``, by one stable ``np.lexsort``."""
    with contextlib.suppress(OverflowError):  # Python ints sort faster as int64; astype raises if one does not fit
        rows = rows.astype(np.int64, copy=False)
    order = np.lexsort(rows.T)
    ranked = rows[order]
    return int(order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)].min(initial=len(rows)))


def row_tuples(rows: np.ndarray) -> tuple:
    """The rows of a 2-D integer array as tuples of Python ints, each built once from the columns."""
    return tuple(zip(*rows.T.tolist()))


def is_compatible_pair(matrix: Matrix, digits, labels):
    """Check unitarity of the pair matrix exactly; returns (ok, witness).

    ``witness`` is the first offending label pair on failure, else None.
    Each label difference, up to sign (their sums are conjugate), goes once
    through the cyclotomic vanishing test with the least common denominator
    of the inner products, so composite denominators are covered too.
    """
    digits = tuple(map(intvec, digits))
    labels = tuple(map(intvec, labels))
    if len(digits) != len(labels):
        raise SizeMismatch(f"{len(digits)} digits vs {len(labels)} labels")
    n = matrix.n
    if any(len(v) != n for v in digits) or any(len(v) != n for v in labels):
        raise DimensionMismatch("vector dimension differs from matrix size")
    # <R^-1 d, l - l'> = <N d, l - l'> / den with R^-1 = N / den; the least
    # common denominator of the inner products is den / g.
    inv = matrix.inverse()
    den = inv.den
    rows = [inv.mul_vec_num(d) for d in digits]
    vanishes = {}
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            diff = max(vec_sub(labels[a], labels[b]), vec_sub(labels[b], labels[a]))
            if diff not in vanishes:
                inner = [vec_dot(r, diff) for r in rows]
                g = math.gcd(den, *inner)
                vanishes[diff] = exact.cyclotomic_vanishes([(x // g) % (den // g) for x in inner], den // g)
            if not vanishes[diff]:
                return False, (labels[a], labels[b])
    return True, None


def tower_arrays(pairs: Sequence[CompatiblePair]) -> tuple:
    """(matrix, digits, labels) of the product pair over consecutive levels.

    For levels 1..K the product matrix is R_K ... R_1, the digit tower is
    D_K + R_K D_{K-1} + ... + R_K...R_2 D_1 and the label tower is
    L_1 + R_1^t L_2 + ... + R_1^t...R_{K-1}^t L_K, both as the (N, n)
    arrays of ``mixed_radix_sums``. A repeated digit raises
    CongruenceViolation; repeated labels are the caller's to refuse.
    """
    if not pairs:
        raise SizeMismatch("tower needs at least one level")
    n = pairs[0].matrix.n
    if any(p.matrix.n != n for p in pairs):
        raise DimensionMismatch("levels have mixed dimensions")
    # digits: level j is multiplied by the matrices above it, R_K ... R_{j+1}
    digit_coef = [Matrix.identity(n)]
    for p in reversed(pairs[1:]):
        digit_coef.insert(0, digit_coef[0].mul(p.matrix))
    # labels: level j is multiplied by the transposes below it, R_1^t ... R_{j-1}^t
    label_coef = [Matrix.identity(n)]
    for p in pairs[:-1]:
        label_coef.append(label_coef[-1].mul(p.matrix.transpose()))
    # integer coefficients, so both denominators are 1
    digits = mixed_radix_sums(digit_coef, [p.digits for p in pairs])[0]
    labels = mixed_radix_sums(label_coef, [p.labels for p in pairs])[0]
    if first_repeated_row(digits) < len(digits):
        raise CongruenceViolation("tower produced colliding elements")
    return digit_coef[0].mul(pairs[0].matrix), digits, labels

"""Hadamard triples / compatible pairs and their closure operations.

(R, D, L) is a Hadamard triple when H = (1/sqrt(#D)) [exp(2*pi*i*<R^-1 d, l>)]
is unitary. Column orthogonality says that for every pair of distinct
labels the sum over digits of exp(2*pi*i*<R^-1 d, l - l'>) vanishes, which
is decided exactly by the cyclotomic test on the rational inner products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import exact
from .errors import CongruenceViolation, DimensionMismatch, SizeMismatch
from .exact import Matrix, intvec, mixed_radix_sums, vec_dot, vec_sub


@dataclass(frozen=True)
class CompatiblePair:
    """A (R^-1 D, L) pair; ``is_compatible_pair`` decides whether it is compatible."""

    matrix: Matrix
    digits: tuple
    labels: tuple

    @property
    def size(self) -> int:
        return len(self.digits)


def _normalize_vectors(vectors) -> tuple:
    return tuple(intvec(v) for v in vectors)


def is_compatible_pair(matrix: Matrix, digits, labels):
    """Check unitarity of the pair matrix exactly; returns (ok, witness).

    ``witness`` is the first offending label pair on failure, else None.
    Each label difference, up to sign (their sums are conjugate), goes once
    through the cyclotomic vanishing test with the least common denominator
    of the inner products, so composite denominators are covered too.
    """
    digits = _normalize_vectors(digits)
    labels = _normalize_vectors(labels)
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


def tower_pair(pairs: Sequence[CompatiblePair]) -> CompatiblePair:
    """Product pair over consecutive levels.

    For levels 1..K the product matrix is R_K ... R_1, the digit tower is
    D_K + R_K D_{K-1} + ... + R_K...R_2 D_1 and the label tower is
    L_1 + R_1^t L_2 + ... + R_1^t...R_{K-1}^t L_K. The result of combining
    compatible levels is compatible, with cardinality the product of the
    level cardinalities.
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
    digits = tuple(map(tuple, mixed_radix_sums(digit_coef, [p.digits for p in pairs])[0].tolist()))
    labels = tuple(map(tuple, mixed_radix_sums(label_coef, [p.labels for p in pairs])[0].tolist()))
    if len(set(digits)) != len(digits) or len(set(labels)) != len(labels):
        raise CongruenceViolation("tower produced colliding elements")
    matrix = digit_coef[0].mul(pairs[0].matrix)
    return CompatiblePair(matrix=matrix, digits=digits, labels=labels)

"""Mask polynomials of integer digit sets and their coset-line zero structure.

The mask polynomial of a finite digit set D is the normalized exponential
sum (1/#D) sum_d exp(2*pi*i*<xi, d>). For the model class (#D = m prime)
its zeros are unions of coset lines (j/m)*nu + Z^n, and membership is
decided exactly through residues of inner products mod m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, DimensionMismatch, ModelViolation
from .exact import IntVec, intvec, prime_factors


ZERO_DIRECTION_CAP = 10**5  # at most this many canonical directions are enumerated per digit set


@dataclass(frozen=True)
class DigitSet:
    """Finite set of integer vectors, kept in construction order."""

    digits: tuple

    @staticmethod
    def from_vectors(vectors: Iterable) -> "DigitSet":
        digs = tuple(intvec(v) for v in vectors)
        if not digs:
            raise ModelViolation("digit set must be nonempty")
        n = len(digs[0])
        if any(len(d) != n for d in digs):
            raise DimensionMismatch("digits have mixed dimensions")
        if len(set(digs)) != len(digs):
            raise ModelViolation("digits must be pairwise distinct")
        return DigitSet(digs)

    @property
    def n(self) -> int:
        return len(self.digits[0])

    @property
    def size(self) -> int:
        return len(self.digits)

    def max_norm(self) -> float:
        best = max(sum(c * c for c in d) for d in self.digits)
        return math.sqrt(best) * (1 + 1e-12)


@dataclass(frozen=True)
class ZeroStructure:
    """Canonical zero directions of a model digit set.

    Each direction stands for the whole scalar class {j*nu mod m}; the
    canonical representative is the lexicographically smallest class
    member with entries in [0, m-1], the one whose first nonzero entry is
    1. ``model_compliant`` records whether all entries are nonzero (the
    strict form with entries in [1, m-1]).
    """

    modulus: int
    directions: tuple
    model_compliant: tuple

    @property
    def count(self) -> int:
        return len(self.directions)

    @cached_property
    def residue_table(self) -> dict:
        """{residue mod m: direction index} over every coset point of every direction."""
        return {res: idx for idx, nu in enumerate(self.directions) for res in coset_residues(nu, self.modulus)}


def coset_residues(nu: Sequence, m: int) -> tuple:
    """j*nu mod m for j = 1..m-1: the numerators over m of the coset points (j/m)*nu + Z^n."""
    return tuple(tuple(j * int(c) % m for c in nu) for j in range(1, m))


def canonical_direction(direction: Sequence, modulus: int) -> IntVec:
    """Smallest of {j*direction mod m : 0 < j < m}, for m prime: the multiple whose first nonzero entry is 1."""
    reduced = tuple(int(c) % modulus for c in direction)
    scale = pow(next((c for c in reduced if c), 1), -1, modulus)
    return tuple(scale * c % modulus for c in reduced)


def find_zero_directions(digits: DigitSet, modulus: int) -> ZeroStructure:
    """All zero-direction classes of the digit set, canonical and sorted.

    Only the canonical representatives (0, ..., 0, 1, *) are tested, more
    leading zeros first, which is lexicographic order. Raises CapExceeded
    before enumerating when their count (m^n - 1)/(m - 1) exceeds
    ZERO_DIRECTION_CAP.
    """
    if digits.size != modulus:
        raise ModelViolation(f"digit count {digits.size} differs from modulus {modulus}")
    if prime_factors(modulus) != (modulus,):
        raise ModelViolation(f"modulus {modulus} is not prime")
    m, n = modulus, digits.n
    count = (m**n - 1) // (m - 1)
    if count > ZERO_DIRECTION_CAP:
        raise CapExceeded(f"{count} canonical directions mod {m} in dimension {n}, cap is {ZERO_DIRECTION_CAP}")
    reps = [(0,) * k + (1,) + tail for k in reversed(range(n)) for tail in product(range(m), repeat=n - 1 - k)]
    # <nu, d> mod m for every representative and digit, exact in int64 as all entries lie in [0, m)
    digits_mod = np.array([[c % m for c in d] for d in digits.digits], dtype=np.int64)
    residues = np.array(reps, dtype=np.int64) @ digits_mod.T % m
    hits = (np.sort(residues, axis=1) == np.arange(m)).all(axis=1)
    found = tuple(nu for nu, hit in zip(reps, hits) if hit)
    compliant = tuple(all(c != 0 for c in nu) for nu in found)
    return ZeroStructure(modulus=m, directions=found, model_compliant=compliant)

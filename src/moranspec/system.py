"""Eventually-periodic Moran systems: finite preamble plus repeating cycle.

A system encodes the infinite data {(R_k, D_k)} by a preamble of levels
followed by a cycle repeated forever, together with the contraction bound
r, the admissibility box margins delta and beta, and the norm-equivalence
constant c (default 1, sound for the Euclidean operator norm).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import DimensionMismatch, ModelViolation, ValidationFailure
from .exact import Matrix, check_contraction, operator_norm_upper, prime_factors
from .masks import DigitSet, ZeroStructure, canonical_direction, find_zero_directions


@dataclass(frozen=True)
class Level:
    matrix: Matrix
    digits: DigitSet
    zeros: ZeroStructure


@dataclass(frozen=True)
class MoranSystem:
    dimension: int
    prime: int
    preamble: tuple
    cycle: tuple
    r: float
    delta: Fraction
    beta: Fraction
    c: float = 1.0

    def level(self, k: int) -> Level:
        """Level data for 1-based index k, resolving through the cycle."""
        if k < 1:
            raise IndexError("levels are 1-based")
        if k <= len(self.preamble):
            return self.preamble[k - 1]
        return self.cycle[(k - len(self.preamble) - 1) % len(self.cycle)]

    def levels_from(self, start: int) -> tuple:
        """(representative_index, level) for every slot that occurs at some k >= start.

        Preamble slots occur once; cycle slots recur forever, so each gets
        a representative index >= start by advancing whole cycles.
        """
        out = []
        for i in range(len(self.preamble)):
            if i + 1 >= start:
                out.append((i + 1, self.preamble[i]))
        for i in range(len(self.cycle)):
            k = len(self.preamble) + i + 1
            while k < start:
                k += len(self.cycle)
            out.append((k, self.cycle[i]))
        return tuple(out)

    @property
    def cycle_start(self) -> int:
        return len(self.preamble) + 1

    def digit_norm_bound(self) -> float:
        return max(lvl.digits.max_norm() for _, lvl in self.levels_from(1))


def _make_level(item, where: str, dimension: int, prime: int, seen: dict) -> Level:
    """The validated level of a (matrix, digits[, zeros]) tuple.

    ``seen`` maps each digit set met before in the document to its ZeroStructure.
    """
    matrix, digits, zeros = item if len(item) == 3 else (*item, None)
    try:
        if not isinstance(matrix, Matrix):
            matrix = Matrix.from_rows(_integer_rows(matrix, "matrix must be a list of rows", where))
        if not isinstance(digits, DigitSet):
            digits = DigitSet.from_vectors(_integer_rows(digits, "digits must be a list of vectors", where))
    except (DimensionMismatch, ModelViolation) as exc:
        raise ValidationFailure("format", f"{where}: {exc}", where) from None
    if matrix.n != dimension:
        raise ValidationFailure("format", f"{where}: matrix is {matrix.n}x{matrix.n}, expected {dimension}", where)
    if digits.n != dimension:
        raise ValidationFailure("format", f"{where}: digits have dimension {digits.n}, expected {dimension}", where)
    if matrix.det() == 0:
        raise ValidationFailure("expansion", f"{where}: matrix is singular, it cannot be expanding", where)
    if digits.size != prime:
        raise ValidationFailure(
            "digit-count", f"{where}: digit set has {digits.size} elements, the model requires exactly {prime}", where
        )
    if digits not in seen:
        if prime_factors(prime) != (prime,):  # trial division bounded by the digit count just checked
            raise ValidationFailure("primality", f"digit cardinality {prime} must be a prime")
        seen[digits] = find_zero_directions(digits, prime)
    computed = seen[digits]
    if zeros is not None:
        canon = {canonical_direction(nu, prime) for nu in _integer_rows(zeros, "zeros must be a list of vectors", where)}
        if canon != set(computed.directions):
            raise ValidationFailure(
                "zero-structure",
                f"{where}: supplied zero directions {sorted(canon)} disagree with computed {list(computed.directions)}",
                where,
            )
    if computed.count == 0:
        raise ValidationFailure(
            "zero-structure",
            f"{where}: digit set has no coset-line zero direction mod {prime}; "
            "the zero set is not a union of (j/m)*nu + Z^n lines",
            where,
        )
    return Level(matrix=matrix, digits=digits, zeros=computed)


def _integer_rows(rows, message: str, where: str) -> list:
    """Lists of int entries from a list of lists; a flat or scalar ``rows`` is a format error with ``message``."""
    try:
        return [[_integer(v, where) for v in row] for row in rows]
    except TypeError:
        raise ValidationFailure("format", f"{where}: {message}", where) from None


def _integer(value, where: str) -> int:
    """An int-valued entry, coordinate or size as an int; 9.0 passes, 9.7, true and "9" do not."""
    if type(value) is int:
        return value
    try:
        exact = None if isinstance(value, (bool, str)) else Fraction(value)
    except (TypeError, ValueError, OverflowError):
        exact = None
    if exact is None or exact.denominator != 1:
        raise ValidationFailure("format", f"{where}: {value!r} is not an integer", where)
    return exact.numerator


def build_system(
    dimension: int,
    prime: int,
    preamble: Iterable,
    cycle: Iterable,
    r=None,
    delta=None,
    beta=None,
    c: float = 1.0,
) -> MoranSystem:
    """Validated construction from (matrix, digits[, zeros]) level tuples.

    ``r`` may be omitted, in which case a certified bound on the largest
    inverse operator norm over the levels is derived. Growth families that
    have no uniform contraction bound are rejected here.
    """
    dimension, prime = _integer(dimension, "dimension"), _integer(prime, "prime")
    if dimension < 1:
        raise ValidationFailure("format", "dimension must be at least 1")
    if prime < 2:  # a larger composite is found at its first level, whose digit count bounds the trial division
        raise ValidationFailure("primality", f"digit cardinality {prime} must be a prime")
    delta = Fraction(delta) if delta is not None else Fraction(1, 8)
    beta = Fraction(beta) if beta is not None else Fraction(1, 8 * prime)
    if not (0 < delta < Fraction(1, 4)) or not (0 < beta < Fraction(1, 4)):
        raise ValidationFailure("params", "delta and beta must lie strictly inside (0, 1/4)")
    if c < 1:
        raise ValidationFailure("params", "norm-equivalence constant c must be at least 1")

    seen = {}
    preamble_levels = tuple(_make_level(it, f"preamble[{i}]", dimension, prime, seen) for i, it in enumerate(preamble))
    cycle_levels = tuple(_make_level(it, f"cycle[{i}]", dimension, prime, seen) for i, it in enumerate(cycle))
    if not cycle_levels:
        raise ValidationFailure("format", "cycle must contain at least one level")

    levels = preamble_levels + cycle_levels
    if r is None:
        bounds = [operator_norm_upper(lvl.matrix.inverse()) for lvl in levels]
        r_val = max(bounds)
        r_exact = None
    else:
        r_exact = Fraction(r)
        r_val = float(r_exact)
    if r_val >= 1:
        raise ValidationFailure(
            "contraction",
            f"derived inverse-norm bound {r_val:.6f} is not below 1; the system has no "
            "uniform contraction ratio and the infinite convolution is not certified to exist",
        )
    if r_exact is not None:
        if not (0 < r_exact < 1):
            raise ValidationFailure("contraction", f"r must lie in (0, 1), got {r_exact}")
        for i, lvl in enumerate(levels):
            if not check_contraction(lvl.matrix, r_exact):
                raise ValidationFailure(
                    "contraction",
                    f"level {i + 1}: inverse operator norm exceeds the declared bound r = {r_exact}",
                )
    return MoranSystem(
        dimension=dimension,
        prime=prime,
        preamble=preamble_levels,
        cycle=cycle_levels,
        r=r_val,
        delta=delta,
        beta=beta,
        c=float(c),
    )


@lru_cache(maxsize=256)
def inverse_transpose(matrix: Matrix) -> Matrix:
    """Cached (R^t)^-1 for the hot iteration paths."""
    return matrix.transpose().inverse()

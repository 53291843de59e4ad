"""Exact rational and integer linear algebra plus vanishing root-of-unity sums.

A matrix is one integer numerator matrix over one positive denominator, so
every inverse, product and comparison is exact integer work; Fractions
appear only where entries are read one at a time. ``int_matmul`` is every
exact integer array product: in int64 when it cannot overflow, in Python ints
otherwise. All functions here are pure and safe for unrestricted parallel use.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularMatrix, SizeMismatch

IntVec = tuple

# int64 arithmetic is used only while every operand and result stays below this
INT64_LIMIT = 2**62


def int_matmul(x, num, headroom: int = 1) -> np.ndarray:
    """``x @ num^t`` exactly, for integer arrays or nested sequences of ints: int64 when max|x|,
    max|num| and n max|x| max|num| headroom, which bounds every entry times the caller's next
    factor, are below ``INT64_LIMIT`` (read at call time, all in Python ints), else Python ints."""
    x = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    num = num if isinstance(num, np.ndarray) else np.array(num, dtype=object)
    ax = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    an = max(int(num.max(initial=0)), -int(num.min(initial=0)))
    dtype = np.int64 if max(ax, an, x.shape[1] * ax * an * headroom) < INT64_LIMIT else object
    return x.astype(dtype, copy=False) @ num.astype(dtype, copy=False).T


def intvec(values: Iterable) -> IntVec:
    """The values as ints; a value that is not an integer raises ValueError."""
    values = tuple(values)
    out = tuple(int(v) for v in values)
    if out != values:
        raise ValueError(f"vector ({', '.join(map(str, values))}) has a non-integral coordinate")
    return out


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v, strict=True))


def _bareiss(rows):
    """(det A, the rows eliminated) by Bareiss fraction-free Gauss-Jordan elimination
    of the given n rows, whose first n columns are A.

    Every intermediate entry is a minor, so each division by the previous
    pivot is exact and no fraction is ever formed. A row swap negates one
    of the two rows, which keeps every determinant, so after the last step
    the first n columns are det(A) I; given [A | I], the rest is adj(A).
    The rows are None when det is 0.
    """
    a = [list(row) for row in rows]
    n, prev = len(a), 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            a[k], a[pivot] = a[pivot], [-v for v in a[k]]
        row_k, p = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = p
    return prev, a


@dataclass(frozen=True)
class Matrix:
    """Square rational matrix ``num / den`` with integer numerators.

    ``den`` is positive and shares no factor with all of ``num``, so equal
    matrices have equal fields. ``rows`` and ``m[i, j]`` give ints when
    ``den`` is 1 and Fractions otherwise; hot loops read ``num`` and
    ``den`` directly and divide once.
    """

    num: tuple
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        g = math.gcd(self.den, *(v for row in self.num for v in row))
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "num", tuple(tuple(v // g for v in row) for row in self.num))
            object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_rows(rows) -> "Matrix":
        vals = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row] for row in rows]
        if not vals or any(len(row) != len(vals) for row in vals):
            raise DimensionMismatch("matrix must be square and nonempty")
        den = math.lcm(*(v.denominator for row in vals for v in row))
        return Matrix(tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in vals), den)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal([1] * n)

    @staticmethod
    def diagonal(entries) -> "Matrix":
        entries = list(entries)
        return Matrix.from_rows([[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)])

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def rows(self) -> tuple:
        if self.den == 1:
            return self.num
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.num)

    def __getitem__(self, ij):
        i, j = ij
        v = self.num[i][j]
        return v if self.den == 1 else Fraction(v, self.den)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.num)), self.den)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise DimensionMismatch("matrix sizes differ")
        cols = tuple(zip(*other.num))
        return Matrix(tuple(tuple(vec_dot(r, c) for c in cols) for r in self.num), self.den * other.den)

    def mul_vec_num(self, v: Sequence) -> tuple:
        """``num @ v``, i.e. ``den`` times the product with v."""
        if len(v) != self.n:
            raise DimensionMismatch("vector length differs from matrix size")
        return tuple(vec_dot(r, v) for r in self.num)

    def mul_vec(self, v: Sequence) -> tuple:
        out = self.mul_vec_num(v)
        if self.den == 1:
            return out
        return tuple(Fraction(x, self.den) if isinstance(x, int) else x / self.den for x in out)

    def det(self):
        d = _bareiss(self.num)[0]
        return d if self.den == 1 else Fraction(d, self.den**self.n)

    def inverse(self) -> "Matrix":
        """Exact inverse; raises SingularMatrix when the determinant is 0."""
        n = self.n
        d, rows = _bareiss([row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(self.num)])
        if not d:
            raise SingularMatrix("matrix is singular")
        return Matrix(tuple(tuple(v * self.den for v in row[n:]) for row in rows), d)

    def is_diagonal(self) -> bool:
        return all(self.num[i][j] == 0 for i in range(self.n) for j in range(self.n) if i != j)


def mixed_radix_sums(coefs: Sequence[Matrix], sets: Sequence) -> tuple:
    """(nums, den): all sums ``coefs[0] v_0 + coefs[1] v_1 + ...`` with v_j
    in ``sets[j]``, as an (N, n) array of integer numerators over one
    positive ``den``.

    ``den`` is the lcm of the coefficient denominators, so it is 1 for
    integer matrices and the numerators are then the sums themselves. The
    earliest set varies fastest, so with the zero vector first in every
    set the sums over the first j sets form a prefix of the result.

    Each set's terms are one exact product of Python ints (object dtype),
    and every numerator is bounded, exactly and before any sum is built, by
    the sum over the sets of their largest term coordinate. When that bound
    and ``den`` are both below 2^53 the array is int64; otherwise it holds
    Python ints (dtype object). Either way each numerator and ``den`` are
    exact floats or exact ints, so ``nums / den`` is correctly rounded: the
    float of ``Fraction(x, den)``.
    """
    if not coefs or len(coefs) != len(sets):
        raise SizeMismatch("need one coefficient matrix per nonempty list of sets")
    n = coefs[0].n
    den = math.lcm(*(c.den for c in coefs))
    terms = [
        np.array(vecs, dtype=object).reshape(len(vecs), n) @ np.array(coef.num, dtype=object).T * (den // coef.den)
        for coef, vecs in zip(coefs, sets)
    ]
    bound = sum(int(abs(t).max(initial=0)) for t in terms)
    dtype = np.int64 if max(bound, den) < 2**53 else object
    acc = np.zeros((1, n), dtype=dtype)
    for t in terms:
        acc = (t.astype(dtype)[:, None, :] + acc[None, :, :]).reshape(-1, n)
    return acc, den


def _log2_fraction(x: Fraction) -> float:
    # math.log2 accepts arbitrary-size ints, so this never overflows.
    return math.log2(x.numerator) - math.log2(x.denominator)


# exact squarings of the Gram matrix in operator_norm_upper: overshoot <= n^(1/128)
_NORM_SQUARINGS = 6


def _gram(num) -> tuple:
    """N^t N of the integer rows ``num``; for a symmetric N that is N^2."""
    cols = tuple(zip(*num))
    return tuple(tuple(sum(map(operator.mul, a, b)) for b in cols) for a in cols)


def operator_norm_upper(m: Matrix) -> float:
    """Certified upper bound on the Euclidean operator norm of ``m``.

    Uses trace(G^k)^(1/2k) for the Gram matrix G = m^T m, which bounds the
    top singular value from above for every k because G is positive
    semidefinite, and is never larger than the Frobenius norm (the k=1
    case). Repeated exact squaring drives the overshoot factor down to
    n^(1/2k). The returned float is inflated by a tiny safety factor so
    rounding can never drop it below the true norm. G = N^t N / den^2 is
    squared on its integer numerators; it is symmetric, so trace(G^2k) is
    the sum of the squares of the entries of G^k.
    """
    g = _gram(m.num)
    frob_sq = Fraction(sum(g[i][i] for i in range(m.n)), m.den**2)
    if frob_sq == 0:
        return 0.0
    sn, sd = math.isqrt(frob_sq.numerator), math.isqrt(frob_sq.denominator)
    exact_root = sn * sn == frob_sq.numerator and sd * sd == frob_sq.denominator
    frob = sn / sd if exact_root else 2.0 ** (_log2_fraction(frob_sq) / 2.0) * (1 + 1e-12)
    for _ in range(_NORM_SQUARINGS - 1):
        g = _gram(g)
    k = 2**_NORM_SQUARINGS
    trace = Fraction(sum(x * x for row in g for x in row), m.den ** (2 * k))
    return min(2.0 ** (_log2_fraction(trace) / (2.0 * k)) * (1 + 1e-9), frob)


def _psd(s) -> bool:
    """Whether the symmetric integer matrix ``s`` is positive semidefinite.

    One fraction-free (Bareiss) elimination on the diagonal pivots in order:
    each remaining entry is a positive multiple of the Schur complement of
    the pivots so far. A negative pivot means not PSD; a zero pivot is
    allowed only when the rest of its row is zero (else a 2x2 principal
    minor is negative), and its index then drops out.
    """
    a = [list(row) for row in s]
    n, prev = len(a), 1
    for k in range(n):
        row_k, p = a[k], a[k][k]
        if p < 0 or (p == 0 and any(row_k[k + 1 :])):
            return False
        if p:
            for i in range(k + 1, n):
                row_i, f = a[i], a[i][k]
                for j in range(k + 1, n):
                    row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
            prev = p
    return True


def check_contraction(m: Matrix, r) -> bool:
    """True iff the inverse of ``m`` has Euclidean operator norm <= r.

    |m^-1 x| <= r |x| for all x means r^2 m^T m - I PSD; with r = p/q and
    m = N/d it is decided on p^2 N^t N - q^2 d^2 I, without inverting m.
    Exact, so diag[m,...,m] with r = 1/m comes out true. Raises
    SingularMatrix when det(m) = 0.
    """
    r = Fraction(r)
    p2, q2d2 = r.numerator**2, (r.denominator * m.den) ** 2
    g = _gram(m.num)
    holds = r >= 0 and _psd([[p2 * v - (q2d2 if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(g)])
    if not holds and not _bareiss(m.num)[0]:
        raise SingularMatrix("matrix is singular")
    return holds


def prime_factors(q: int) -> tuple:
    """The distinct primes dividing q, ascending."""
    primes, p = [], 2
    while p * p <= q:
        if q % p == 0:
            primes.append(p)
            while q % p == 0:
                q //= p
        p += 1
    if q > 1:
        primes.append(q)
    return tuple(primes)


def cyclotomic_vanishes(exponents: Iterable[int], q: int) -> bool:
    """Whether sum of exp(2*pi*i*e/q) over the multiset vanishes exactly.

    Decided in a basis, with no polynomial arithmetic and one array of q
    counts. With rad = p_1...p_k the product of the primes of q and
    s = q / rad, write e mod q as s*t + c with 0 <= c < s. The roots
    zeta_q^c, c < s, are a basis of Q(zeta_q) over Q(zeta_rad), and by the
    Chinese remainder theorem zeta_rad^t factors into roots zeta_p^(t mod p)
    (up to a Galois automorphism, which keeps vanishing). The only relation
    among the p-th roots is that they sum to 0, so along each prime axis the
    slices 1..p-1 minus slice 0 are coordinates in a basis; the sum vanishes
    iff every coordinate is 0.
    """
    if q < 1:
        raise ValueError("q must be positive")
    primes = prime_factors(q)
    s = q // math.prod(primes)
    # reduce in Python so exponents beyond int64 never reach numpy
    t, c = np.divmod(np.fromiter((e % q for e in exponents), dtype=np.int64), s)
    flat = np.ravel_multi_index(tuple(t % p for p in primes) + (c,), primes + (s,))
    counts = np.bincount(flat, minlength=q).reshape(primes + (s,))
    for axis in range(len(primes)):
        head, rest = np.split(counts, [1], axis=axis)
        counts = rest - head
    return not counts.any()

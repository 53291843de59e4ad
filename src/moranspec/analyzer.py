"""Fourier-side verification: exact zero membership, orthogonality and
completeness scans.

The transform of the infinite convolution is the product over levels of
mask values at the iterated points eta_k = (R_1^t ... R_k^t)^-1 xi. Zeros
of the full transform are exactly the finite-level zeros, because the tail
product tends to 1 geometrically once the iterates contract, so membership
is decided level by level in exact integers with a certified stopping
rule: every coset-line point has sup-norm at least 1/m, and the iterates
shrink by the contraction ratio from any level onward.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from . import exact
from .builder import SpectrumLevel
from .errors import DimensionMismatch
from .exact import Matrix
from .pairs import first_repeated_row, row_tuples
from .system import MoranSystem, inverse_transpose

# level cap of the zero-level search; the stopping rule ends it long before
_MAX_LEVELS = 10_000
# pairs per block of packed differences in verify_orthogonality: one buffer of 1-2 MB per call
_PAIR_CHUNK = 1 << 18
# transform values per chunk of bases: 2 MB of complex values, about one core's L2
_VALUE_CHUNK = 1 << 17
# up to this many offsets a chunk holds at least two bases: numpy sends a one-row
# product to gemv, whose last bits differ from gemm's, and gemm gives the same bits
# for any two or more rows, so these reports keep the bits of 2^20-value chunks
_TWO_BASE_POINTS = 1 << 19


def find_zero_level(system: MoranSystem, point: Sequence):
    """First level whose zero coset lines contain the iterated point, or None.

    The rational coordinates are put over their common denominator, and
    ``_zero_levels`` searches the numerators as one row with that
    denominator as its starting q, so the stopping rule is the same and
    still assumes condition (ii), the coset-line model (ROADMAP.md item 1).
    """
    point = [Fraction(c) for c in point]
    q = math.lcm(*(c.denominator for c in point))
    row = np.array([[c.numerator * (q // c.denominator) for c in point]], dtype=object)
    return int(_zero_levels(system, row, q)[0]) or None


@dataclass
class VerificationReport:
    passed: bool
    witnesses: tuple
    details: dict = field(default_factory=dict)


def verify_orthogonality(system: MoranSystem, points: Iterable) -> VerificationReport:
    """Check (Lambda - Lambda) \\ {0} against the transform zero set.

    Differences are deduplicated up to sign before the exact membership test; witnesses
    list (p, q, difference) triples whose difference misses the zero set, sorted by
    difference, each with its first pair in row-major order. ``points`` is an (N, n)
    integer array or any iterable of points, read once: as numpy's int64 array when it
    makes one, else in Python ints. Points of another dimension, ragged input included,
    raise DimensionMismatch, non-integral coordinates ValueError.
    """
    n, pts = system.dimension, points
    if not (isinstance(points, np.ndarray) and points.dtype in (np.int64, np.uint64)):
        seq = list(points)  # points may be a generator, read once
        with contextlib.suppress(ValueError):  # ragged input leaves pts = points, which is not int64
            pts = np.array(seq)
        if getattr(pts, "dtype", None) != np.int64:
            # object dtype keeps every int exact: numpy reads ints in [2^63, 2^64) as float64
            pts = np.array(seq or np.empty((0, n)), dtype=object)
    if pts.ndim != 2 or pts.shape[1] != n:
        p = next(p for p in pts if np.ndim(p) != 1 or len(p) != n)
        raise DimensionMismatch(f"point {np.asarray(p, dtype=object).tolist()} is not {n}-dimensional like the system")
    if pts.dtype == object:
        ints = np.frompyfunc(int, 1, 1)(pts)
        bad = np.flatnonzero((ints != pts).any(axis=1))
        if len(bad):
            raise ValueError(f"point ({', '.join(map(str, pts[bad[0]]))}) has a non-integral coordinate")
        pts = ints
    if first_repeated_row(pts) < len(pts):
        raise ValueError("points must be pairwise distinct")
    witnesses, distinct, levels_hit = _orthogonality_pairs(system, pts) if len(pts) > 1 else ((), 0, {})
    return VerificationReport(
        passed=not witnesses,
        witnesses=witnesses,
        details={
            "points": len(pts),
            "distinct_differences": distinct,
            "level_histogram": dict(sorted(levels_hit.items())),
        },
    )


def _orthogonality_pairs(system: MoranSystem, pts: np.ndarray):
    """(witnesses, distinct differences, pairs per zero level) of two or more points.

    Points are packed once as ``P = (p - lo) @ strides``, and the key of a pair is
    ``|P_j - P_i|``; plus ``span @ strides`` it is the packed difference turned so that
    its first nonzero coordinate is positive, so keys sort as the differences do in the
    tuple order. The counting pass takes the keys of row blocks of the sorted P, one per
    pair, as views of ``_pair_keys``' one buffer, sorts each in place and counts its runs;
    block tables fold into one (key, count) table once they hold more keys, so memory is
    one buffer plus about twice the distinct differences. Only a difference that misses
    the zero set gets its earliest pair i < j in row-major order, from a second pass over
    full row blocks of P in its order. Keys lie below ``prod(dims)``: int32 when that fits,
    else the dtype of the ``exact.int_matmul`` packing, whose int64 bound keeps it below 2^63.
    """
    lo = pts.min(axis=0)
    dims = [2 * (int(b) - int(a)) + 1 for a, b in zip(lo, pts.max(axis=0))]
    size = math.prod(dims)
    strides = [math.prod(dims[i + 1 :]) for i in range(len(dims))]
    # 0 <= p - lo < 2^64: int64 wraps it by 2^64 at most, which the uint64 view undoes
    packed = exact.int_matmul((pts - lo).view(np.uint64) if pts.dtype == np.int64 else pts - lo, [strides])[:, 0]
    packed = packed.astype(np.int32) if size < 2**31 else packed
    tables = [(np.empty(0, dtype=packed.dtype), np.empty(0, dtype=np.int64))]
    for keys in _pair_keys(packed):
        keys.sort()
        head = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        tables.append((keys[head], np.diff(head, append=len(keys))))
        if sum(len(k) for k, _ in tables[1:]) > len(tables[0][0]):
            tables = [_merge_counts(tables)]
    del keys  # the last view holds the buffer: freeing it before the last fold left glibc's heap lower more often
    keys, counts = _merge_counts(tables)
    diffs = np.stack([(keys + size // 2) // s % d - d // 2 for s, d in zip(strides, dims)], axis=1)
    levels = _zero_levels(system, diffs)
    levels_hit = {int(lvl): int(counts[levels == lvl].sum()) for lvl in np.unique(levels) if lvl}
    miss = levels == 0
    bad, first, i0 = keys[miss], np.full((miss.sum(), 2), -1), 0
    for block in _row_blocks(packed) if len(bad) else ():
        np.abs(block, out=block)
        pos = np.minimum(np.searchsorted(bad, block), len(bad) - 1)
        hit = np.flatnonzero(bad[pos] == block)
        # entry (j, i) of a pair i < j comes after (i, j), so the first hit is the earliest pair
        rows, at = np.unique(pos.ravel()[hit], return_index=True)
        new = first[rows, 0] < 0
        i, j = np.divmod(hit[at[new]], len(packed))
        first[rows[new]] = np.stack([j, i0 + i], axis=1)
        i0 += len(block)
        if (first >= 0).all():
            break
    witnesses = tuple(zip(row_tuples(pts[first[:, 0]]), row_tuples(pts[first[:, 1]]), row_tuples(diffs[miss])))
    return witnesses, len(keys), levels_hit


def _merge_counts(tables):
    """One (key, count) table of the sorted tables; the stable sort merges their sorted runs."""
    keys, counts = (np.concatenate(col) for col in zip(*tables))
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    head = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[head], np.add.reduceat(counts, head)


def _pair_keys(packed: np.ndarray):
    """``|P_j - P_i|`` for each pair of the distinct packed P once, as 1-D views of one buffer per
    call: use each view before asking for the next, whose block overwrites it. Blocks of the sorted s
    hold at most ``isqrt(_PAIR_CHUNK) // 4`` rows i0..i1 and ``_PAIR_CHUNK`` pairs (or one longer row):
    columns i1.. are all positive and written in place; only the triangle, columns i0 + 1..i1, made in
    the buffer's tail, is masked. Made before s, the buffer left glibc's heap lower more often."""
    n, rows = len(packed), math.isqrt(_PAIR_CHUNK) // 4
    cap = min(n * (n - 1) // 2, max(_PAIR_CHUNK, n - 1))
    buf = np.empty(cap + rows * rows, dtype=packed.dtype)
    s, i0 = np.sort(packed), 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, min(rows, _PAIR_CHUNK // (n - 1 - i0))))
        r, rect = i1 - i0, (i1 - i0) * (n - i1)
        np.subtract(s[None, i1:], s[i0:i1, None], out=buf[:rect].reshape(r, n - i1))
        tri = np.subtract(s[None, i0 + 1 : i1], s[i0:i1, None], out=buf[cap : cap + r * (r - 1)].reshape(r, r - 1))
        end = rect + r * (r - 1) // 2
        np.compress((tri > 0).ravel(), tri, out=buf[rect:end])
        yield buf[:end]
        i0 = i1


def _row_blocks(packed: np.ndarray):
    """``packed[None, :] - packed[i0:i1, None]`` in order, ``_PAIR_CHUNK`` entries (or one row) a block, one buffer."""
    buf = np.empty((min(len(packed), max(1, _PAIR_CHUNK // len(packed))), len(packed)), dtype=packed.dtype)
    for i0 in range(0, len(packed), len(buf)):
        yield np.subtract(packed[None, :], packed[i0 : i0 + len(buf), None], out=buf[: len(packed) - i0])


def _zero_levels(system: MoranSystem, points, q: int = 1) -> np.ndarray:
    """First zero level of every row v of an (R, n) integer array, read as v / q; 0 for none.

    Level k reduces eta_k = (R_1^t ... R_k^t)^-1 v / q to lowest terms and
    tests whether m * eta_k is integral with residues mod m on a zero coset
    line of the level. A row stops once c^4 |eta_k|^2 m^2 < 1: from there on
    every iterate has sup norm below 1/m, while every coset point of the
    model zero sets has some coordinate at distance >= 1/m from 0 (j*nu is
    nonzero mod the prime m). The stopping rule assumes condition (ii), the
    coset-line model, still unverified (ROADMAP.md item 1).

    Rows may be int32, int64 or Python ints (object dtype), and q must fit their dtype.
    Row r is kept as column r of one (n + 1, R) array (q, v), and a level is one
    ``exact.int_matmul`` by diag(den, num) with headroom m for ``_residue_hits``, in
    Python ints only while some row's step needs them. Each distinct level's step and
    the sorted base-m codes of its zero residues are made once per call. The gcd (from
    q, which is 1 at first and ends it at once) and the test of m * v against q run one
    contiguous coordinate at a time, and (q, v) is divided in place, so neither keeps a
    temporary of its size.
    """
    points = np.asarray(points)
    if not (points != 0).any(axis=1).all():
        raise ValueError("the zero vector is not in any zero set")
    n, m = points.shape[1], system.prime
    c4, powers = Fraction(system.c) ** 4, [[m**i for i in range(n)]]
    out = np.zeros(len(points), dtype=np.int64)
    rows = np.arange(len(points))
    qv = np.vstack([np.full(len(points), q, dtype=points.dtype), points.T])
    tables = {}  # level -> (step matrix, sorted base-m codes of its zero residues)
    for k in range(1, _MAX_LEVELS + 1):
        if not len(rows):
            return out
        level = system.level(k)
        if level not in tables:
            inv_t = inverse_transpose(level.matrix)
            step = np.array([(inv_t.den,) + (0,) * n] + [(0,) + row for row in inv_t.num], dtype=object)
            tables[level] = step, _residue_codes(level, powers)
        step, codes = tables[level]
        qv = exact.int_matmul(step, qv.T, headroom=m)
        qv //= reduce(np.gcd, qv)
        q, v = qv[0], qv[1:].T
        hit = _residue_hits(codes, powers, m, v, q)
        out[rows[hit]] = k
        keep = ~hit & ~_below_coset_norm(c4, m, v, q)
        rows, qv = rows[keep], qv[:, keep]
    if len(rows):
        raise RuntimeError("zero-set search failed to terminate; contraction data inconsistent")
    return out


def _residue_codes(level, powers) -> np.ndarray:
    """Sorted base-m codes ``residue @ powers`` of the residues mod m on the level's zero coset lines."""
    return np.sort(exact.int_matmul(np.array(list(level.zeros.residue_table)).reshape(-1, len(powers[0])), powers)[:, 0])


def _residue_hits(codes: np.ndarray, powers, m: int, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows of v / q on a zero coset line: m * v / q integral, and the base-m code of its residues
    mod m, ``residues @ powers``, among the sorted ``codes``; int64 rows need m * v to fit."""
    hits = reduce(np.logical_and, (m * col % q == 0 for col in v.T))
    if hits.any():
        residues = v[hits]  # a copy, reduced in place
        residues *= m
        residues //= q[hits][:, None]
        residues %= m
        code = exact.int_matmul(residues, powers)[:, 0]
        hits[hits] = codes[np.minimum(np.searchsorted(codes, code), len(codes) - 1)] == code
    return hits


def _below_coset_norm(c4: Fraction, m: int, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows where c^4 |v|^2 m^2 < q^2, decided exactly.

    Python-int rows are compared in Python ints, as their floats can
    overflow. For int64 rows the float comparison is off by a relative 1e-14
    at most, so only rows within a relative 1e-9 of equality are compared
    again in Python ints. The squares are summed one column at a time and
    the gap is taken in place, so no (R, n) temporary is made.
    """
    if v.dtype == object:
        return c4.numerator * (v * v).sum(axis=1) * m * m < c4.denominator * q * q
    lhs = reduce(np.add, (np.square(col, dtype=float) for col in v.T))
    lhs *= float(c4) * m * m
    rhs = np.square(q, dtype=float)
    below = lhs < rhs
    lhs -= rhs
    for r in np.flatnonzero(np.abs(lhs, out=lhs) <= 1e-9 * rhs):
        below[r] = c4.numerator * sum(int(x) ** 2 for x in v[r]) * m * m < c4.denominator * int(q[r]) ** 2
    return below


def transform_batch_multi(system: MoranSystem, offsets: np.ndarray, bases, depth: int) -> np.ndarray:
    """Transform values at base_b + offset_p for every pair, shape (B, P)."""
    offsets = _offset_rows(offsets)
    return np.concatenate([np.empty((0, len(offsets)), dtype=complex), *_transform_chunks(system, offsets, bases, depth)])


def _offset_rows(offsets) -> np.ndarray:
    """``offsets`` as a 2-D array: int64 or uint64 as given, else in Python ints, which hold any integer exactly."""
    exact_dtype = isinstance(offsets, np.ndarray) and offsets.dtype in (np.int64, np.uint64)
    return np.atleast_2d(offsets if exact_dtype else np.array(offsets, dtype=object))


def _transform_plans(system: MoranSystem, offsets: np.ndarray, depth: int) -> list:
    """(digits, float matrix, roots of unity) of levels 1..depth, the roots on the first w offsets.

    Exact integer phases (two ``exact.int_matmul`` products) become roots of
    unity once, from residues mod q. w is the least width, a power of m
    dividing P or else P, no less than the last level's, with phase column i
    equal to column i mod w exactly (m^k at level k of a spectrum level).
    """
    n_points = len(offsets)
    plans, width, acc = [], 1, Matrix.identity(system.dimension)
    for k in range(1, depth + 1):
        acc = inverse_transpose(system.level(k).matrix).mul(acc)  # (R_1^t ... R_k^t)^-1 = m_int / q
        m_int, q = acc.num, acc.den
        d_arr = np.array(system.level(k).digits.digits, dtype=np.int64)
        int_phases = exact.int_matmul(exact.int_matmul(d_arr, acc.transpose().num), offsets)  # (m, P)
        # residues mod q < 2^63 are int64 whatever dtype the product took, so the roots' bits do not depend on it
        if q < 2**63:
            int_phases = np.remainder(int_phases, q, out=int_phases).astype(np.int64, copy=False)
        else:
            int_phases = int_phases.astype(object) % q
        while width < n_points and not (int_phases.reshape(len(d_arr), -1, width) == int_phases[:, None, :width]).all():
            width = width * system.prime if n_points % (width * system.prime) == 0 else n_points
        if q < 2**63:  # the ufuncs of exp(2j * pi * phase / q) in its order, in one array
            roots = np.multiply(2j * np.pi, int_phases[:, :width])
            roots = np.exp(np.divide(roots, q, out=roots), out=roots)
            a_float = np.array(m_int, dtype=float) / q
        else:  # q may pass the largest float, so Python ints are divided before any float is made
            roots = np.exp(2j * np.pi * (int_phases[:, :width] / q).astype(float))
            a_float = (np.array(m_int, dtype=object) / q).astype(float)
        plans.append((d_arr, a_float, roots))
    return plans


def _transform_chunks(system: MoranSystem, offsets, bases, depth: int):
    """Yield the rows of ``transform_batch_multi``, a chunk of bases at a time.

    A chunk holds ``_VALUE_CHUNK`` (2^17) values, at least one base, and at
    least two bases up to ``_TWO_BASE_POINTS`` (2^19) offsets: numpy sends a
    one-row product to gemv, whose last bits differ from gemm's, while gemm
    gives the same bits for any two or more rows. The B bases are split into
    ceil(B / chunk) near-equal runs, at most B // 2 of them under that floor,
    so the last run keeps the floor too and a row's bits do not depend on B.

    Each mask factor is a BLAS product of a level's roots with the per-base
    phase shifts, scaled by 1/m in place on its float view: numpy divides a
    complex by a real through the reciprocal, so the bits are those of ``/ m``
    up to the sign of an exact zero. The running product, w' columns wide, is
    broadcast into the factor viewed as (B, w / w', w') and multiplied in
    place, so column i takes column i mod w' as a tile would. The order is
    running product times factor: numpy's complex multiply uses FMA and is
    not bitwise commutative.
    """
    offsets = _offset_rows(offsets)
    bases_f = np.array([[float(c) for c in b] for b in bases], dtype=float)
    n_points = len(offsets)
    plans = _transform_plans(system, offsets, depth)

    floor = 2 if n_points <= _TWO_BASE_POINTS else 1
    runs = min(-(-len(bases_f) // max(floor, _VALUE_CHUNK // max(n_points, 1))), max(len(bases_f) // floor, 1))
    for sub in np.array_split(bases_f, runs) if runs else ():
        vals = np.ones((len(sub), 1), dtype=complex)
        for d_arr, a_float, roots in plans:
            shifts = np.exp(2j * np.pi * (d_arr @ (a_float @ sub.T)))  # (m, B)
            factor = shifts.T @ roots
            np.multiply(factor.view(float), 1 / len(d_arr), out=factor.view(float))
            grid = factor.reshape(len(sub), -1, vals.shape[1])
            np.multiply(vals[:, None, :], grid, out=grid)
            vals = factor
        yield np.tile(vals, n_points // vals.shape[1]) if n_points > vals.shape[1] else vals


def completeness_scan(
    system: MoranSystem,
    levels: Sequence[SpectrumLevel],
    grid: int = 8,
    depth: int | None = None,
    extra_points: int = 16,
    seed: int = 0,
    gap_tol: float | None = None,
) -> VerificationReport:
    """Sampled completeness evidence via the quadratic sum criterion.

    For each sample point xi the partial sums Q_k(xi) = sum over level k of
    |transform(xi + lambda)|^2 are reported. An orthogonal family always
    has Q <= 1; the family is a basis exactly when Q is identically 1, so
    the report tracks (a) the bound Q <= 1 plus a numeric allowance and
    (b) the final gap 1 - Q with the certified truncation contribution.
    Each level's ``nums`` must be a prefix of the top level's, so Q_k sums a
    prefix of the top level's non-negative terms and never decreases in k.
    """
    if grid < 4:
        raise ValueError("grid must be at least 4")
    if not levels:
        raise ValueError("need at least one spectrum level")
    top = levels[-1]
    sizes = [lvl.size for lvl in levels]
    for small, big in zip(levels, levels[1:]):
        if not np.array_equal(big.nums[: small.size], small.nums):
            raise ValueError("levels must be nested prefixes; build them together")
    min_depth = (top.index + 1) * top.K
    if depth is None:
        depth = min_depth
    if depth < min_depth:
        raise ValueError(f"depth {depth} is below the top level product length {min_depth}")

    n = system.dimension
    rng = np.random.default_rng(seed)
    # sample points as tuples of Python floats, which witnesses report as they are
    pts = [tuple(i / grid for i in idx) for idx in np.ndindex(*([grid] * n))]
    pts += [tuple(rng.random(n).tolist()) for _ in range(extra_points)]
    eps_numeric = 16 * depth * 1e-13 * math.sqrt(top.size) + top.size * 2.3e-16
    witnesses = []
    per_level_gap = [0.0] * len(levels)
    max_q = 0.0
    min_final = math.inf
    # each chunk of values is reduced to its per-level sums as soon as it is made
    sums = []
    for vals in _transform_chunks(system, top.nums, pts, depth):
        sq = np.abs(vals)
        np.square(sq, out=sq)
        sums.append(np.stack([sq[:, :size].sum(axis=1) for size in sizes], axis=1))
        del vals, sq  # freed before the next chunk is made
    for xi, q_row in zip(pts, np.concatenate(sums)):
        for li, q_val in enumerate(map(float, q_row)):
            # negated so that a NaN sum is a witness too
            if not q_val <= 1.0 + eps_numeric:
                witnesses.append((xi, "bound", li, q_val))
            per_level_gap[li] = max(per_level_gap[li], 1.0 - q_val)
            max_q = max(max_q, q_val)
        final = float(q_row[-1])
        min_final = min(min_final, final)
        if gap_tol is not None and not 1.0 - final <= gap_tol:
            witnesses.append((xi, "gap", len(sizes) - 1, final))

    final_gap = per_level_gap[-1]
    # Truncation contribution: zero when the depth equals the finite product
    # length of the top level (the sum is then an exact finite identity up
    # to numeric error); otherwise bounded through the tail factor.
    if depth == min_depth:
        certified_tail = eps_numeric
    else:
        s = system.digit_norm_bound()
        box = float(Fraction(1, 2) + system.delta / 4)
        eta_norm = system.c**2 * (system.r ** (depth - min_depth)) * (box + 1.0) * math.sqrt(n)
        rel = 2 * math.pi * s * system.c**2 * (system.r / (1 - system.r)) * eta_norm
        certified_tail = eps_numeric + min(1.0, 2 * rel + rel * rel)
    return VerificationReport(
        passed=not witnesses,
        witnesses=tuple(witnesses),
        details={
            "grid": grid,
            "sample_points": len(pts),
            "depth": depth,
            "levels": [lvl.index for lvl in levels],
            "sizes": sizes,
            "max_gap_per_level": per_level_gap,
            "final_gap": final_gap,
            "max_q": max_q,
            "min_final_q": min_final,
            "certified_tail": certified_tail,
            "numeric_allowance": eps_numeric,
        },
    )

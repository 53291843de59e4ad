"""Candidate spectrum construction by blocks.

Levels are grouped K at a time into block matrices and digit towers. Each
level contributes a centered coset label set C = {0, c^(1), ..., c^(m-1)},
c^(l) congruent to l*nu mod m with c^(l)/m inside (-1/2, 1/2]^n, and the
level pair (R, D, (1/m) R^t C), integral exactly when the chosen direction
nu satisfies m | nu^t R. The block pair is the tower of its level pairs,
with labels (1/m) * (R_1^t C_1 + R_1^t R_2^t C_2 + ...). The labels are
then reduced into the fundamental domain N = R~^t(-1/2,1/2]^n; the block
is certified by the composition lemma for Hadamard triples from its exactly
verified level pairs. Spectrum level k is L_0 + R~_0^t L_1 + ... + R~_0^t...R~_{k-1}^t L_k.

Two certificates decide a level from its blocks alone, in O(sum N_j) rows.
Distinct sums: labels distinct mod R~_j^t Z^n below the top block, and distinct
in it (equal sums agree mod R~_0^t Z^n, so l_0 = l_0'; subtract, divide by
R~_0^t, repeat). Containment: a full sumset's coordinatewise extremes are the
sums of its blocks' extremes. A failed certificate runs the row-wide check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    CapExceeded,
    CollisionDetected,
    CongruenceViolation,
    ContainmentViolation,
    NoAdmissibleDirection,
    PairVerificationFailed,
    ValidationFailure,
)
from . import exact
from .exact import Matrix, mixed_radix_sums
from .masks import coset_residues
from .pairs import CompatiblePair, first_repeated_row, is_compatible_pair, row_tuples, tower_arrays
from .system import MoranSystem, inverse_transpose

LEVEL_CAP = 2 * 10**6  # default cap on the elements of the top spectrum level


def normalize_first_level(system: MoranSystem):
    """Replace R_1 by m*I, returning the conjugated system and the matrix back.

    The transformed measure is the original composed with a linear map, so
    spectrality is preserved: back = R_1^t / m maps spectra of the
    normalized system to spectra of the original one.
    """
    m = system.prime
    first = system.level(1)
    rt = first.matrix.transpose()
    back = Matrix(rt.num, rt.den * m)
    target = Matrix.diagonal([m] * system.dimension)
    if first.matrix == target:
        return system, back
    new_first = replace(first, matrix=target)
    if system.preamble:
        preamble, cycle = (new_first,) + system.preamble[1:], system.cycle
    else:
        preamble, cycle = (new_first,), system.cycle[1:] + system.cycle[:1]
    r = max(system.r, (1.0 / m) * (1 + 1e-12))
    normalized = replace(system, preamble=preamble, cycle=cycle, r=r)
    return normalized, back


def find_admissible_direction(system: MoranSystem, k: int):
    """Least direction index i at level k with m | nu_i^t R_k, else None."""
    level = system.level(k)
    m = system.prime
    rt = level.matrix.transpose()
    for idx, nu in enumerate(level.zeros.directions):
        if all(x % m == 0 for x in rt.mul_vec(nu)):
            return idx
    return None


def certified_block_size(system: MoranSystem) -> int:
    """Least block size K whose tail bound keeps the rescaled levels in the padded box.

    K is at least the warmup depth, the least M after which every remaining mask factor is >= 1/2.
    """
    s = system.digit_norm_bound()
    r = system.r
    c = system.c
    n = system.dimension
    delta = float(system.delta)
    if not (0 < r < 1):
        raise ValueError(f"contraction bound r = {r} outside (0, 1)")
    warm_coeff = 2 * math.pi * s * (3 * math.sqrt(n) / 2) * c * c
    M = 1
    while warm_coeff * r**M > 0.5:
        M += 1
        if M > 10_000:
            raise ValueError("contraction too weak, warmup depth exploded")

    def tail(K):
        return c * c * (math.sqrt(n) / 2) * r**K / (1 - r**K)

    K = M
    while tail(K) > delta / 4:
        K += 1
        if K > 10_000:
            raise ValueError("contraction too weak, block size exploded")
    return K


def choose_block_size(system: MoranSystem) -> int:
    """Least block size K that makes the spectrum containment bound hold.

    Also checks that every level beyond the first has an admissible zero
    direction, raising NoAdmissibleDirection otherwise.
    """
    for k, _ in system.levels_from(2):
        if find_admissible_direction(system, k) is None:
            raise NoAdmissibleDirection(k)
    return certified_block_size(system)


def _centered_class(nu, m: int) -> tuple:
    """{0, c^(1), ..., c^(m-1)} with c^(l) = l*nu mod m, entries in (-m/2, m/2]."""
    centered = (tuple(e - m if 2 * e > m else e for e in res) for res in coset_residues(nu, m))
    return (tuple([0] * len(nu)), *centered)


@dataclass(frozen=True)
class BlockDecomposition:
    system: MoranSystem
    K: int
    blocks: tuple  # CompatiblePair per block: R~ = R_{(b+1)K} ... R_{bK+1}, digits, reduced labels (0 first)
    certified_K: int  # least K for which the containment bound is certified

    @property
    def meets_certified_bound(self) -> bool:
        return self.K >= self.certified_K


def _by_den(y: np.ndarray, den: int) -> np.ndarray:
    """``y``, in Python ints when ``den`` is past the int64 limit: numpy's // and % refuse such a divisor."""
    return y.astype(object) if den >= exact.INT64_LIMIT else y


def _reduce_into_fundamental_domain(labels: np.ndarray, r: np.ndarray, w: np.ndarray, den: int) -> np.ndarray:
    """Representatives of the rows l of ``labels`` mod R~^t Z^n inside R~^t (-1/2, 1/2]^n.

    ``r`` is the integer matrix R~ and R~^-t = w / den. Componentwise
    z = ceil(R~^-t l - 1/2) maps the boundary 1/2 into the half-open domain;
    with y = labels w^t that is floor((y + floor((den - 1) / 2)) / den), and
    the rows of labels - z r are the representatives l - R~^t z.
    """
    y = _by_den(exact.int_matmul(labels, w), den)
    return labels - exact.int_matmul((y + (den - 1) // 2) // den, r.T)


def _level_pair(system: MoranSystem, k: int, b: int):
    """(R_k, D_k, (1/m) R_k^t C_k) for the least admissible direction, verified exactly."""
    m = system.prime
    level = system.level(k)
    idx = find_admissible_direction(system, k)
    if idx is None:
        hint = f"level {k} has no admissible direction (normalize the first level to m*I first)"
        raise NoAdmissibleDirection(k, hint if k == 1 else None)
    rt = level.matrix.transpose()
    labels = []
    for c in _centered_class(level.zeros.directions[idx], m):
        val = rt.mul_vec(c)
        if any(x % m for x in val):
            raise PairVerificationFailed(
                b,
                message=f"block {b}: label tower term at level {k} is not integral; "
                "the chosen direction does not divide the matrix",
            )
        labels.append(tuple(x // m for x in val))
    ok, witness = is_compatible_pair(level.matrix, level.digits.digits, labels)
    if not ok:
        raise PairVerificationFailed(b, witness, f"block {b}: level {k} pair fails at labels {witness}")
    return CompatiblePair(matrix=level.matrix, digits=level.digits.digits, labels=tuple(labels))


def build_blocks(system: MoranSystem, K=None, blocks: int = 4) -> BlockDecomposition:
    """Materialize the first ``blocks`` block pairs for block size K.

    K defaults to choose_block_size. Each block is certified by the
    composition lemma: compatible level pairs (each distinct one certified
    once), distinct tower digits, and reduced labels congruent mod R~^t Z^n
    and distinct, so the tower labels are distinct, and distinct mod R~^t Z^n
    as the collision certificate asks. A block depends only on its levels, so
    each distinct level tuple is built and certified once per call and a
    repeat reuses its pair. The towers stay arrays through the checks and
    become tuples once. A failure raises PairVerificationFailed: an indexing bug.
    """
    if (K is not None and K < 1) or blocks < 1:
        raise ValidationFailure("params", f"K and blocks must be at least 1, got K = {K}, blocks = {blocks}")
    if K is None:
        K = certified_K = choose_block_size(system)
    else:
        certified_K = certified_block_size(system)
    pairs = {}  # level -> its certified pair; a failure is not kept, so it raises at its first block
    done = {}  # a block's level tuple -> its certified pair, kept likewise
    keys = [tuple(system.level(k) for k in range(b * K + 1, (b + 1) * K + 1)) for b in range(blocks)]
    for b, key in enumerate(keys):
        if key in done:
            continue
        try:
            for k, level in enumerate(key, b * K + 1):
                if level not in pairs:
                    pairs[level] = _level_pair(system, k, b)
            matrix, digits, labels = tower_arrays([pairs[level] for level in key])
        except CongruenceViolation as exc:
            raise PairVerificationFailed(b, message=f"block {b}: {exc}") from exc
        rt_inv = inverse_transpose(matrix)
        w, den = np.array(rt_inv.num, dtype=object), rt_inv.den
        reduced = _reduce_into_fundamental_domain(labels, np.array(matrix.num, dtype=object), w, den)
        off = np.flatnonzero((_by_den(exact.int_matmul(reduced - labels, w), den) % den != 0).any(axis=1))
        if len(off):
            new, old = (tuple(v[off[0]].tolist()) for v in (reduced, labels))
            raise PairVerificationFailed(b, message=f"block {b}: label {new} is not congruent to {old} mod R^t")
        if first_repeated_row(reduced) < len(reduced):
            raise PairVerificationFailed(b, message=f"block {b}: label tower collided after reduction")
        done[key] = CompatiblePair(matrix, row_tuples(digits), row_tuples(reduced))
    return BlockDecomposition(system=system, K=K, blocks=tuple(map(done.get, keys)), certified_K=certified_K)


@dataclass(frozen=True, eq=False)
class SpectrumLevel:
    """Level ``index``: ``nums`` is a read-only (N, n) prefix view of the top level's numerator array."""

    index: int
    K: int
    nums: np.ndarray
    containment_checked: bool

    def __post_init__(self):
        self.nums.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.nums)

    @cached_property
    def elements(self) -> tuple:
        """The rows as int tuples, built on first access."""
        return row_tuples(self.nums)


def check_level_cap(m: int, K: int, upto: int, cap: int):
    """Raise CapExceeded when spectrum level ``upto`` would hold more than ``cap`` elements."""
    if m ** (K * (upto + 1)) > cap:
        raise CapExceeded(f"level {upto} holds m^(K*(k+1)) = {m ** (K * (upto + 1))} elements, cap is {cap}")


def spectrum_levels(decomp: BlockDecomposition, upto: int, cap: int = LEVEL_CAP, enforce_containment=None):
    """Spectrum levels 0..upto, each a prefix view of the top level's numerator array.

    Raises CapExceeded before materializing more than ``cap`` elements,
    CollisionDetected naming the first level whose sums are not pairwise
    distinct, and ContainmentViolation naming a level's first element outside
    the padded box (checked by default only when K meets the certified bound).
    Both are decided by the module's block certificates (equal sums would agree
    in l_0, then l_1, ...; a sumset's extremes are sums of extremes). Only a failed
    one runs the stable sort of the top level, or ``_check_containment``, to name it.
    """
    system = decomp.system
    n = system.dimension
    K = decomp.K
    if enforce_containment is None:
        enforce_containment = decomp.meets_certified_bound
    if upto >= len(decomp.blocks):
        raise ValueError(f"only {len(decomp.blocks)} blocks built, need {upto + 1}")
    check_level_cap(system.prime, K, upto, cap)

    blocks = decomp.blocks[: upto + 1]
    if any(block.labels[0] != (0,) * n for block in blocks):
        raise ValueError("every block's first label must be 0, else the levels are not sums over their blocks")
    labels = [np.array(block.labels, dtype=object).reshape(-1, n) for block in blocks]
    coefs = [Matrix.identity(n)]  # R~_0^t ... R~_{k-1}^t
    for block in blocks[:-1]:
        coefs.append(coefs[-1].mul(block.matrix.transpose()))
    # the earliest block varies fastest, so level k is a prefix of the top level;
    # the coefficients are integer matrices, so the denominator is 1
    nums = mixed_radix_sums(coefs, labels)[0]
    repeat = len(nums) if _sums_distinct(blocks, labels) else first_repeated_row(nums)
    box = Fraction(1, 2) + system.delta / 4
    w = Matrix.identity(n)  # (R~_0^t ... R~_k^t)^-1
    # block j's terms C_j l are the level rows i N_0 ... N_{j-1}, as every other label is 0
    sizes = [len(rows) for rows in labels]
    starts = np.cumsum([0] + sizes)
    terms = nums[np.concatenate([np.arange(nj) * math.prod(sizes[:j]) for j, nj in enumerate(sizes)])]
    levels = []
    size = 1
    for k, block in enumerate(blocks):
        size *= len(block.labels)
        if size > repeat:
            raise CollisionDetected(f"level {k} sums are not pairwise distinct")
        if enforce_containment:
            w = inverse_transpose(block.matrix).mul(w)
            lim = box.numerator * w.den // box.denominator
            y = exact.int_matmul(terms[: starts[k + 1]], w.num)
            # each block's extremes, summed in Python ints, which cannot wrap
            hi, lo = (f.reduceat(y, starts[: k + 1]).astype(object).sum(axis=0) for f in (np.maximum, np.minimum))
            if (hi > lim).any() or (lo < -lim).any():
                _check_containment(k, nums[:size], w, box)
        levels.append(SpectrumLevel(index=k, K=K, nums=nums[:size], containment_checked=enforce_containment))
    return tuple(levels)


def _sums_distinct(blocks, labels) -> bool:
    """The module's collision certificate: rows congruent mod R~_j^t Z^n agree in L_j W_j^t mod den_j."""
    for block, rows in zip(blocks[:-1], labels):
        if not block.matrix.det():  # a singular R~_j fails it
            return False
        w = inverse_transpose(block.matrix)  # W_j / den_j
        if first_repeated_row(_by_den(exact.int_matmul(rows, w.num), w.den) % w.den) < len(rows):
            return False
    return first_repeated_row(labels[-1]) == len(labels[-1])


def _check_containment(k: int, nums: np.ndarray, w: Matrix, box: Fraction):
    """Exact check that w = (R~_0^t ... R~_k^t)^-1 maps the rows of ``nums``,
    level k, into the padded box [-box, box]^n with box = 1/2 + delta/4.

    With w = W / den and box = p / q, an image y / den of a row is outside
    iff |y| q > p den, iff |y| > floor(p den / q) as y is an integer: one
    array comparison on y = nums W^t, an ``exact.int_matmul`` product (numpy
    compares int64 and a Python int past int64 exactly). The error names the
    first element outside, in prefix order.
    """
    lim = box.numerator * w.den // box.denominator
    y = exact.int_matmul(nums, w.num)
    outside = np.flatnonzero(((y > lim) | (y < -lim)).any(axis=1))
    if len(outside):
        lam = tuple(nums[outside[0]].tolist())
        raise ContainmentViolation(f"level {k}: element {lam} maps to {tuple(map(str, w.mul_vec(lam)))} outside the box")

"""Property tests: block certification by the composition lemma against the
full compatible-pair oracle on random small towers (m in {3, 5}, n <= 3,
at most 125 labels per block), corrupted towers that must be refused, the
tower arrays against the per-tuple oracle, and the
array reduction into the fundamental domain against the per-vector
Fraction oracle."""
import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from conftest import ref_reduce, ref_tower  # noqa: E402
from moranspec import builder  # noqa: E402
from moranspec.errors import PairVerificationFailed, ValidationFailure  # noqa: E402
from moranspec.exact import Matrix  # noqa: E402
from moranspec.pairs import first_repeated_row, is_compatible_pair, row_tuples, tower_arrays  # noqa: E402
from moranspec.system import build_system  # noqa: E402

# largest K with m^K <= 125
MAX_K = {3: 4, 5: 3}


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


@st.composite
def level(draw, m, n):
    """(m U, D): U triangular with diagonal in {1, 2}, D complete mod m along a drawn direction.

    m | nu^t (m U) for every nu, so every zero direction of D is admissible.
    """
    code = draw(st.integers(1, m**n - 1))
    nu = [code // m**i % m for i in range(n)]
    c = next(i for i, x in enumerate(nu) if x)
    inv = pow(nu[c], -1, m)
    digits = []
    for j in range(m):
        v = list(draw(st.tuples(*[st.integers(-2, 2)] * n)))
        rest = sum(nu[i] * v[i] for i in range(n) if i != c)
        v[c] = (j - rest) * inv % m + m * draw(st.integers(-1, 0))
        digits.append(v)
    upper = draw(st.booleans())
    off = st.integers(-1, 1)
    rows = [
        [draw(st.integers(1, 2)) if i == j else (draw(off) if (j > i) == upper else 0) for j in range(n)]
        for i in range(n)
    ]
    return [[m * x for x in row] for row in rows], digits


@st.composite
def towers(draw):
    """A validated system, its block size K and the number of blocks.

    Two blocks are drawn only below the largest K, which keeps the full
    oracle's N(N-1)/2 label pairs affordable.
    """
    m = draw(st.sampled_from((3, 5)))
    n = draw(st.integers(1, 3))
    cycle = [draw(level(m, n)) for _ in range(draw(st.integers(1, 3)))]
    try:
        system = build_system(n, m, [], cycle)
    except ValidationFailure:
        assume(False)
    K = draw(st.sampled_from(range(1, MAX_K[m] + 1)))
    return system, K, draw(st.integers(1, 1 if K == MAX_K[m] else 2))


@settings(max_examples=60, deadline=None)
@given(towers())
def test_certified_blocks_pass_the_full_oracle(case):
    system, K, blocks = case
    decomp = builder.build_blocks(system, K=K, blocks=blocks)
    assert len(decomp.blocks) == blocks
    for block in decomp.blocks:
        assert len(block.labels) == system.prime**K
        assert is_compatible_pair(block.matrix, block.digits, block.labels) == (True, None)


def _raises_for_block(system, K, blocks, target_block):
    with pytest.raises(PairVerificationFailed) as err:
        builder.build_blocks(system, K=K, blocks=blocks)
    assert err.value.block == target_block
    return err.value


@settings(max_examples=60, deadline=None)
@given(towers(), st.data())
def test_non_coset_level_label_is_refused(case, data):
    # c^(j) of level k's coset class moves by a vector; R_k = m U keeps the
    # label (1/m) R_k^t c^(j) integral, so only the compatibility test can refuse it
    system, K, blocks = case
    m, n = system.prime, system.dimension
    # build_blocks makes one class per distinct level, at the level's first use
    firsts = []
    for index in range(1, K * blocks + 1):
        if all(system.level(index) != system.level(i) for i in firsts):
            firsts.append(index)
    k = data.draw(st.sampled_from(firsts), label="level")
    j = data.draw(st.integers(1, m - 1), label="label")
    shift = data.draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any), label="shift")
    good = builder._level_pair(system, k, 0)
    labels = list(good.labels)
    labels[j] = vec_add(labels[j], tuple(x // m for x in good.matrix.transpose().mul_vec(shift)))
    assume(not is_compatible_pair(good.matrix, good.digits, labels)[0])
    original = builder._centered_class
    calls = itertools.count(1)

    def corrupt(nu, m_):
        cls = list(original(nu, m_))
        if next(calls) == firsts.index(k) + 1:
            cls[j] = vec_add(cls[j], shift)
        return tuple(cls)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "_centered_class", corrupt)
        exc = _raises_for_block(system, K, blocks, (k - 1) // K)
    assert f"level {k} pair" in str(exc) and exc.witness is not None


def _new_blocks(system, K, blocks) -> list:
    """The blocks whose level tuple no earlier block has: build_blocks builds and checks only these, in order."""
    keys = [tuple(system.level(k) for k in range(b * K + 1, (b + 1) * K + 1)) for b in range(blocks)]
    return [b for b, key in enumerate(keys) if key not in keys[:b]]


def _patch_reduction(mp, replace):
    """Pass each reduced label through ``replace(index, value, earlier values)``.

    New blocks are reduced in order, one label array each, so label i of the
    c-th block of ``_new_blocks`` has index c * N + i.
    """
    original = builder._reduce_into_fundamental_domain
    counter = itertools.count()
    done = []

    def patched(labels, r, w, den):
        out = original(labels, r, w, den)
        for i, row in enumerate(out.tolist()):
            value = replace(next(counter), tuple(row), done)
            done.append(value)
            out[i] = value
        return out

    mp.setattr(builder, "_reduce_into_fundamental_domain", patched)


@settings(max_examples=60, deadline=None)
@given(towers(), st.data())
def test_reduced_label_shifted_off_the_lattice_is_refused(case, data):
    system, K, blocks = case
    n, N = system.dimension, system.prime**K
    new = _new_blocks(system, K, blocks)
    b = data.draw(st.sampled_from(new), label="block")
    i = data.draw(st.integers(0, N - 1), label="label")
    shift = data.draw(st.tuples(*[st.integers(-3, 3)] * n), label="shift")
    block = builder.build_blocks(system, K=K, blocks=blocks).blocks[b]
    rt_inv = block.matrix.transpose().inverse()
    assume(any(y % rt_inv.den for y in rt_inv.mul_vec_num(shift)))
    at_i = new.index(b) * N + i
    with pytest.MonkeyPatch.context() as mp:
        _patch_reduction(mp, lambda at, value, done: vec_add(value, shift) if at == at_i else value)
        _raises_for_block(system, K, blocks, b)


@settings(max_examples=60, deadline=None)
@given(towers(), st.data())
def test_colliding_reduced_labels_are_refused(case, data):
    system, K, blocks = case
    N = system.prime**K
    new = _new_blocks(system, K, blocks)
    b = data.draw(st.sampled_from(new), label="block")
    i = data.draw(st.integers(1, N - 1), label="label")
    j = data.draw(st.integers(0, i - 1), label="copied")
    start = new.index(b) * N
    with pytest.MonkeyPatch.context() as mp:
        _patch_reduction(mp, lambda at, value, done: done[start + j] if at == start + i else value)
        _raises_for_block(system, K, blocks, b)


@settings(max_examples=60, deadline=None)
@given(towers(), st.data())
def test_tower_labels_congruent_mod_the_lattice_are_refused_as_a_collision(case, data):
    # label i moved into label j's class mod R~^t Z^n passes the congruence
    # check, so only the collision check after the reduction can refuse it
    system, K, blocks = case
    N = system.prime**K
    new = _new_blocks(system, K, blocks)  # tower_arrays is called once per new block, in order
    b = data.draw(st.sampled_from(new), label="block")
    i = data.draw(st.integers(1, N - 1), label="label")
    j = data.draw(st.integers(0, i - 1), label="copied")
    original = builder.tower_arrays
    calls = itertools.count()

    def corrupt(pairs):
        matrix, digits, labels = original(pairs)
        if next(calls) != new.index(b):
            return matrix, digits, labels
        labels = labels.astype(object)
        labels[i] = labels[j] + np.array(matrix.transpose().mul_vec((1,) + (0,) * (system.dimension - 1)), dtype=object)
        return matrix, digits, labels

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "tower_arrays", corrupt)
        exc = _raises_for_block(system, K, blocks, b)
    assert str(exc) == f"block {b}: label tower collided after reduction"


@settings(max_examples=60, deadline=None)
@given(towers(), st.data())
def test_tower_arrays_match_the_tuple_oracle(case, data):
    # the arrays that build_blocks keeps are the oracle's tuples row for row, int64 below 2^53 and
    # Python ints past it; tower_arrays leaves a repeated tower label to build_blocks' check after
    # the reduction
    system, K, _ = case
    scale = data.draw(st.sampled_from((1, 2**60)), label="scale")
    levels = [builder._level_pair(system, k, 0) for k in range(1, K + 1)]
    levels = [replace(p, labels=tuple(tuple(scale * x for x in v) for v in p.labels)) for p in levels]
    if data.draw(st.booleans(), label="repeat a label"):
        k = data.draw(st.integers(0, K - 1), label="level")
        i = data.draw(st.integers(1, system.prime - 1), label="label")
        labels = list(levels[k].labels)
        labels[i] = labels[data.draw(st.integers(0, i - 1), label="copied")]
        levels[k] = replace(levels[k], labels=tuple(labels))
    expected = ref_tower(levels)
    if expected is None:
        labels = tower_arrays(levels)[2]
        assert first_repeated_row(labels) < len(labels)
        return
    matrix, digits, labels = tower_arrays(levels)
    assert digits.dtype == np.int64 and labels.dtype == (object if scale > 1 else np.int64)
    assert (matrix, row_tuples(digits), row_tuples(labels)) == expected
    assert all(type(x) is int for v in row_tuples(digits) + row_tuples(labels) for x in v)


@st.composite
def reductions(draw):
    """A nonsingular integer R~ (n = 1..3, entries in [-6, 6]) and labels with entries up to 50 * scale."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-6, 6)
    mat = Matrix(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))
    assume(mat.det() != 0)
    scale = draw(st.sampled_from((1, 2**60)))
    coord = st.integers(-50 * scale, 50 * scale)
    return mat, draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=20))


@given(reductions())
@example((Matrix(((3**41,),)), [(5,), (-7,), (2**40,)]))  # den = 3^41 is past int64, y = labels w^t is not
def test_array_reduction_matches_per_vector_oracle(case):
    mat, labels = case
    rt_inv = mat.transpose().inverse()
    r, w = np.array(mat.num, dtype=object), np.array(rt_inv.num, dtype=object)
    reduced = builder._reduce_into_fundamental_domain(np.array(labels, dtype=object), r, w, rt_inv.den)
    got = list(map(tuple, reduced.tolist()))
    assert got == [ref_reduce(v, mat) for v in labels]
    assert all(type(x) is int for v in got for x in v)
    assert builder._reduce_into_fundamental_domain(reduced, r, w, rt_inv.den).tolist() == reduced.tolist()
    for v, red in zip(labels, got):
        assert all(Fraction(x).denominator == 1 for x in rt_inv.mul_vec(tuple(a - b for a, b in zip(v, red))))
        assert all(Fraction(-1, 2) < c <= Fraction(1, 2) for c in rt_inv.mul_vec(red))

"""Property tests: the spectrum containment check against the per-element
Fraction oracle ref_containment on random small towers (m in {3, 5},
n <= 3), with and without a label moved off its fundamental domain, in
int64 and, with the int64 limit lowered, in Python ints; and the collision
check against the set oracle ref_collision on hand-built blocks with
repeated labels, in int64 and, with labels past 2^53, in Python ints, and
on blocks below the top whose matrix is singular."""
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import ref_collision, ref_containment  # noqa: E402
from test_block_certificate_properties import towers, vec_add  # noqa: E402

from moranspec import builder, exact  # noqa: E402
from moranspec.errors import CollisionDetected, ContainmentViolation  # noqa: E402
from moranspec.exact import Matrix  # noqa: E402
from moranspec.pairs import CompatiblePair  # noqa: E402
from moranspec.system import build_system  # noqa: E402


def shift_labels(decomp, b: int, indices):
    """Move the given labels of block b by +-R~^t e_1, each away from the nearer face of its domain.

    The image of each under (R~^t)^-1 then has a first coordinate of size at
    least 1, so level b's element C_b times that label lies outside the box.
    """
    block = decomp.blocks[b]
    rt = block.matrix.transpose()
    labels = list(block.labels)
    for i in indices:
        sign = 1 if rt.inverse().mul_vec(labels[i])[0] >= 0 else -1
        labels[i] = vec_add(labels[i], rt.mul_vec((sign,) + (0,) * (decomp.system.dimension - 1)))
    return replace(decomp, blocks=decomp.blocks[:b] + (replace(block, labels=tuple(labels)),) + decomp.blocks[b + 1 :])


def containment_message(decomp, upto: int):
    try:
        levels = builder.spectrum_levels(decomp, upto, enforce_containment=True)
    except ContainmentViolation as exc:
        return str(exc)
    assert all(lvl.containment_checked for lvl in levels)
    return None


@pytest.mark.parametrize("limit", [None, 2**12, 1])
@settings(max_examples=40, deadline=None)
@given(towers(), st.data())
def test_containment_matches_fraction_oracle(limit, case, data):
    # limit 1 runs every level in Python ints, 2**12 switches between the two
    system, K, blocks = case
    decomp = builder.build_blocks(system, K=K, blocks=blocks)
    shifted = data.draw(st.booleans(), label="shifted")
    if shifted:
        b = data.draw(st.integers(0, blocks - 1), label="block")
        # two moved labels put two elements outside at level b, and the first one must be named
        indices = data.draw(st.sets(st.integers(1, system.prime**K - 1), min_size=1, max_size=2), label="labels")
        decomp = shift_labels(decomp, b, indices)
    expected = ref_containment(decomp, blocks - 1)
    assert expected is not None or not shifted
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(exact, "INT64_LIMIT", limit)
        assert containment_message(decomp, blocks - 1) == expected


# R = 3I with the digits {0, e_1, 2 e_1}, in dimensions 1 to 3: the collision check reads only n and m
AXIS_SYSTEMS = {
    n: build_system(n, 3, [], [((3 * np.eye(n, dtype=int)).tolist(), [(k,) + (0,) * (n - 1) for k in range(3)])])
    for n in (1, 2, 3)
}


@st.composite
def colliding_blocks(draw):
    """A hand-built decomposition of 1 to 3 blocks in dimension 1 to 3, whose sums often repeat.

    Small labels and matrices make sums across blocks meet, and one drawn
    block may repeat one of its labels. Only the labels and the matrices are
    read: the collision check is run without containment.
    """
    n = draw(st.integers(1, 3), label="n")
    scale = draw(st.sampled_from([1, 2**60]), label="scale")
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    count = draw(st.integers(1, 3), label="blocks")
    repeat_in = draw(st.integers(-1, count - 1), label="block repeating a label")  # -1: none
    blocks = []
    for b in range(count):
        rows = draw(st.lists(vec, min_size=n, max_size=n))
        labels = [(0,) * n, *draw(st.lists(vec.filter(any), min_size=1, max_size=3, unique=True))]
        if b == repeat_in:
            labels.append(labels[draw(st.integers(0, len(labels) - 1))])
        labels = tuple(tuple(scale * x for x in v) for v in labels)
        blocks.append(CompatiblePair(matrix=Matrix.from_rows(rows), digits=(), labels=labels))
    return builder.BlockDecomposition(system=AXIS_SYSTEMS[n], K=1, blocks=tuple(blocks), certified_K=1)


def singular_below_the_top(top_label):
    """Block 0 with the singular R~_0 = [[1, 2], [2, 4]] under a top block with labels 0 and ``top_label``.

    R~_0 has no inverse, so the collision certificate cannot reduce mod
    R~_0^t Z^n. R~_0^t (2, -1) = 0 makes level 1 repeat a sum; (0, 1) does not.
    """
    blocks = (
        CompatiblePair(matrix=Matrix.from_rows([[1, 2], [2, 4]]), digits=(), labels=((0, 0), (1, 0))),
        CompatiblePair(matrix=Matrix.identity(2), digits=(), labels=((0, 0), top_label)),
    )
    return builder.BlockDecomposition(system=AXIS_SYSTEMS[2], K=1, blocks=blocks, certified_K=1)


def huge_lattice_below_the_top():
    """Block 0 with R~_0 = [[3^41]], past int64, and labels 0 and 1: y = L_0 W_0^t fits int64, but its residues mod 3^41 must be taken in Python ints."""
    blocks = (
        CompatiblePair(matrix=Matrix(((3**41,),)), digits=(), labels=((0,), (1,))),
        CompatiblePair(matrix=Matrix.identity(1), digits=(), labels=((0,), (1,))),
    )
    return builder.BlockDecomposition(system=AXIS_SYSTEMS[1], K=1, blocks=blocks, certified_K=1)


@settings(max_examples=150, deadline=None)
@given(colliding_blocks())
@example(singular_below_the_top((0, 1)))
@example(singular_below_the_top((2, -1)))
@example(huge_lattice_below_the_top())
def test_collision_matches_set_oracle(decomp):
    upto = len(decomp.blocks) - 1
    try:
        builder.spectrum_levels(decomp, upto, enforce_containment=False)
        got = None
    except CollisionDetected as exc:
        got = str(exc)
    assert got == ref_collision(decomp, upto)

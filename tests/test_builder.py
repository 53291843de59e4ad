import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import SIERPINSKI, STAIRCASE, ref_collision, ref_containment, ref_transform
from moranspec import builder
from moranspec.builder import (
    LEVEL_CAP,
    build_blocks,
    check_level_cap,
    certified_block_size,
    choose_block_size,
    find_admissible_direction,
    normalize_first_level,
    spectrum_levels,
)
from moranspec.errors import (
    CapExceeded,
    CollisionDetected,
    ContainmentViolation,
    NoAdmissibleDirection,
    ValidationFailure,
)
from moranspec.exact import Matrix
from moranspec.pairs import is_compatible_pair
from moranspec.specfile import load_system
from moranspec.system import build_system


def sierpinski_3i():
    level = ([[3, 0], [0, 3]], SIERPINSKI.digits)
    return build_system(2, 3, [], [level], r="1/3")


def staircase_system(cycle_diag=(10, 5)):
    first = ([[5, 0], [0, 5]], STAIRCASE.digits)
    rep = ([list(r) for r in ((cycle_diag[0], 0), (0, cycle_diag[1]))], STAIRCASE.digits)
    return build_system(2, 5, [first], [rep], r="1/5")


def test_normalize_identity_case():
    sys3 = sierpinski_3i()
    normalized, back = normalize_first_level(sys3)
    assert normalized is sys3
    assert back == Matrix.identity(2)


def test_normalize_nine_to_three():
    sys9 = build_system(2, 3, [], [([[9, 0], [0, 3 * 3]], SIERPINSKI.digits)], r="1/3")
    normalized, back = normalize_first_level(sys9)
    assert normalized.level(1).matrix == Matrix.diagonal([3, 3])
    assert normalized.level(2).matrix == Matrix.diagonal([9, 9])
    # back = (9 I)^t / 3 = 3 I, the inverse of forward = 3 (9 I)^-t = (1/3) I
    assert back.rows == ((3, 0), (0, 3))
    assert back.inverse().rows == ((Fraction(1, 3), 0), (0, Fraction(1, 3)))
    assert back != Matrix.identity(2)


def test_normalize_preserves_transform_values():
    # The transformed measure composed with the recorded map has the same
    # truncated transform as the original at random rational points.
    sys9 = build_system(2, 3, [], [([[9, 0], [0, 9]], SIERPINSKI.digits)], r="1/3")
    normalized, back = normalize_first_level(sys9)
    forward = back.inverse()
    rng = random.Random(5)
    for _ in range(10):
        xi = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(2))
        eta = forward.mul_vec(xi)
        a = ref_transform(sys9, xi, 6)
        b = ref_transform(normalized, eta, 6)
        assert a == pytest.approx(b, abs=1e-12)


def test_admissible_direction_examples():
    sys_good = staircase_system((10, 5))
    assert find_admissible_direction(sys_good, 2) == 0  # direction (1,1)
    sys_bad = staircase_system((6, 5))
    assert find_admissible_direction(sys_bad, 2) is None
    sys3 = sierpinski_3i()
    assert find_admissible_direction(sys3, 1) == 0


def test_block_size_formula_closed_form():
    # n=2, r=1/3, c=1. With s=1 (Sierpinski digits) the warmup needs
    # 2*pi*s*(3*sqrt(2)/2)*(1/3)^M <= 1/2, first true at M=3, and the
    # geometric tail (sqrt(2)/2)*3^-K/(1-3^-K) <= 1/32 already at K=3.
    assert certified_block_size(sierpinski_3i()) == 3
    assert math.sqrt(2) / 2 * 3.0**-3 / (1 - 3.0**-3) <= 1 / 32
    assert 2 * math.pi * 1.0 * (3 * math.sqrt(2) / 2) * (1 / 3) ** 3 <= 0.5
    assert 2 * math.pi * 1.0 * (3 * math.sqrt(2) / 2) * (1 / 3) ** 2 > 0.5


def test_block_size_with_larger_digit_norm():
    # Same closed form with s = sqrt(2): the warmup constant becomes 6*pi,
    # pushing M (and with it K) to 4 even though the tail bound alone
    # would already hold at K=3.
    sys_s2 = build_system(
        2, 3, [], [([[3, 0], [0, 3]], [(0, 0), (1, 0), (1, 1)])], r="1/3"
    )
    assert sys_s2.digit_norm_bound() == pytest.approx(math.sqrt(2), rel=1e-9)
    assert certified_block_size(sys_s2) == 4
    assert math.sqrt(2) / 2 * 3.0**-3 / (1 - 3.0**-3) <= 1 / 32


def test_block_size_monotone_in_delta():
    base = sierpinski_3i()
    smaller = build_system(2, 3, [], [([[3, 0], [0, 3]], SIERPINSKI.digits)], r="1/3", delta="1/100")
    assert certified_block_size(smaller) >= certified_block_size(base)


def test_choose_block_size_requires_admissible_directions():
    sys_bad = staircase_system((6, 5))
    with pytest.raises(NoAdmissibleDirection) as err:
        choose_block_size(sys_bad)
    assert err.value.level == 2


def test_build_blocks_sierpinski_k1():
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=2)
    block = decomp.blocks[0]
    assert block.labels[0] == (0, 0)
    assert set(block.labels) == {(0, 0), (1, -1), (-1, 1)}
    assert set(block.digits) == set(SIERPINSKI.digits)
    ok, _ = is_compatible_pair(block.matrix, block.digits, block.labels)
    assert ok
    assert not decomp.meets_certified_bound


def test_build_blocks_first_level_already_reduced():
    # R_1 = m I makes C/m sit inside (-1/2,1/2]^n, so L_0 is C itself.
    decomp = build_blocks(staircase_system(), K=1, blocks=1)
    assert set(decomp.blocks[0].labels) == {(0, 0), (1, 1), (2, 2), (-2, -2), (-1, -1)}


def test_build_blocks_cardinality():
    decomp = build_blocks(sierpinski_3i(), K=2, blocks=2)
    for block in decomp.blocks:
        assert len(block.digits) == 9
        assert len(block.labels) == 9


def test_spectrum_level_zero_is_first_block_labels():
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=1)
    lvl = spectrum_levels(decomp, 0)[0]
    assert set(lvl.elements) == set(decomp.blocks[0].labels)


def test_spectrum_levels_nested_and_distinct():
    decomp = build_blocks(sierpinski_3i(), K=2, blocks=3)
    levels = spectrum_levels(decomp, 2)
    sizes = [lvl.size for lvl in levels]
    assert sizes == [9, 81, 729]
    for small, big in zip(levels, levels[1:]):
        assert big.elements[: small.size] == small.elements
        assert set(small.elements) <= set(big.elements)
    for lvl in levels:
        assert lvl.elements[0] == (0, 0)
        assert len(set(lvl.elements)) == lvl.size


def with_labels(decomp, *labels, scale=1):
    """The decomposition with block b's labels replaced by labels[b], every coordinate times ``scale``."""
    blocks = (replace(b, labels=tuple(tuple(scale * x for x in v) for v in lab)) for b, lab in zip(decomp.blocks, labels))
    return replace(decomp, blocks=tuple(blocks))


@pytest.mark.parametrize("scale", [1, 2**60])
def test_collision_names_the_first_level_whose_sums_repeat(scale):
    # R~_0^t = 3I shifts the block-1 label (1,-1) onto the block-0 label (3,-3):
    # rows 2 and 3 of level 1 are both (3,-3), so level 1 is named, not the top level 2
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=3)
    tail = ((0, 0), (1, -1), (-1, 1))
    bad = with_labels(decomp, ((0, 0), (1, -1), (3, -3)), tail, tail, scale=scale)
    level0 = spectrum_levels(bad, 0, enforce_containment=False)[0]
    assert level0.nums.dtype == (object if scale > 1 else np.int64)
    assert level0.elements == ((0, 0), (scale, -scale), (3 * scale, -3 * scale))
    with pytest.raises(CollisionDetected, match=r"^level 1 sums are not pairwise distinct$"):
        spectrum_levels(bad, 2, enforce_containment=False)


@pytest.mark.parametrize("scale", [1, 2**60])
def test_collision_in_the_first_block_names_level_0(scale):
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=2)
    bad = with_labels(decomp, ((0, 0), (1, -1), (1, -1)), decomp.blocks[1].labels, scale=scale)
    with pytest.raises(CollisionDetected, match=r"^level 0 sums are not pairwise distinct$"):
        spectrum_levels(bad, 1, enforce_containment=False)


def test_spectrum_levels_are_read_only_prefix_views_without_tuples():
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=3)
    levels = spectrum_levels(decomp, 2, enforce_containment=True)
    top = levels[-1].nums
    for level in levels:
        assert "elements" not in vars(level)
        assert level.nums.flags.writeable is False
        assert np.shares_memory(level.nums, top) and np.array_equal(level.nums, top[: level.size])
    for level in levels:
        assert level.elements == tuple(map(tuple, level.nums.tolist()))


def test_spectrum_containment_with_certified_block_size():
    system = sierpinski_3i()
    decomp = build_blocks(system, blocks=4)  # K = 3 certified
    assert decomp.meets_certified_bound
    levels = spectrum_levels(decomp, 3, cap=10**6)
    assert [lvl.size for lvl in levels] == [27, 729, 19683, 531441]
    assert all(lvl.containment_checked for lvl in levels)


def test_spectrum_containment_violation_detected():
    # Labels congruent mod R~^t but outside the fundamental domain must trip
    # the exact containment check: (4,-1) and (-4,1) are (1,-1) and (-1,1)
    # shifted by 3*(1,0) and -3*(1,0); the first one in prefix order is named.
    system = sierpinski_3i()
    good = build_blocks(system, K=1, blocks=1)
    bad_block = replace(good.blocks[0], labels=((0, 0), (4, -1), (-4, 1)))
    bad = replace(good, blocks=(bad_block,))
    with pytest.raises(ContainmentViolation) as err:
        spectrum_levels(bad, 0, enforce_containment=True)
    assert str(err.value) == "level 0: element (4, -1) maps to ('4/3', '-1/3') outside the box"


def test_spectrum_containment_box_is_closed():
    # delta = 2/9 makes the box 1/2 + delta/4 = 5/9, so under (9I)^-1 the
    # label (5,-1) maps onto its face, which is inside, and (6,-1) past it
    system = build_system(2, 3, [], [([[9, 0], [0, 9]], SIERPINSKI.digits)], r="1/3", delta="2/9")
    decomp = build_blocks(system, K=1, blocks=1)
    face = replace(decomp, blocks=(replace(decomp.blocks[0], labels=((0, 0), (5, -1), (-5, 1))),))
    assert spectrum_levels(face, 0, enforce_containment=True)[0].containment_checked
    past = replace(decomp, blocks=(replace(decomp.blocks[0], labels=((0, 0), (-5, 1), (6, -1))),))
    with pytest.raises(ContainmentViolation) as err:
        spectrum_levels(past, 0, enforce_containment=True)
    assert str(err.value) == "level 0: element (6, -1) maps to ('2/3', '-1/9') outside the box"


def test_spectrum_containment_holds_even_at_small_k_for_diagonal_system():
    # For R = 3I the rescaled levels converge inside [-1/2, 1/2]^2, so even
    # the uncertified K=1 build satisfies the padded box exactly.
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=3)
    levels = spectrum_levels(decomp, 2, enforce_containment=True)
    assert all(lvl.containment_checked for lvl in levels)


def test_spectrum_cap():
    decomp = build_blocks(sierpinski_3i(), K=3, blocks=4)
    with pytest.raises(CapExceeded):
        spectrum_levels(decomp, 3, cap=1000)


def test_fundamental_domain_reduction_idempotent_and_congruent():
    from moranspec.builder import _reduce_into_fundamental_domain

    rng = random.Random(77)
    mat = Matrix.from_rows([[3, 1], [0, 3]])
    rt_inv = mat.transpose().inverse()
    r, w = np.array(mat.num, dtype=object), np.array(rt_inv.num, dtype=object)
    vs = np.array([(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(50)], dtype=object)
    red = _reduce_into_fundamental_domain(vs, r, w, rt_inv.den)
    again = _reduce_into_fundamental_domain(red, r, w, rt_inv.den)
    assert red.tolist() == again.tolist()
    for v, red_v in zip(vs.tolist(), red.tolist()):
        quot = rt_inv.mul_vec(tuple(a - b for a, b in zip(v, red_v)))
        assert all(x.denominator == 1 for x in quot)
        y = rt_inv.mul_vec(red_v)
        assert all(Fraction(-1, 2) < c <= Fraction(1, 2) for c in y)


def test_normalized_spectrum_pulls_back_to_orthogonal_set():
    from moranspec.analyzer import verify_orthogonality

    sys9 = build_system(2, 3, [], [([[9, 0], [0, 9]], SIERPINSKI.digits)], r="1/3")
    normalized, back = normalize_first_level(sys9)
    decomp = build_blocks(normalized, K=1, blocks=2)
    levels = spectrum_levels(decomp, 1, enforce_containment=False)
    pulled = []
    for lam in levels[1].elements:
        image = back.mul_vec(lam)
        assert all(v.denominator == 1 for v in image)
        pulled.append(tuple(int(v) for v in image))
    report = verify_orthogonality(sys9, pulled)
    assert report.passed


def test_build_blocks_staircase_certified_block():
    # One block at the certified K = 3: 125 labels whose inner products have
    # denominators 50, 250 and 500, so the exact test runs over two primes.
    from test_pairs import gram_defect

    system, _ = normalize_first_level(load_system(Path(__file__).parent / "fixtures" / "staircase_spectral.json"))
    block = build_blocks(system, K=3, blocks=1).blocks[0]
    assert len(block.labels) == 125
    assert gram_defect(block.matrix, block.digits, block.labels) < 1e-9


def test_spectrum_levels_rejects_blocks_whose_first_label_is_not_zero():
    # the same label sets, but each later block's nonzero first label would shift every element of the earlier levels
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=2)
    rotated = tuple(replace(b, labels=b.labels[1:] + b.labels[:1]) for b in decomp.blocks)
    with pytest.raises(ValueError, match="first label must be 0"):
        spectrum_levels(replace(decomp, blocks=rotated), 1, enforce_containment=False)


@pytest.mark.parametrize("K, blocks", [(0, 1), (-1, 2), (1, 0), (None, 0)])
def test_build_blocks_rejects_empty_sizes(K, blocks):
    with pytest.raises(ValidationFailure) as err:
        build_blocks(sierpinski_3i(), K=K, blocks=blocks)
    assert err.value.code == "params"


# digests of the first 16 hex digits of SHA-256: each block's labels (their
# repr) and the top level's int64 numerator bytes, three blocks at the
# certified K, the top level the largest one of at most 20,000 elements
BLOCK_DIGESTS = {
    "sierpinski_3i": (3, 2, ("f319b58b30599777", "f319b58b30599777", "f319b58b30599777"), "c926de4adea11a17"),
    "sierpinski_9i": (3, 2, ("1911b8ebb384ef20", "0e90098d00a0bebd", "0e90098d00a0bebd"), "ac54c7cf3d2f9829"),
    "staircase_spectral": (3, 1, ("567737662e6dab77", "5440916492f43e36", "5440916492f43e36"), "2299da9b438a155f"),
    "square_plus_b1": (3, 1, ("977cc75b3252efeb", "977cc75b3252efeb", "977cc75b3252efeb"), "6144f972c4cd526b"),
    "banded_spectral": (9, 0, ("b60f26e6cf5e60ea", "0874c5be11055406", "6fa4d195a9d46994"), "81cdef3c21579017"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(BLOCK_DIGESTS))
def test_blocks_and_top_level_match_pinned_digests_at_certified_k(name):
    K, top, labels, nums = BLOCK_DIGESTS[name]
    system, _ = normalize_first_level(load_system(Path(__file__).parent / "fixtures" / f"{name}.json"))
    decomp = build_blocks(system, blocks=3)
    assert decomp.K == decomp.certified_K == K
    assert tuple(_digest(repr(block.labels).encode()) for block in decomp.blocks) == labels
    assert all(type(x) is int for block in decomp.blocks for label in block.labels for x in label)
    level = spectrum_levels(decomp, top)[-1]
    assert level.nums.dtype == np.int64 and level.size == system.prime ** (K * (top + 1))
    assert _digest(level.nums.tobytes()) == nums


def test_level_cap_admits_the_m5_examples_at_certified_k():
    check_level_cap(5, 3, 2, LEVEL_CAP)  # 5^9 = 1,953,125 elements
    with pytest.raises(CapExceeded, match="cap is 2000000"):
        check_level_cap(3, 9, 2, LEVEL_CAP)  # 3^27


def _recording_sorts(monkeypatch):
    """Patch builder.first_repeated_row to record every array it sorts; returns that list."""
    sorted_rows, original = [], builder.first_repeated_row

    def recording(rows):
        sorted_rows.append(rows)
        return original(rows)

    monkeypatch.setattr(builder, "first_repeated_row", recording)
    return sorted_rows


def _refuse_row_wide_containment(monkeypatch):
    def refuse(k, *args):
        raise AssertionError(f"level {k}: the row-wide containment check ran")

    monkeypatch.setattr(builder, "_check_containment", refuse)


@pytest.mark.parametrize("name", sorted(BLOCK_DIGESTS))
def test_certified_levels_never_reach_the_row_wide_fallbacks(name, monkeypatch):
    # the block certificates decide every level of the spectral fixtures at their certified K:
    # no sort of a level's rows, and no containment check row by row
    K, top, _, _ = BLOCK_DIGESTS[name]
    system, _ = normalize_first_level(load_system(Path(__file__).parent / "fixtures" / f"{name}.json"))
    decomp = build_blocks(system, blocks=top + 1)
    sorted_rows = _recording_sorts(monkeypatch)
    _refuse_row_wide_containment(monkeypatch)
    levels = spectrum_levels(decomp, top)
    assert all(level.containment_checked for level in levels)
    assert len(sorted_rows) == top + 1
    assert not any(np.shares_memory(rows, levels[-1].nums) for rows in sorted_rows)


def test_box_certificate_admits_a_sum_on_the_face_and_refuses_one_unit_past(monkeypatch):
    # R~ = 9I and delta = 2/9 make the box 5/9, so level 1 (den 81) has lim 45. Block 1's first
    # coordinates reach +-5, so level 1's first coordinates reach exactly +-45 = 9 * 5 + 0
    system = build_system(2, 3, [], [([[9, 0], [0, 9]], SIERPINSKI.digits)], r="1/3", delta="2/9")
    decomp = build_blocks(system, K=1, blocks=2)
    top = ((0, 0), (5, -1), (-5, 1))
    face = with_labels(decomp, ((0, 0), (0, 1), (0, -1)), top)
    with pytest.MonkeyPatch.context() as mp:
        _refuse_row_wide_containment(mp)
        assert all(level.containment_checked for level in spectrum_levels(face, 1, enforce_containment=True))
    assert ref_containment(face, 1) is None
    # a first coordinate of 1 in block 0 puts (1, 1) + 9 * (5, -1) = (46, -8) one unit past the face
    past = with_labels(decomp, ((0, 0), (1, 1), (0, -1)), top)
    expected = "level 1: element (46, -8) maps to ('46/81', '-8/81') outside the box"
    assert ref_containment(past, 1) == expected
    with pytest.raises(ContainmentViolation) as err:
        spectrum_levels(past, 1, enforce_containment=True)
    assert str(err.value) == expected


def test_block_not_distinct_mod_its_lattice_with_distinct_sums_builds(monkeypatch):
    # (0, 0) and (3, 0) of block 0 agree mod R~_0^t Z^2 = 3Z^2, so the collision certificate
    # fails; the sort of level 1's nine rows then finds its sums distinct
    decomp = build_blocks(sierpinski_3i(), K=1, blocks=2)
    odd = with_labels(decomp, ((0, 0), (3, 0), (1, -1)), ((0, 0), (1, -1), (-1, 1)))
    assert ref_collision(odd, 1) is None
    sorted_rows = _recording_sorts(monkeypatch)
    levels = spectrum_levels(odd, 1, enforce_containment=False)
    assert levels[1].elements == ((0, 0), (3, 0), (1, -1), (3, -3), (6, -3), (4, -4), (-3, 3), (0, 3), (-2, 2))
    assert np.shares_memory(sorted_rows[-1], levels[-1].nums)

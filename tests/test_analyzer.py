import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import SIERPINSKI, STAIRCASE, ref_transform
from moranspec.analyzer import (
    completeness_scan,
    find_zero_level,
    transform_batch_multi,
    verify_orthogonality,
)
from moranspec.builder import SpectrumLevel, build_blocks, spectrum_levels
from moranspec.errors import DimensionMismatch
from moranspec.system import build_system


def sierpinski_3i():
    return build_system(2, 3, [], [([[3, 0], [0, 3]], SIERPINSKI.digits)], r="1/3")


def staircase_system():
    first = ([[5, 0], [0, 5]], STAIRCASE.digits)
    rep = ([[10, 0], [0, 5]], STAIRCASE.digits)
    return build_system(2, 5, [first], [rep], r="1/5")


def test_transform_at_origin():
    vals = transform_batch_multi(sierpinski_3i(), np.zeros((1, 2), dtype=np.int64), [(0.0, 0.0)], 5)
    assert vals[0, 0] == pytest.approx(1.0)


def test_transform_exact_zero_at_level_two():
    # (3,6)/3 = (1,2) is an integer point (factor 1 by periodicity);
    # (3,6)/9 = (1/3, 2/3) kills the second factor exactly.
    system = sierpinski_3i()
    assert find_zero_level(system, (3, 6)) == 2
    assert abs(transform_batch_multi(system, np.array([(3, 6)]), [(0.0, 0.0)], 4)[0, 0]) < 1e-12


def test_transform_batch_matches_pointwise():
    system = staircase_system()
    rng = random.Random(12)
    offsets = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(12)]
    base = (0.37, 0.81)
    vals = transform_batch_multi(system, np.array(offsets), [base], 5)[0]
    for off, got in zip(offsets, vals):
        point = (base[0] + off[0], base[1] + off[1])
        want = ref_transform(system, point, 5)
        assert got == pytest.approx(want, abs=1e-10)


def test_find_zero_level_examples():
    system = sierpinski_3i()
    assert find_zero_level(system, (1, 2)) == 1
    assert find_zero_level(system, (1, 1)) is None
    assert find_zero_level(system, (3, 6)) == 2
    with pytest.raises(ValueError):
        find_zero_level(system, (0, 0))


def test_find_zero_level_rational_points():
    # (1/3, 2/3) zeroes the mask itself, but the level-1 transform factor
    # is the mask at (R_1^t)^-1 xi, so the transform zero set is the
    # dilated copy 3 Z(m_D) and the raw mask zero is not in it.
    system = sierpinski_3i()
    assert find_zero_level(system, (Fraction(1, 3), Fraction(2, 3))) is None
    assert abs(ref_transform(system, (Fraction(1, 3), Fraction(2, 3)), 10)) > 0.01
    assert find_zero_level(system, (Fraction(1, 9), Fraction(1, 9))) is None
    assert find_zero_level(system, (Fraction(3), Fraction(6))) == 2


def test_zero_level_implies_exact_zero_factor():
    system = staircase_system()
    rng = random.Random(31)
    hits = 0
    for _ in range(200):
        point = (rng.randint(-60, 60), rng.randint(-60, 60))
        if point == (0, 0):
            continue
        lvl = find_zero_level(system, point)
        if lvl is not None:
            hits += 1
            assert abs(ref_transform(system, point, max(lvl, 3))) < 1e-12
    assert hits > 20


def test_find_zero_level_no_late_match_beyond_termination():
    # Extend the search five levels past the certified stopping point and
    # confirm nothing turns up (brute-force equivalence of the stop rule).
    system = sierpinski_3i()
    m = system.prime
    rng = random.Random(8)
    for _ in range(100):
        point = (Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50)))
        if all(c == 0 for c in point):
            continue
        lvl = find_zero_level(system, point)
        if lvl is not None:
            continue
        eta = tuple(point)
        k = 0
        # replay the iteration past the stopping norm and keep testing
        stopped_at = None
        for k in range(1, 40):
            level = system.level(k)
            eta = tuple(e / 3 for e in eta)
            if stopped_at is None and sum(c * c for c in eta) * m * m < 1:
                stopped_at = k
            scaled = tuple(m * c for c in eta)
            if all(x.denominator == 1 for x in scaled):
                res = tuple(int(x) % m for x in scaled)
                assert level.zeros.residue_table.get(res) is None
            if stopped_at is not None and k >= stopped_at + 5:
                break


def test_verify_orthogonality_spectrum_level():
    system = sierpinski_3i()
    decomp = build_blocks(system, K=1, blocks=2)
    levels = spectrum_levels(decomp, 1, enforce_containment=False)
    report = verify_orthogonality(system, levels[1].elements)
    assert report.passed
    assert report.details["points"] == 9
    assert not report.witnesses


def test_verify_orthogonality_detects_failure():
    system = sierpinski_3i()
    report = verify_orthogonality(system, [(0, 0), (1, 1)])
    assert not report.passed
    assert len(report.witnesses) == 1
    pair = report.witnesses[0]
    assert set(pair[:2]) == {(0, 0), (1, 1)}


def test_verify_orthogonality_singleton():
    report = verify_orthogonality(sierpinski_3i(), [(0, 0)])
    assert report.passed and not report.witnesses


def test_bessel_bound_on_verified_family():
    # Any orthogonality-verified finite family satisfies Q <= 1 + numeric slack.
    system = sierpinski_3i()
    decomp = build_blocks(system, K=1, blocks=2)
    levels = spectrum_levels(decomp, 1, enforce_containment=False)
    elements = np.array(levels[1].elements, dtype=np.int64)
    rng = np.random.default_rng(3)
    for _ in range(5):
        xi = rng.random(2)
        for depth in (4, 8, 12):
            vals = transform_batch_multi(system, elements, [xi], depth)[0]
            assert float(np.sum(np.abs(vals) ** 2)) <= 1.0 + 1e-9


def test_finite_level_identity_small():
    system = sierpinski_3i()
    decomp = build_blocks(system, K=2, blocks=3)
    levels = spectrum_levels(decomp, 2)
    for lvl in levels:
        details = completeness_scan(system, [lvl], grid=4, extra_points=5, seed=11).details
        assert max(details["final_gap"], details["max_q"] - 1) < 1e-10


def test_completeness_scan_reports_monotone_and_bounded():
    system = sierpinski_3i()
    decomp = build_blocks(system, K=2, blocks=3)
    levels = spectrum_levels(decomp, 2)
    report = completeness_scan(system, levels, grid=4, extra_points=4, seed=1)
    assert report.passed
    assert report.details["final_gap"] < 1e-9
    assert report.details["max_q"] <= 1 + report.details["numeric_allowance"]
    gaps = report.details["max_gap_per_level"]
    assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12


def test_completeness_scan_depth_below_product_length_rejected():
    system = sierpinski_3i()
    decomp = build_blocks(system, K=2, blocks=2)
    levels = spectrum_levels(decomp, 1)
    with pytest.raises(ValueError):
        completeness_scan(system, levels, grid=4, depth=3)


def test_completeness_scan_deeper_truncation_still_bounded():
    system = sierpinski_3i()
    decomp = build_blocks(system, K=1, blocks=2)
    levels = spectrum_levels(decomp, 1, enforce_containment=False)
    report = completeness_scan(system, levels, grid=4, depth=8, extra_points=4, seed=2)
    assert report.details["max_q"] <= 1 + report.details["numeric_allowance"]
    assert report.details["certified_tail"] < 0.2
    assert report.details["final_gap"] > 0  # genuine incompleteness at level 1


def test_deleted_element_leaves_visible_gap():
    # Removing one member of a finite spectrum drops its term from the
    # exact identity, so some grid point shows a gap equal to that term.
    system = sierpinski_3i()
    decomp = build_blocks(system, K=1, blocks=2)
    levels = spectrum_levels(decomp, 1, enforce_containment=False)
    depth = 2
    kept = np.array(levels[1].elements[1:], dtype=np.int64)  # drop 0
    worst = 0.0
    for xi in [np.array([a / 4, b / 4]) for a in range(4) for b in range(4)]:
        vals = transform_batch_multi(system, kept, [xi], depth)[0]
        q = float(np.sum(np.abs(vals) ** 2))
        assert q <= 1 + 1e-9
        worst = max(worst, 1.0 - q)
    assert worst > 1e-3


def test_added_element_gives_bound_witnesses_at_float_points():
    # One point beside a member of a finite spectrum adds a positive term to
    # the exact identity Q = 1, so some sample points exceed the bound Q <= 1.
    system = sierpinski_3i()
    levels = spectrum_levels(build_blocks(system, K=1, blocks=2), 1, enforce_containment=False)
    extra = (levels[1].elements[1][0] + 1, levels[1].elements[1][1])
    assert extra not in levels[1].elements
    padded = replace(levels[1], nums=np.vstack([levels[1].nums, [extra]]))
    report = completeness_scan(system, [levels[0], padded], grid=4, extra_points=4, seed=3)
    assert not report.passed
    bound = [w for w in report.witnesses if w[1] == "bound"]
    assert bound and all(w[2] == 1 and w[3] > 1 for w in bound)
    assert all(type(c) is float for w in report.witnesses for c in w[0])
    assert "np." not in str(report.witnesses[0][0])


def test_completeness_scan_reads_the_arrays_and_builds_no_tuples():
    system = sierpinski_3i()
    levels = spectrum_levels(build_blocks(system, K=1, blocks=3), 2, enforce_containment=False)
    assert completeness_scan(system, levels, grid=4, extra_points=2, seed=1).passed
    for level in levels:
        assert "elements" not in vars(level)
        assert level.nums.flags.writeable is False
        assert level.elements == tuple(map(tuple, level.nums.tolist()))


def test_completeness_scan_refuses_levels_of_two_decompositions():
    # the same label sets in another order: level 0 of one build is not a prefix of level 1 of the other
    system = sierpinski_3i()
    decomp = build_blocks(system, K=1, blocks=2)
    first = decomp.blocks[0]
    swapped = replace(decomp, blocks=(replace(first, labels=first.labels[:1] + first.labels[:0:-1]), decomp.blocks[1]))
    levels = spectrum_levels(decomp, 1, enforce_containment=False)
    other = spectrum_levels(swapped, 1, enforce_containment=False)
    assert sorted(other[0].elements) == sorted(levels[0].elements) and other[0].elements != levels[0].elements
    assert completeness_scan(system, [levels[0], levels[1]], grid=4, extra_points=0).passed
    with pytest.raises(ValueError, match="levels must be nested prefixes"):
        completeness_scan(system, [levels[0], other[1]], grid=4, extra_points=0)


def test_truncated_transform_float_input_path():
    # a float base point gives the transform at its exact binary value
    system = sierpinski_3i()
    got = transform_batch_multi(system, np.zeros((1, 2), dtype=np.int64), [(0.125, 0.625)], 6)[0, 0]
    assert got == pytest.approx(ref_transform(system, (Fraction(1, 8), Fraction(5, 8)), 6), abs=1e-12)
    assert abs(got) > 0.01


def test_float_point_on_a_zero_line_is_an_exact_zero():
    system = sierpinski_3i()
    assert find_zero_level(system, (1, 2)) == find_zero_level(system, (1.0, 2.0)) == 1
    assert find_zero_level(system, (0.5, 1.0)) is None


def test_transform_batch_reduces_phases_beyond_int64():
    # at depth 41 the level denominator 3^41 no longer fits int64, and at depth 700 3^700 is past
    # the largest float
    from moranspec.exact import INT64_LIMIT

    assert 3**41 > INT64_LIMIT
    with pytest.raises(OverflowError):
        float(3**700)
    system = sierpinski_3i()
    offsets = [(0, 0), (1, 2), (5, -7), (40, 13), (-243, 729)]
    base = (0.125, 0.625)
    for depth in (41, 700):
        vals = transform_batch_multi(system, np.array(offsets), [base], depth)[0]
        for off, got in zip(offsets, vals):
            want = ref_transform(system, (base[0] + off[0], base[1] + off[1]), depth)
            assert got == pytest.approx(want, abs=1e-12)


def test_no_late_match_on_nonconstant_diagonal_system():
    # Replay the iteration with the true level matrices (diag[10,5] cycle)
    # five levels past the stopping norm; no membership may appear.
    from moranspec.system import inverse_transpose

    system = staircase_system()
    m = system.prime
    rng = random.Random(19)
    for _ in range(60):
        point = (rng.randint(-200, 200), rng.randint(-200, 200))
        if point == (0, 0):
            continue
        lvl_hit = find_zero_level(system, point)
        if lvl_hit is not None:
            continue
        eta = tuple(Fraction(c) for c in point)
        stopped_at = None
        for k in range(1, 60):
            level = system.level(k)
            eta = inverse_transpose(level.matrix).mul_vec(eta)
            if stopped_at is None and sum(c * c for c in eta) * m * m < 1:
                stopped_at = k
            scaled = tuple(m * c for c in eta)
            if all(x.denominator == 1 for x in scaled):
                res = tuple(int(x) % m for x in scaled)
                assert level.zeros.residue_table.get(res) is None
            if stopped_at is not None and k >= stopped_at + 5:
                break


def test_transform_batch_memory_stays_below_root_table():
    # staircase_spectral at depth 7 has q = 5 * 10^6, so a table of all q
    # roots of unity would take 80 MB; the batch needs only m x P of them.
    import tracemalloc
    from pathlib import Path

    from moranspec.builder import normalize_first_level
    from moranspec.exact import Matrix
    from moranspec.specfile import load_system
    from moranspec.system import inverse_transpose

    system, _ = normalize_first_level(load_system(Path(__file__).parent / "fixtures" / "staircase_spectral.json"))
    levels = spectrum_levels(build_blocks(system, K=2, blocks=2), 1, enforce_containment=False)
    offsets = np.array(levels[-1].elements, dtype=np.int64)
    bases = [np.array(idx, dtype=float) / 8 for idx in np.ndindex(8, 8)]
    acc = Matrix.identity(2)
    for k in range(1, 8):
        acc = inverse_transpose(system.level(k).matrix).mul(acc)
    table_bytes = 16 * acc.den  # (R_1^t ... R_7^t)^-1 = num / den
    assert table_bytes >= 80e6
    tracemalloc.start()
    try:
        values = transform_batch_multi(system, offsets, bases, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (64, 625)
    assert peak < table_bytes / 5


def criterion_5_scan_levels():
    """sierpinski_3i at K = 3, levels 0..2: a top level of 19,683 offsets."""
    from pathlib import Path

    from moranspec.builder import normalize_first_level
    from moranspec.specfile import load_system

    system, _ = normalize_first_level(load_system(Path(__file__).parent / "fixtures" / "sierpinski_3i.json"))
    return system, spectrum_levels(build_blocks(system, K=3, blocks=3), 2)


def test_completeness_scan_memory_is_a_few_chunks():
    # 80 bases x 19,683 offsets: the complex (bases x offsets) matrix alone would take 25 MB
    import tracemalloc

    system, levels = criterion_5_scan_levels()
    tracemalloc.start()
    try:
        report = completeness_scan(system, levels, grid=8, depth=9, extra_points=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.details["sample_points"] == 80
    assert peak < 8 * 2**20


def test_transform_plans_build_each_root_table_in_one_array():
    # the kept root tables plus one run's summed phases; a temporary of a
    # table's full size on the way to its roots would pass the bound
    import tracemalloc
    from pathlib import Path

    from moranspec import analyzer
    from moranspec.builder import normalize_first_level
    from moranspec.specfile import load_system

    staircase, _ = normalize_first_level(load_system(Path(__file__).parent / "fixtures" / "staircase_spectral.json"))
    # 3 blocks of 27 rows (m = 3), and 2 blocks of 125 rows (m = 5)
    for system, levels in (criterion_5_scan_levels(), (staircase, spectrum_levels(build_blocks(staircase, K=3, blocks=2), 1))):
        top = levels[-1]
        blocks = analyzer._level_blocks(top.nums, system.prime**top.K)
        assert len(blocks) == top.index + 1
        tracemalloc.start()
        try:
            plans = analyzer._transform_plans(system, blocks, top.K * len(blocks))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        root_bytes = sum(roots.nbytes for _, _, roots in plans)
        assert plans[-1][2].shape == (system.prime, top.size)
        assert peak < 1.6 * root_bytes, (peak, root_bytes)


def test_completeness_scan_refuses_nan_sums():
    # a NaN sum is neither <= 1 + allowance nor within gap_tol of 1
    from unittest import mock

    from moranspec import analyzer

    system = sierpinski_3i()
    levels = spectrum_levels(build_blocks(system, K=1, blocks=2), 1, enforce_containment=False)
    real_chunks = analyzer._transform_chunks

    def one_chunk_with_nan(*args):
        vals = np.concatenate(list(real_chunks(*args)))
        vals[1, 0] = np.nan
        yield vals

    kwargs = dict(grid=4, extra_points=2, gap_tol=1e-3)
    assert completeness_scan(system, levels, **kwargs).passed
    with mock.patch.object(analyzer, "_transform_chunks", one_chunk_with_nan):
        report = completeness_scan(system, levels, **kwargs)
    assert not report.passed
    assert [w[:3] for w in report.witnesses] == [((0.0, 0.25), "bound", 0), ((0.0, 0.25), "bound", 1), ((0.0, 0.25), "gap", 1)]
    assert all(math.isnan(w[3]) for w in report.witnesses)


def test_verify_orthogonality_memory_is_bounded_by_chunks():
    # 3,025 points make 4.57M pairs: unchunked int64 pair indices and
    # differences alone would take about 250 MB.
    import tracemalloc

    points = [(x, y) for x in range(55) for y in range(55)]
    tracemalloc.start()
    try:
        report = verify_orthogonality(sierpinski_3i(), points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.details["points"] == 3025
    assert report.details["distinct_differences"] == (109 * 109 - 1) // 2
    assert peak < 64 * 2**20


@pytest.mark.parametrize("scale", [1, 10**5], ids=["int32_keys", "int64_keys"])
def test_verify_orthogonality_memory_does_not_grow_with_chunk_count(scale):
    # 2,000 random points of [-30, 30]^2 make 2.0M pairs but only about 7k
    # distinct differences; with 1,024 entries per row block that is 2,000
    # blocks, whose per-block tables must not pile up. Scaled by 10^5 the
    # packed keys no longer fit int32.
    import tracemalloc
    from itertools import product
    from unittest import mock

    from moranspec import analyzer

    system = sierpinski_3i()
    points = random.Random(0).sample(list(product(range(-30, 31), repeat=2)), 2000)
    points = [(scale * x, scale * y) for x, y in points]
    expected = verify_orthogonality(system, points)
    with mock.patch.object(analyzer, "_PAIR_CHUNK", 1024):
        tracemalloc.start()
        try:
            report = verify_orthogonality(system, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (report.passed, report.witnesses, report.details) == (expected.passed, expected.witnesses, expected.details)
    assert report.details["distinct_differences"] > 7000
    assert peak < 16 * 2**20


def test_verify_orthogonality_rejects_non_integral_points():
    # int(c) would read (1/2, 0) as (0, 0) and (0.9, 0) as (0, 0).
    system = sierpinski_3i()
    with pytest.raises(ValueError, match=r"point \(1/2, 0\)"):
        verify_orthogonality(system, [(0, 0), (Fraction(1, 2), 0), (1, 2)])
    with pytest.raises(ValueError, match=r"point \(0\.9, 0\)"):
        verify_orthogonality(system, [(0.9, 0), (1, 2)])
    report = verify_orthogonality(system, [(0, 0), (2.0, Fraction(4, 2))])
    assert report.details["points"] == 2
    assert report.witnesses == verify_orthogonality(system, [(0, 0), (2, 2)]).witnesses


@pytest.mark.parametrize("n_bases", [0, 1, 2])
def test_transform_of_no_offsets_is_a_b_by_0_array(n_bases):
    bases = [(0.1, 0.7), (0.375, -1.25)][:n_bases]
    vals = transform_batch_multi(sierpinski_3i(), np.zeros((0, 2), dtype=np.int64), bases, 4)
    assert vals.shape == (n_bases, 0) and vals.dtype == complex


def test_transform_reads_a_generator_of_bases_once():
    system, offsets = sierpinski_3i(), np.array([(0, 0), (3, 6)])
    vals = transform_batch_multi(system, offsets, (b for b in []), 4)
    assert vals.shape == (0, 2) and vals.dtype == complex
    bases = [(0.1, 0.7), (0.375, -1.25)]
    vals = transform_batch_multi(system, np.zeros((0, 2), dtype=np.int64), (b for b in bases), 4)
    assert vals.shape == (2, 0) and vals.dtype == complex
    vals = transform_batch_multi(system, offsets, (b for b in bases), 4)
    assert np.array_equal(vals, transform_batch_multi(system, offsets, bases, 4))


def test_non_integral_offsets_are_refused_not_truncated():
    # int(0.5) is 0: read as the origin, the transform was 1, while the depth-4 value at (0.5, 0) is 0.76+0.42i
    system = sierpinski_3i()
    with pytest.raises(ValueError, match=r"point \(0\.5, 0\)"):
        transform_batch_multi(system, [(0.5, 0)], [(0.0, 0.0)], 4)
    with pytest.raises(ValueError, match=r"point \(0\.5, 0\.0\)"):
        transform_batch_multi(system, np.array([(0.5, 0.0)]), [(0.0, 0.0)], 4)
    level = SpectrumLevel(index=0, K=1, nums=np.array([(0, 0), (1, 0), (0.25, 1)]), containment_checked=False)
    with pytest.raises(ValueError, match=r"point \(0\.25, 1\.0\)"):
        completeness_scan(system, [level], grid=4, extra_points=0)
    # integral floats are read as the integers they are
    got = transform_batch_multi(system, [(1.0, 2.0)], [(0.0, 0.0)], 4)
    assert got == transform_batch_multi(system, np.array([(1, 2)]), [(0.0, 0.0)], 4)


def test_points_of_another_dimension_are_refused_by_every_entry_point():
    system = sierpinski_3i()
    for offsets in ([(0, 0, 0)], np.zeros((2, 3), dtype=np.int64), np.array([1, 2]), [(0, 0), (1,)]):
        with pytest.raises(DimensionMismatch):
            transform_batch_multi(system, offsets, [(0.0, 0.0)], 4)
    # an empty array has no point to show: the message gives its shape
    for empty in (np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64)):
        with pytest.raises(DimensionMismatch, match=r"point array of shape \(0,"):
            transform_batch_multi(system, empty, [(0.0, 0.0)], 4)
        with pytest.raises(DimensionMismatch):
            verify_orthogonality(system, empty)
    level = SpectrumLevel(index=0, K=1, nums=np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), containment_checked=False)
    with pytest.raises(DimensionMismatch):
        completeness_scan(system, [level], grid=4, extra_points=0)
    for point in ((1, 2, 0), (Fraction(1, 3),)):
        with pytest.raises(DimensionMismatch):
            find_zero_level(system, point)

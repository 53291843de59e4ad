"""Acceptance suite: one test per exit criterion, one PASS line per test.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time
from fractions import Fraction
from itertools import product

from conftest import (
    LINE_3,
    SIERPINSKI,
    SQUARE_PLUS,
    SQUARE_PLUS_MIRROR,
    STAIRCASE,
    TRIPLE_A,
    TRIPLE_B,
    divides_its_direction,
    read_ppm,
    ref_mask,
    resample_admissibility,
)
from moranspec.analyzer import (
    completeness_scan,
    verify_orthogonality,
)
from moranspec.builder import build_blocks, choose_block_size, spectrum_levels
from moranspec.decider import (
    admissibility_scan,
    classify_planar_digit_set,
    decide,
)
from moranspec.errors import DeterminantViolation
from moranspec.masks import DigitSet, find_zero_directions
from moranspec.pairs import is_compatible_pair, tower_arrays
from moranspec.render import render, support_points
from moranspec.system import build_system


def _report(num, text, elapsed, budget):
    print(f"ACCEPTANCE {num}: PASS — {text} ({elapsed:.2f}s < {budget}s)")


def sierpinski_3i():
    return build_system(2, 3, [], [([[3, 0], [0, 3]], SIERPINSKI.digits)], r="1/3")


def staircase_system(cycle_diag=(10, 5)):
    first = ([[5, 0], [0, 5]], STAIRCASE.digits)
    rep = ([[cycle_diag[0], 0], [0, cycle_diag[1]]], STAIRCASE.digits)
    return build_system(2, 5, [first], [rep], r="1/5")


def banded_system(entries):
    digit_sets = [TRIPLE_A, TRIPLE_B]
    levels = [([[a, a], [0, b]], digit_sets[i % 2].digits) for i, (a, b) in enumerate(entries)]
    return build_system(2, 3, levels[:1], levels[1:], r="11/20")


def largest_block_size_fitting(system, level, cap):
    K = choose_block_size(system)
    while system.prime ** (K * (level + 1)) > cap and K > 1:
        K -= 1
    return K


def test_criterion_1_zero_structure():
    start = time.monotonic()
    assert find_zero_directions(LINE_3, 3).directions == ((1,),)
    assert find_zero_directions(SIERPINSKI, 3).directions == ((1, 2),)
    assert find_zero_directions(SQUARE_PLUS, 5).directions == ((1, 2), (1, 3))
    assert find_zero_directions(SQUARE_PLUS_MIRROR, 5).directions == ((1, 2), (1, 3))
    assert find_zero_directions(STAIRCASE, 5).directions == ((1, 1),)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "zero directions reproduce all five reference digit sets exactly", elapsed, 1)


def test_criterion_2_decision_reproduction():
    start = time.monotonic()
    verdict = decide(staircase_system((10, 5)))
    assert (verdict.outcome, verdict.criterion) == ("Spectral", "diagonal-divisibility")
    bad = decide(staircase_system((6, 5)))
    assert bad.outcome == "NotSpectral" and bad.certificate["witness"] == (2, 1)

    # the banded decisions agree with m | R_k^t nu_k computed directly
    good = banded_system([(3, 3), (3, 3), (6, 6)])
    bad_banded = banded_system([(3, 3), (4, 4)])
    assert divides_its_direction(good) and not divides_its_direction(bad_banded)
    assert (decide(good).outcome, decide(good).criterion) == ("Spectral", "triangular-template")
    assert (decide(bad_banded).outcome, decide(bad_banded).criterion) == ("NotSpectral", "triangular-template")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, "diagonal and banded criteria reproduce both sides of the reference decisions", elapsed, 1)


def test_criterion_3_finite_level_completeness():
    start = time.monotonic()
    system = sierpinski_3i()
    K = choose_block_size(system)
    decomp = build_blocks(system, blocks=3)
    assert decomp.K == K
    levels = spectrum_levels(decomp, 2)
    for lvl in levels:
        # at depth (k+1)K level k is a spectrum of the finite convolution, so Q = 1 everywhere
        details = completeness_scan(system, [lvl], grid=4, extra_points=20, seed=100 + lvl.index).details
        worst = max(details["final_gap"], details["max_q"] - 1)
        assert worst < 1e-9, (lvl.index, worst)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, "finite-level quadratic sums equal 1 within 1e-9 on a 4x4 grid plus 20 random points, levels 0..2", elapsed, 10)


def test_criterion_4_orthogonality_exactness():
    start = time.monotonic()
    for system in (sierpinski_3i(), staircase_system((10, 5))):
        K = largest_block_size_fitting(system, 2, 10**4)
        decomp = build_blocks(system, K=K, blocks=3)
        levels = spectrum_levels(decomp, 2, enforce_containment=False)
        assert levels[2].size <= 10**4
        report = verify_orthogonality(system, levels[2].elements)
        assert report.passed, report.witnesses[:3]
        assert not report.witnesses
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, "level-2 spectra are exactly orthogonal (zero witnesses) for both reference systems", elapsed, 30)


def test_criterion_5_infinite_measure_completeness():
    start = time.monotonic()
    system = sierpinski_3i()
    decomp = build_blocks(system, blocks=4)  # certified K = 3
    levels = spectrum_levels(decomp, 3)
    report = completeness_scan(system, levels, grid=8, depth=12, extra_points=16, seed=5)
    assert report.passed
    assert report.details["final_gap"] <= 0.02, report.details["final_gap"]
    assert report.details["certified_tail"] <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        5,
        f"depth-12 scan on an 8x8 grid: max |1 - Q| = {report.details['final_gap']:.2e} <= 0.02, "
        f"certified tail {report.details['certified_tail']:.2e} <= 1e-3",
        elapsed,
        120,
    )


def test_criterion_6_compatible_pair_suite():
    import random

    from test_pairs import _random_compatible, _random_junk, gram_defect

    start = time.monotonic()
    rng = random.Random(424242)
    agreements = 0
    for trial in range(200):
        n = rng.choice([1, 2])
        m = rng.choice([2, 3, 5])
        made = _random_compatible(rng, n, m) if trial % 2 == 0 else None
        if made is None:
            made = _random_junk(rng, n, m)
        mat, digits, labels = made
        exact_ok, _ = is_compatible_pair(mat, digits, labels)
        numeric_ok = gram_defect(mat, digits, labels) < 1e-9
        assert exact_ok == numeric_ok
        agreements += 1
    assert agreements == 200

    towers = 0
    while towers < 50:
        n = rng.choice([1, 2])
        m = rng.choice([2, 3])
        made = _random_compatible(rng, n, m)
        if made is None:
            continue
        mat, digits, labels = made
        ok, _ = is_compatible_pair(mat, digits, labels)
        if not ok:
            continue
        from moranspec.pairs import CompatiblePair

        pair = CompatiblePair(mat, digits, labels)
        shifted_digits = [tuple(x + 2 for x in d) for d in digits]
        shifted_labels = [tuple(x + 1 for x in l) for l in labels]
        ok, _ = is_compatible_pair(mat, shifted_digits, shifted_labels)
        assert ok
        rt = mat.transpose()
        new_digits = tuple(tuple(a + b for a, b in zip(d, rt.mul_vec((1,) * n))) for d in digits)
        new_labels = tuple(tuple(a + b for a, b in zip(l, mat.mul_vec((1,) * n))) for l in labels)
        if len(set(new_digits)) == len(digits) and len(set(new_labels)) == len(labels):
            ok, _ = is_compatible_pair(mat, new_digits, new_labels)
            assert ok
        ok, _ = is_compatible_pair(*tower_arrays([pair, pair]))
        assert ok
        towers += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(6, "200 exact/numeric agreements and 50 towers with closure re-verification, zero disagreements", elapsed, 30)


def test_criterion_7_planar_classification():
    start = time.monotonic()
    grid = [p for p in product(range(3), repeat=2) if p != (0, 0)]
    checked = 0
    for a, b, c, d in product(range(-5, 6), repeat=4):
        if abs(a * d - b * c) != 1:
            continue
        digits = DigitSet.from_vectors([(0, 0), (a, b), (c, d)])
        got = classify_planar_digit_set(digits)
        zeros = set()
        for p in grid:
            xi = (Fraction(p[0], 3), Fraction(p[1], 3))
            if abs(ref_mask(digits, xi)) < 1e-9:
                zeros.add(p)
        if got.family == 1:
            assert zeros == {(1, 1), (2, 2)}
        elif got.family == 2:
            assert zeros == {(1, 2), (2, 1)}
        else:
            assert not (zeros & {(1, 1), (2, 2), (1, 2), (2, 1)})
        checked += 1
    assert checked == 616
    try:
        classify_planar_digit_set(DigitSet.from_vectors([(0, 0), (2, 0), (0, 2)]))
        raise AssertionError("determinant violation not raised")
    except DeterminantViolation:
        pass
    elapsed = time.monotonic() - start
    _report(7, f"planar classification agrees with brute-force zeros on all {checked} unit-determinant sets", elapsed, 30)


def test_criterion_8_admissibility():
    start = time.monotonic()
    system = build_system(2, 3, [], [([[9, 0], [0, 9]], SIERPINSKI.digits)], r="1/9", beta="1/24")
    result = admissibility_scan(system)
    assert result.status == "certified"
    assert result.unconditional
    # the interval gap realizing the certificate: 1/3 - 5/72 = 19/72 > 1/24
    assert Fraction(1, 3) - Fraction(5, 8) * Fraction(1, 9) == Fraction(19, 72) > Fraction(1, 24)
    assert resample_admissibility(system, samples=10_000, seed=9) is True
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(8, "box condition certified (gap 19/72 > 1/24) and 10^4-point resampling finds no violation", elapsed, 5)


def test_criterion_9_rendering(tmp_path):
    start = time.monotonic()
    system = staircase_system((10, 5))
    for depth in (1, 2):
        cloud = support_points(system, depth)
        lo, hi = cloud.bounding_box()
        assert all(c >= 0 for c in lo) and all(c <= 1 for c in hi)
        out = render(cloud, "ppm", tmp_path / f"cloud{depth}.ppm", size=256)
        _, _, dark = read_ppm(out)
        assert abs(dark - cloud.size) <= max(1, cloud.size * 0.05)
    elapsed = time.monotonic() - start
    _report(9, "figure clouds stay inside the unit square and pixel counts match point counts within 5%", elapsed, 30)

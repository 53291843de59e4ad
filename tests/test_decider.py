from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    SIERPINSKI,
    SQUARE_PLUS,
    STAIRCASE,
    TRIPLE_A,
    TRIPLE_B,
    box_widths,
    divides_its_direction,
    nearest_box_point,
    ref_mask,
    resample_admissibility,
)
from moranspec.analyzer import verify_orthogonality
from moranspec.builder import build_blocks, spectrum_levels
from moranspec.decider import (
    admissibility_scan,
    classify_planar_digit_set,
    decide,
    matching_templates,
)
from moranspec.errors import DeterminantViolation, ValidationFailure
from moranspec.exact import Matrix
from moranspec.masks import DigitSet
from moranspec.system import build_system


def staircase_system(cycle_diag=(10, 5)):
    first = ([[5, 0], [0, 5]], STAIRCASE.digits)
    rep = ([[cycle_diag[0], 0], [0, cycle_diag[1]]], STAIRCASE.digits)
    return build_system(2, 5, [first], [rep], r="1/5")


def banded_system(first=(3, 3), cycle=((3, 3), (6, 3)), digit_sets=None):
    """Levels R = [[a, a], [0, b]] with the three-element planar digit sets."""
    digit_sets = digit_sets or [TRIPLE_A, TRIPLE_B]
    levels = []
    mats = [first] + list(cycle)
    for i, (a, b) in enumerate(mats):
        levels.append(([[a, a], [0, b]], digit_sets[i % len(digit_sets)].digits))
    return build_system(2, 3, levels[:1], levels[1:], r="11/20")


def test_decide_diagonal_spectral():
    verdict = decide(staircase_system((10, 5)))
    assert verdict.outcome == "Spectral"
    assert verdict.criterion == "diagonal-divisibility"
    assert verdict.exit_code == 0


def test_decide_diagonal_not_spectral_with_witness():
    verdict = decide(staircase_system((6, 5)))
    assert (verdict.outcome, verdict.criterion) == ("NotSpectral", "diagonal-divisibility")
    assert verdict.certificate["witness"] == (2, 1)
    assert verdict.exit_code == 1


def test_decide_diagonal_all_multiples_trivially_spectral():
    system = build_system(2, 3, [], [([[3, 0], [0, 3]], SIERPINSKI.digits)], r="1/3")
    assert decide(system).outcome == "Spectral"


def test_decide_diagonal_hypothesis_violations():
    # m = 2 and a non-diagonal level both keep a system off the diagonal test
    sys_m2 = build_system(1, 2, [], [([[2]], [(0,), (1,)])], r="1/2")
    assert (decide(sys_m2).outcome, decide(sys_m2).criterion) == ("Unknown", "none")
    assert decide(banded_system()).criterion == "triangular-template"


def test_not_spectral_diagonal_witness_matches_divisibility_failure():
    system = staircase_system((6, 5))
    verdict = decide(system)
    k, i = verdict.certificate["witness"]
    assert system.level(k).matrix[i - 1, i - 1] % system.prime != 0


def test_decide_triangular_spectral_and_not():
    good = banded_system(first=(3, 3), cycle=((3, 3), (6, 3)))
    verdict = decide(good)
    assert verdict.outcome == "Spectral"
    assert verdict.criterion == "triangular-template"

    bad = banded_system(first=(3, 3), cycle=((4, 3),))
    verdict = decide(bad)
    assert (verdict.outcome, verdict.criterion) == ("NotSpectral", "triangular-template")
    assert verdict.certificate["witness"] == (2, 1)


def test_decide_single_direction_matches_triangular():
    # the template verdicts agree with m | R_k^t nu_k at every level from 2 on
    good = banded_system(first=(3, 3), cycle=((3, 3), (6, 3)))
    bad = banded_system(first=(3, 3), cycle=((4, 3),))
    assert divides_its_direction(good) and not divides_its_direction(bad)
    assert (decide(good).outcome, decide(good).criterion) == ("Spectral", "triangular-template")
    assert (decide(bad).outcome, decide(bad).criterion) == ("NotSpectral", "triangular-template")


def test_decide_single_direction_requires_phi_one():
    # two zero directions keep a system off the single-direction test
    system = staircase_system((10, 5))
    five_dir_system = build_system(
        2, 5, [([[5, 0], [0, 5]], SQUARE_PLUS.digits)], [([[10, 0], [0, 5]], SQUARE_PLUS.digits)], r="1/5"
    )
    assert five_dir_system.level(1).zeros.count == 2
    assert decide(five_dir_system).criterion == "diagonal-divisibility"
    assert divides_its_direction(system) and decide(system).outcome == "Spectral"


@pytest.mark.parametrize(
    "rows, outcome, witness",
    [([[4, 1], [1, 4]], "Spectral", None), ([[4, 1], [1, 5]], "NotSpectral", 2)],
)
def test_decide_routes_a_non_triangular_single_direction_system(rows, outcome, witness):
    # one zero direction nu = (1, 2) and no triangular template, so decide
    # falls through to the single-direction test: R^t nu is (6, 9), then (6, 11)
    system = build_system(2, 3, [], [(rows, SIERPINSKI.digits)], r="1/3")
    assert system.level(1).zeros.count == 1
    verdict = decide(system)
    assert (verdict.outcome, verdict.criterion) == (outcome, "single-direction-divisibility")
    assert verdict.certificate.get("witness") == witness


def test_templates_all_four_shapes():
    a, b, c = 3, 6, 9
    upper_row = Matrix.from_rows([[a, a, a], [0, b, b], [0, 0, c]])
    upper_col = Matrix.from_rows([[a, b, c], [0, b, c], [0, 0, c]])
    lower_row = Matrix.from_rows([[a, 0, 0], [b, b, 0], [c, c, c]])
    lower_col = Matrix.from_rows([[a, 0, 0], [a, b, 0], [a, b, c]])
    assert "upper-row" in matching_templates(upper_row)
    assert "upper-col" in matching_templates(upper_col)
    assert "lower-row" in matching_templates(lower_row)
    assert "lower-col" in matching_templates(lower_col)
    assert matching_templates(Matrix.from_rows([[3, 1, 0], [0, 3, 0], [0, 0, 3]])) == ()


def test_decide_triangular_template_mismatch():
    # a level outside every template sends the system to the single-direction test
    system = build_system(2, 3, [], [([[3, 1], [0, 3]], TRIPLE_A.digits)], r="2/5")
    assert matching_templates(system.level(1).matrix) == ()
    assert decide(system).criterion == "single-direction-divisibility"


def test_diagonal_and_triangular_agree_in_one_dimension():
    # a 1x1 level fits every template and is diagonal: the diagonal test decides
    for entry in (9, 10):
        system = build_system(1, 3, [([[3]], [(0,), (1,), (2,)])], [([[entry]], [(0,), (1,), (2,)])], r="1/3")
        assert len(matching_templates(system.level(2).matrix)) == 4
        verdict = decide(system)
        assert verdict.criterion == "diagonal-divisibility"
        assert (verdict.outcome == "Spectral") == (entry % 3 == 0) == divides_its_direction(system)


def test_classify_planar_digit_sets():
    got = classify_planar_digit_set(SIERPINSKI)
    assert got.family == 2 and got.direction == (1, 2)
    got = classify_planar_digit_set(DigitSet.from_vectors([(0, 0), (1, 0), (1, 1)]))
    assert got.family == 1 and got.direction == (1, 1)
    with pytest.raises(DeterminantViolation):
        classify_planar_digit_set(DigitSet.from_vectors([(0, 0), (2, 0), (0, 2)]))


def test_classify_planar_exhaustive_against_brute_force():
    # Every unit-determinant pair with entries bounded by 5, cross-checked
    # against float evaluation of the mask on the 3x3 rational grid.
    checked = 0
    grid = [p for p in product(range(3), repeat=2) if p != (0, 0)]
    for a, b, c, d in product(range(-5, 6), repeat=4):
        if abs(a * d - b * c) != 1:
            continue
        if (a, b) == (0, 0) or (c, d) == (0, 0) or (a, b) == (c, d):
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
    assert checked == 616  # unit-determinant quadruples with entries bounded by 5


def sierpinski_9i():
    return build_system(2, 3, [], [([[9, 0], [0, 9]], SIERPINSKI.digits)], r="1/9", beta="1/24")


def test_admissibility_certified_unconditional_for_nine_i():
    result = admissibility_scan(sierpinski_9i())
    assert result.status == "certified"
    assert result.unconditional
    assert result.tail_start == 1
    assert result.exit_code == 0


def test_admissibility_slab_gap_matches_interval_argument():
    # For A = (9I)^t the box image widths are 5/8 * 1/9 = 5/72 per
    # coordinate, and the coset coordinates sit at distance >= 1/3, so the
    # interval gap is 1/3 - 5/72 = 19/72 > 1/24.
    from moranspec.decider import _certify_product_against_family
    inv = Matrix.diagonal([9, 9]).inverse()
    widths = box_widths(inv, Fraction(5, 8))
    assert widths == [Fraction(5, 72), Fraction(5, 72)]
    assert Fraction(1, 3) - Fraction(5, 72) == Fraction(19, 72) > Fraction(1, 24)
    ok, witness, conclusive = _certify_product_against_family(inv, Fraction(5, 8), Fraction(1, 24), (1, 2), 3)
    assert ok and conclusive and witness is None


def test_admissibility_candidate_cap_is_checked_before_enumerating():
    # A box of half-width 200 holds 320,000 coset points of (1, 2) mod 3,
    # over the 100,000 cap: the count is known from the spans alone.
    import tracemalloc

    from moranspec.decider import _certify_product_against_family

    tracemalloc.start()
    try:
        result = _certify_product_against_family(Matrix.identity(2), Fraction(200), Fraction(1, 24), (1, 2), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (False, {"candidates": 320_000}, False)
    assert peak < 2**20


def test_admissibility_candidate_cap_makes_scan_inconclusive(monkeypatch):
    # The R = 2I system below is a violation; with the cap lowered to one
    # its two coset candidates are never decided, and the caveat says why.
    import moranspec.decider as decider

    system = build_system(2, 3, [], [([[2, 0], [0, 2]], SIERPINSKI.digits)], r="1/2", beta="1/24")
    monkeypatch.setattr(decider, "_CANDIDATE_CAP", 1)
    result = admissibility_scan(system)
    assert result.status == "inconclusive"
    assert result.exit_code == 2
    assert result.witness == {"start_level": 1, "length": 1}
    assert result.caveats == (
        "product of length 1 from level 1 has 2 coset candidates, over the cap of 1; it was not checked",
    )


def test_admissibility_degenerate_params_rejected():
    with pytest.raises(ValidationFailure) as err:
        build_system(2, 3, [], [([[9, 0], [0, 9]], SIERPINSKI.digits)], r="1/9", delta=0)
    assert err.value.code == "params"


def test_admissibility_violation_detected():
    # R = 2I contracts too slowly: the box image corner approaches the
    # coset point (1/3, -1/3) within beta = 1/24.
    system = build_system(2, 3, [], [([[2, 0], [0, 2]], SIERPINSKI.digits)], r="1/2", beta="1/24")
    result = admissibility_scan(system)
    assert result.status == "violation"
    assert result.witness is not None
    assert result.exit_code == 1


def test_admissibility_boundary_distance_is_certified():
    # A generated decide-sweep system whose box image lies at distance
    # exactly beta from the coset point (1/5, -1/5, 0) of direction (1, 4, 0).
    # The float search behind the earlier certificate could settle neither
    # side of that boundary and reported "inconclusive"; the exact nearest
    # box point decides it: distance >= beta is clear.
    from moranspec.specfile import load_document

    digits = [[1, -1, 0], [-1, 1, 3], [1, -3, -2], [-1, 3, -3], [0, 0, 2]]
    doc = {
        "dimension": 3,
        "prime": 5,
        "preamble": [{"R": [[5, 10, -5], [10, 10, -5], [-10, 5, 10]], "D": digits}],
        "cycle": [{"R": [[6, -1, 0], [2, 10, -1], [-1, 0, 10]], "D": digits}],
        "params": {"r": "219/500"},
    }
    system = load_document(doc)
    result = admissibility_scan(system)
    assert (result.status, result.unconditional, result.caveats) == ("certified", True, ())
    inv = system.level(1).matrix.transpose().inverse()
    q = (Fraction(1, 5), Fraction(-1, 5), Fraction(0))
    x = nearest_box_point(inv, Fraction(5, 8), q)
    assert sum((y - c) ** 2 for y, c in zip(inv.mul_vec(x), q)) == system.beta**2 == Fraction(1, 1600)


def test_admissibility_soundness_resampling():
    assert resample_admissibility(sierpinski_9i(), samples=2000, seed=4) is True


def test_admissibility_growth_prefix_certified_only_up_to_horizon():
    # Banded prefix with doubling off-diagonal entries: no uniform
    # contraction bound exists, so the validator rejects it.
    entries = [-6, -6, -12, -24, -48, -96]
    levels = [([[3, a], [0, 3]], SIERPINSKI.digits) for a in entries]
    with pytest.raises(ValidationFailure) as err:
        build_system(2, 3, levels, [([[9, 0], [0, 9]], SIERPINSKI.digits)])
    assert err.value.code == "contraction"
    # With beta = 1/m the radius tail has no room (1/m - beta = 0), so a
    # valid system is certified only up to the horizon.
    system = build_system(2, 5, [], [([[25, 5], [0, 25]], STAIRCASE.digits)], beta="1/5")
    result = admissibility_scan(system, horizon=6)
    assert result.tail_start is None
    assert result.status == "certified"
    assert not result.unconditional
    assert result.caveats == ("product lengths beyond 6 were not certified (horizon limit)",)


def test_decide_router_diagonal():
    verdict = decide(staircase_system((10, 5)))
    assert verdict.criterion == "diagonal-divisibility"
    assert verdict.outcome == "Spectral"


def test_decide_router_triangular():
    verdict = decide(banded_system())
    assert verdict.criterion == "triangular-template"


def test_decide_router_m2_unknown():
    system = build_system(1, 2, [], [([[2]], [(0,), (1,)])], r="1/2")
    verdict = decide(system)
    assert verdict.outcome == "Unknown"
    assert verdict.exit_code == 2


def test_decide_router_multi_direction_sufficiency():
    # Two zero directions and a non-diagonal matrix: only the block
    # construction sufficiency applies, and it certifies Spectral here.
    system = build_system(
        2, 5, [], [([[5, 5], [0, 5]], SQUARE_PLUS.digits)], r="7/20"
    )
    verdict = decide(system)
    assert verdict.criterion == "block-construction-sufficiency"
    assert verdict.outcome == "Spectral"


def test_decide_router_multi_direction_unknown_when_no_divisible_direction():
    system = build_system(
        2, 5, [], [([[6, 5], [0, 5]], SQUARE_PLUS.digits)], r="2/5"
    )
    verdict = decide(system)
    assert verdict.outcome == "Unknown"
    assert "levels_without_admissible_direction" in verdict.certificate


def test_spectral_verdict_consistent_with_construction():
    system = staircase_system((10, 5))
    verdict = decide(system)
    assert verdict.outcome == "Spectral"
    decomp = build_blocks(system, K=1, blocks=3)
    levels = spectrum_levels(decomp, 2, enforce_containment=False)
    report = verify_orthogonality(system, levels[2].elements)
    assert report.passed


def test_decide_single_direction_unknown_when_box_condition_fails():
    # one direction, no template, and a box image that reaches a coset point
    system = build_system(2, 3, [], [([[2, 1], [0, 2]], SIERPINSKI.digits)], beta="1/24")
    verdict = decide(system)
    assert (verdict.outcome, verdict.criterion) == ("Unknown", "single-direction-divisibility")
    assert verdict.certificate["admissibility"] == "violation"
    assert any("box condition" in c for c in verdict.caveats)


@pytest.mark.parametrize(
    "cycle, outcome, criterion",
    [
        ([[3, 4], [0, 4]], "Spectral", "single-direction-divisibility"),
        ([[4, 4], [0, 4]], "NotSpectral", "triangular-template"),
    ],
)
def test_decide_column_template_with_divisible_direction(cycle, outcome, criterion):
    # Both levels are upper-col with direction (1, 2). R^t nu = (3, 12) for
    # [[3, 4], [0, 4]] divides by 3 although the diagonal entry 4 does not,
    # so the template's diagonal test does not apply; for [[4, 4], [0, 4]]
    # R^t nu = (4, 12) does not divide and the template test answers.
    system = build_system(2, 3, [([[3, 3], [0, 3]], SIERPINSKI.digits)], [(cycle, SIERPINSKI.digits)])
    assert "upper-col" in matching_templates(system.level(2).matrix)
    verdict = decide(system)
    assert (verdict.outcome, verdict.criterion) == (outcome, criterion)
    assert divides_its_direction(system) == (outcome == "Spectral")
    if outcome == "Spectral":
        assert verdict.certificate["admissibility"] == "certified"
        decomp = build_blocks(system, K=1, blocks=5)
        level = spectrum_levels(decomp, 4, enforce_containment=False)[4]
        assert level.size == 243
        assert verify_orthogonality(system, level.elements).passed


def test_decide_annotates_planar_families():
    # Sierpinski digits are family 2; the router reports the family next to
    # whichever divisibility criterion it lands on.
    system = build_system(2, 3, [], [([[3, 3], [0, 3]], SIERPINSKI.digits)], r="11/20")
    verdict = decide(system)
    assert verdict.certificate.get("planar_families") == {1: 2}
    assert verdict.outcome == "Spectral"


def test_diagonal_caveat_for_zero_entry_directions():
    system = build_system(3, 3, [], [([[3, 0, 0], [0, 3, 0], [0, 0, 3]], [(0, 0, 0), (1, 0, 0), (2, 0, 0)])], r="1/3")
    verdict = decide(system)
    assert (verdict.outcome, verdict.criterion) == ("Spectral", "diagonal-divisibility")
    assert any("zero entries" in c for c in verdict.caveats)
    clean = decide(staircase_system((10, 5)))
    assert clean.caveats == ()


def test_random_diagonal_decisions_consistent_with_construction():
    import random

    from moranspec.analyzer import completeness_scan, verify_orthogonality
    from moranspec.builder import build_blocks, choose_block_size, normalize_first_level, spectrum_levels
    from moranspec.errors import NoAdmissibleDirection

    rng = random.Random(264)
    for _ in range(12):
        entries = [(rng.choice([5, 10, 15, 25, 6, 12]), rng.choice([5, 10, 15, 6])) for _ in range(3)]
        levels = [([[a, 0], [0, b]], STAIRCASE.digits) for a, b in entries]
        system = build_system(2, 5, levels[:1], levels[1:], r="1/5")
        verdict = decide(system)
        assert verdict.criterion == "diagonal-divisibility"
        divisible = all(a % 5 == 0 and b % 5 == 0 for a, b in entries[1:])
        assert (verdict.outcome == "Spectral") == divisible
        if verdict.outcome == "Spectral":
            normalized, _ = normalize_first_level(system)
            decomp = build_blocks(normalized, K=1, blocks=2)
            lvls = spectrum_levels(decomp, 1, enforce_containment=False)
            assert verify_orthogonality(normalized, lvls[1].elements).passed
            details = completeness_scan(normalized, [lvls[1]], grid=4, extra_points=3, seed=1).details
            assert max(details["final_gap"], details["max_q"] - 1) < 1e-9
        else:
            # the failing divisibility also blocks the block construction
            try:
                choose_block_size(system)
                blocked = False
            except NoAdmissibleDirection:
                blocked = True
            assert blocked


def test_decide_triangular_accepts_remark_template_shapes():
    # lower triangular with constant rows, digits with a single direction
    lower_row = build_system(2, 3, [], [([[3, 0], [3, 3]], TRIPLE_A.digits)], r="11/20")
    verdict = decide(lower_row)
    assert (verdict.outcome, verdict.criterion) == ("Spectral", "triangular-template")
    assert "lower-row" in verdict.certificate["template"]
    bad = build_system(2, 3, [([[3, 0], [3, 3]], TRIPLE_A.digits)], [([[4, 0], [4, 4]], TRIPLE_B.digits)], r="11/20")
    verdict = decide(bad)
    assert (verdict.outcome, verdict.criterion) == ("NotSpectral", "triangular-template")
    assert verdict.certificate["witness"] == (2, 1)

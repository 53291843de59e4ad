"""Smoke coverage for a three-dimensional system end to end."""
from fractions import Fraction

import numpy as np

from conftest import ref_transform
from moranspec.analyzer import (
    completeness_scan,
    find_zero_level,
    transform_batch_multi,
    verify_orthogonality,
)
from moranspec.builder import build_blocks, spectrum_levels
from moranspec.decider import admissibility_scan, decide
from moranspec.render import render, support_points
from moranspec.system import build_system

# digits along the first axis: zero directions are all classes with a
# unit first coordinate, nine of them in dimension 3
AXIS_DIGITS = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]


def cube_system(scale=3):
    mat = [[scale, 0, 0], [0, scale, 0], [0, 0, scale]]
    return build_system(3, 3, [], [(mat, AXIS_DIGITS)], r=Fraction(1, scale))


def test_zero_directions_in_dimension_three():
    system = cube_system()
    zeros = system.level(1).zeros
    assert zeros.count == 9
    assert all(nu[0] == 1 for nu in zeros.directions)
    assert zeros.model_compliant[zeros.directions.index((1, 1, 1))] is True
    assert zeros.model_compliant[zeros.directions.index((1, 0, 0))] is False


def test_decide_and_admissibility_in_dimension_three():
    system = cube_system()
    verdict = decide(system)
    assert verdict.outcome == "Spectral"
    assert verdict.criterion == "diagonal-divisibility"
    verdict = decide(cube_system(scale=9))
    assert (verdict.outcome, verdict.criterion) == ("Spectral", "diagonal-divisibility")
    scan = admissibility_scan(cube_system(scale=9))
    assert scan.status == "certified" and scan.unconditional


def test_spectrum_and_orthogonality_in_dimension_three():
    system = cube_system()
    decomp = build_blocks(system, K=1, blocks=2)
    levels = spectrum_levels(decomp, 1, enforce_containment=False)
    assert levels[1].size == 9
    report = verify_orthogonality(system, levels[1].elements)
    assert report.passed
    details = completeness_scan(system, [levels[1]], grid=4, extra_points=5, seed=2).details
    assert max(details["final_gap"], details["max_q"] - 1) < 1e-10


def test_transform_paths_agree_in_dimension_three():
    system = cube_system()
    offsets = np.array([(1, -2, 3), (0, 4, -1), (2, 2, 2)], dtype=np.int64)
    base = (0.21, 0.55, 0.83)
    vals = transform_batch_multi(system, offsets, [base], 4)[0]
    for off, got in zip(offsets, vals):
        want = ref_transform(system, tuple(base[i] + int(off[i]) for i in range(3)), 4)
        assert abs(got - want) < 1e-10


def test_zero_level_and_render_in_dimension_three(tmp_path):
    system = cube_system()
    assert find_zero_level(system, (1, 0, 0)) == 1
    assert find_zero_level(system, (3, 3, 3)) == 2  # residue (1,1,1) at the second level
    assert find_zero_level(system, (3, 0, 0)) == 2
    assert find_zero_level(system, (0, 1, 0)) is None  # first coordinate never unital
    cloud = support_points(system, 2)
    assert cloud.size == 9
    render(cloud, "csv", tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text().count("\n") == 9

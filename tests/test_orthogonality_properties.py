"""Property tests: the numpy orthogonality check against a plain pair loop,
and the batched zero-level search against the scalar find_zero_level."""
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from moranspec import analyzer  # noqa: E402
from moranspec.errors import DimensionMismatch  # noqa: E402
from moranspec.exact import vec_neg, vec_sub  # noqa: E402
from moranspec.specfile import load_system  # noqa: E402
from moranspec.system import build_system  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
LINE = [(0,), (1,), (2,)]
AXIS = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]

SYSTEMS = {
    **{
        name: load_system(FIXTURES / f"{name}.json")
        for name in ("sierpinski_3i", "sierpinski_9i", "banded_spectral", "staircase_nonspectral", "square_plus_b1")
    },
    "line": build_system(1, 3, [([[3]], LINE)], [([[6]], [(0,), (1,), (5,)])]),
    "cube": build_system(3, 3, [], [([[3, 0, 0], [0, 3, 0], [0, 0, 3]], AXIS)], r="1/3"),
    "shear3": build_system(3, 3, [], [([[3, 1, 0], [0, 3, 1], [0, 0, 3]], AXIS)]),
    # c > 1 moves the stopping inequality off the plain |eta| < 1/m
    "sierpinski_c": build_system(2, 3, [], [([[3, 0], [0, 3]], [(0, 0), (1, 0), (0, 1)])], r="1/3", c=1.5),
}


def reference_report(system, points):
    """The pair loop verify_orthogonality ran before it was vectorised."""
    pts = [tuple(int(c) for c in p) for p in points]
    cache, first_pair, levels_hit = {}, {}, {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = vec_sub(pts[j], pts[i])
            canon = max(diff, vec_neg(diff))
            if canon not in cache:
                cache[canon] = analyzer.find_zero_level(system, canon)
                first_pair[canon] = (pts[j], pts[i])
            lvl = cache[canon]
            if lvl is not None:
                levels_hit[lvl] = levels_hit.get(lvl, 0) + 1
    witnesses = tuple(
        (first_pair[d][0], first_pair[d][1], d) for d, lvl in sorted(cache.items()) if lvl is None
    )
    details = {
        "points": len(pts),
        "distinct_differences": len(cache),
        "level_histogram": dict(sorted(levels_hit.items())),
    }
    return not witnesses, witnesses, details


def as_tuple(report):
    return report.passed, report.witnesses, report.details


coordinate = st.one_of(st.integers(-12, 12), st.integers(-(10**6), 10**6))


@st.composite
def system_and_points(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[name]
    point = st.tuples(*[coordinate] * system.dimension)
    return system, draw(st.lists(point, min_size=0, max_size=40, unique=True))


@settings(max_examples=200, deadline=None)
@given(system_and_points(), st.integers(1, 64))
def test_orthogonality_matches_pair_loop(case, chunk):
    # small chunks split rows across chunks, so the merge must keep the
    # earliest pair of every difference
    system, points = case
    with mock.patch.object(analyzer, "_PAIR_CHUNK", chunk):
        report = analyzer.verify_orthogonality(system, points)
    assert as_tuple(report) == reference_report(system, points)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 80))
def test_orthogonality_on_spectrum_prefix_with_extra_points(extra):
    # a prefix of a spectrum level hits the zero set at several levels;
    # the extra point (drawn off the set) supplies witnesses
    system = SYSTEMS["sierpinski_3i"]
    points = [(a + 3 * b, c + 3 * d) for b in range(3) for d in range(3) for a in range(2) for c in range(2)]
    points = [(2 * x, 2 * y) for x, y in points] + [(extra, 1 - extra)]
    points = list(dict.fromkeys(points))
    assert as_tuple(analyzer.verify_orthogonality(system, points)) == reference_report(system, points)


int64_entry = st.one_of(st.integers(-50, 50), st.integers(-(2**62) + 1, 2**62 - 1))


@st.composite
def system_and_rows(draw):
    system = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    row = st.tuples(*[int64_entry] * system.dimension).filter(any)
    return system, draw(st.lists(row, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(system_and_rows())
def test_zero_levels_match_scalar_search(case):
    system, rows = case
    expected = [analyzer.find_zero_level(system, row) or 0 for row in rows]
    assert analyzer._zero_levels(system, np.array(rows, dtype=np.int64)).tolist() == expected


def test_zero_levels_hand_overflowing_rows_to_scalar_search():
    system = SYSTEMS["sierpinski_3i"]
    rows = [(2**61, 1), (1, 2), (1, 1), (-(2**62) + 3, 2**62 - 5)]
    expected = [analyzer.find_zero_level(system, row) or 0 for row in rows]
    with mock.patch.object(analyzer, "find_zero_level", wraps=analyzer.find_zero_level) as scalar:
        got = analyzer._zero_levels(system, np.array(rows, dtype=np.int64))
    assert got.tolist() == expected
    assert [call.args[1] for call in scalar.call_args_list] == [rows[0], rows[3]]


def test_zero_levels_rejects_zero_row():
    with pytest.raises(ValueError):
        analyzer._zero_levels(SYSTEMS["sierpinski_3i"], np.array([(1, 0), (0, 0)], dtype=np.int64))


@pytest.mark.parametrize(
    "name, points",
    [
        ("sierpinski_3i", [(2**70, 0), (2**70 + 1, 2), (2**70 + 4, 1), (0, 5)]),
        ("sierpinski_3i", [(-(2**64), 3), (1, 1), (3, 3)]),
        # coordinates fit int64 but the packed difference keys do not
        ("cube", [(0, 0, 0), (2**21, 2**21, 2**21), (1, 2, 0), (0, 1, 1)]),
    ],
)
def test_points_beyond_int64_match_reference(name, points):
    system = SYSTEMS[name]
    report = analyzer.verify_orthogonality(system, points)
    assert as_tuple(report) == reference_report(system, points)
    assert not report.passed


@settings(max_examples=100, deadline=None)
@given(system_and_points(), st.integers(1, 2**8), st.integers(1, 4))
def test_lowered_int64_limit_changes_no_result(case, limit, depth):
    # a limit this low sends keys, zero-level rows and phase residues to
    # Python ints (object arrays) or to the scalar search; results must not move
    system, points = case
    bases = [(0.0,) * system.dimension, (0.375,) * system.dimension]
    offsets = np.array(points or [(0,) * system.dimension], dtype=np.int64)
    report = analyzer.verify_orthogonality(system, points)
    values = analyzer.transform_batch_multi(system, offsets, bases, depth)
    with mock.patch.object(analyzer, "_INT64_LIMIT", limit):
        low_report = analyzer.verify_orthogonality(system, points)
        low_values = analyzer.transform_batch_multi(system, offsets, bases, depth)
    assert as_tuple(low_report) == as_tuple(report) == reference_report(system, points)
    # the phase of each root is rounded once more in Python complex division
    np.testing.assert_allclose(low_values, values, rtol=0, atol=1e-12)


def test_points_of_another_dimension_are_rejected_before_any_work():
    system = SYSTEMS["sierpinski_3i"]
    with mock.patch.object(analyzer, "_orthogonality_pairs", side_effect=AssertionError("pair work")):
        for points in ([(0, 0, 0), (1, 0, 0)], [(0, 0), (1, 0, 0)], [(1,)]):
            with pytest.raises(DimensionMismatch):
                analyzer.verify_orthogonality(system, points)

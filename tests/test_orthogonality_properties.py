"""Property tests: the numpy orthogonality check against a plain pair loop,
the batched zero-level search against the scalar oracle ref_zero_level, the
prefix-width transform against a full-width evaluation and, bit for bit,
against a tiled reference loop, and the streamed completeness scan against
its default run."""
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import ref_zero_level  # noqa: E402
from test_block_certificate_properties import towers  # noqa: E402

from moranspec import analyzer, exact  # noqa: E402
from moranspec.builder import SpectrumLevel, build_blocks, spectrum_levels  # noqa: E402
from moranspec.errors import DimensionMismatch  # noqa: E402
from moranspec.exact import Matrix, vec_dot, vec_sub  # noqa: E402
from moranspec.specfile import load_system  # noqa: E402
from moranspec.system import build_system, inverse_transpose  # noqa: E402

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
            canon = max(diff, tuple(-c for c in diff))
            if canon not in cache:
                cache[canon] = ref_zero_level(system, canon)
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
    # small blocks hold one or a few rows, so many block tables are folded
    # and the witness pass must keep the earliest pair across blocks
    system, points = case
    with mock.patch.object(analyzer, "_PAIR_CHUNK", chunk):
        report = analyzer.verify_orthogonality(system, points)
    assert as_tuple(report) == reference_report(system, points)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data(), st.integers(1, 64))
def test_orthogonality_matches_pair_loop_on_repeated_differences(name, data, chunk):
    # points of a small box repeat each missing difference in many rows and
    # blocks; the witness pass must keep the earliest pair of each
    system = SYSTEMS[name]
    box = st.tuples(*[st.integers(-3, 3)] * system.dimension)
    points = data.draw(st.lists(box, min_size=2, max_size=30, unique=True))
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
big_entry = st.one_of(int64_entry, st.integers(-(2**1100), 2**1100))


@st.composite
def system_and_rows(draw):
    """A system and up to 12 nonzero rows: int64 rows, or Python-int rows up to 2^1100 in object dtype."""
    system = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    big = draw(st.booleans())
    row = st.tuples(*[big_entry if big else int64_entry] * system.dimension).filter(any)
    return system, np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=object if big else np.int64)


# R^-t = ((5, 4), (1, 1)) / 7 and m = 7: at the row (v, v + 1), v = 2^62 // 25, level 1's product
# bound 3 * 7 * (v + 1) is below 2^62 but m times it is not, and 7 (5 v + 4 (v + 1)) passes 2^63
SKEW7 = build_system(2, 7, [], [([[7, -7], [-28, 35]], [(k, 0) for k in range(7)])])


@settings(max_examples=200, deadline=None)
@given(system_and_rows())
@example((SKEW7, np.array([(2**62 // 25, 2**62 // 25 + 1)], dtype=np.int64)))
def test_zero_levels_match_scalar_search(case):
    system, rows = case
    expected = [ref_zero_level(system, row) or 0 for row in rows.tolist()]
    assert analyzer._zero_levels(system, rows).tolist() == expected


def test_zero_levels_finish_overflowing_rows_in_python_ints():
    # the first and last rows overflow int64 at their first step
    system = SYSTEMS["sierpinski_3i"]
    rows = [(2**61, 1), (1, 2), (1, 1), (-(2**62) + 3, 2**62 - 5)]
    expected = [ref_zero_level(system, row) or 0 for row in rows]
    with mock.patch.object(analyzer, "find_zero_level", side_effect=AssertionError("scalar search")):
        assert analyzer._zero_levels(system, np.array(rows, dtype=np.int64)).tolist() == expected


rational = st.builds(Fraction, big_entry, st.one_of(st.integers(1, 50), st.integers(1, 2**200)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_find_zero_level_matches_reference_on_rational_points(name, data):
    system = SYSTEMS[name]
    point = data.draw(st.tuples(*[rational] * system.dimension).filter(any))
    assert analyzer.find_zero_level(system, point) == ref_zero_level(system, point)


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


@pytest.mark.parametrize(
    "points, dtype",
    [
        # prod(dims) = 2^31 - 1: the largest key, 2^31 - 2, fits int32
        ([(0,), (2**30 - 1,)], np.int32),
        # prod(dims) = 2^31 + 1: the key 2^31 of the difference 2^30 does not
        ([(0,), (2**30 - 1,), (2**30,)], np.int64),
        # prod(dims) = 2^63 + 1: keys in Python ints
        ([(-(2**62),), (1,), (2**62,)], object),
    ],
)
def test_key_dtype_boundaries_match_reference(points, dtype):
    # as tuples and as the int64 array a spectrum level passes, where p - lo can pass 2^63
    system = SYSTEMS["line"]
    for given in (points, np.array(points, dtype=np.int64)):
        with mock.patch.object(analyzer, "_zero_levels", wraps=analyzer._zero_levels) as search:
            report = analyzer.verify_orthogonality(system, given)
        assert search.call_args.args[1].dtype == dtype
        assert as_tuple(report) == reference_report(system, points)
        assert not report.passed


@settings(max_examples=100, deadline=None)
@given(system_and_points(), st.integers(1, 2**8), st.integers(1, 4))
def test_lowered_int64_limit_changes_no_result(case, limit, depth):
    # a limit this low sends keys, zero-level rows and phase residues to
    # Python ints (object arrays); results must not move
    system, points = case
    bases = [(0.0,) * system.dimension, (0.375,) * system.dimension]
    offsets = np.array(points or [(0,) * system.dimension], dtype=np.int64)
    report = analyzer.verify_orthogonality(system, points)
    values = analyzer.transform_batch_multi(system, offsets, bases, depth)
    with mock.patch.object(exact, "INT64_LIMIT", limit):
        low_report = analyzer.verify_orthogonality(system, points)
        low_values = analyzer.transform_batch_multi(system, offsets, bases, depth)
    assert as_tuple(low_report) == as_tuple(report) == reference_report(system, points)
    # the residues, and so the roots, are int64 whatever dtype the phase products took
    assert_same_bits(low_values, values)


def test_points_of_another_dimension_are_rejected_before_any_work():
    system = SYSTEMS["sierpinski_3i"]
    with mock.patch.object(analyzer, "_orthogonality_pairs", side_effect=AssertionError("pair work")):
        for points in ([(0, 0, 0), (1, 0, 0)], [(0, 0), (1, 0, 0)], [(1,)]):
            with pytest.raises(DimensionMismatch):
                analyzer.verify_orthogonality(system, points)


@pytest.mark.parametrize(
    "points, int64",
    [
        # the int64 extremes, and a bool, which numpy reads as 1 next to ints
        ([(2**63 - 1, 0), (-(2**63 - 1), 1), (0, 2), (True, 3)], True),
        # numpy reads 2^63 as float64, so these fall back to Python ints
        ([(2**63, 0), (-(2**63 - 1), 1), (0, 2)], False),
        ([(2.0, 0), (0, Fraction(4, 2)), (1, 1)], False),
    ],
)
def test_every_form_of_the_points_gives_one_report(points, int64):
    system = SYSTEMS["sierpinski_3i"]
    expected = reference_report(system, points)
    forms = {
        "tuples": points,
        "lists": [list(p) for p in points],
        "generator": (tuple(p) for p in points),
        "object array": np.array(points, dtype=object),
    }
    if int64:
        forms["int64 array"] = np.array(points, dtype=np.int64)
    for form, given in forms.items():
        with mock.patch.object(analyzer, "_orthogonality_pairs", wraps=analyzer._orthogonality_pairs) as pairs:
            report = analyzer.verify_orthogonality(system, given)
        assert as_tuple(report) == expected, form
        if form != "object array":
            assert (pairs.call_args.args[1].dtype == np.int64) == int64, form


def test_ragged_and_fractional_points_still_raise():
    system = SYSTEMS["sierpinski_3i"]
    for make in (list, iter):
        with pytest.raises(DimensionMismatch):
            analyzer.verify_orthogonality(system, make([(0, 0), (1, 0, 0)]))
        with pytest.raises(ValueError, match=r"point \(2\.5, 1\)"):
            analyzer.verify_orthogonality(system, make([(0, 0), (2.5, 1)]))


@settings(max_examples=200, deadline=None)
# chunks from 144 on give blocks of 3 to 11 rows, whose triangles hold entries the mask must drop
@given(st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=60, unique=True), st.integers(1, 64) | st.integers(65, 2048))
@example(list(range(0, 300, 7)), 5)  # every row but the last few is longer than the chunk
def test_pair_keys_hold_every_pair_once(values, chunk):
    s = np.array(values, dtype=np.int64)
    views, keys = [], []
    with mock.patch.object(analyzer, "_PAIR_CHUNK", chunk):
        for view in analyzer._pair_keys(s):
            # the next block overwrites this view, so its keys are copied out now
            views.append(view)
            keys += view.tolist()
    assert sorted(keys) == sorted(abs(b - a) for i, a in enumerate(values) for b in values[i + 1 :])
    assert all(len(view) <= max(chunk, len(s) - 1) for view in views)
    assert all(np.shares_memory(view, views[0]) for view in views)


def broadcast_residue_hits(level, m, v, q):
    """Rows of v / q on a zero coset line, by comparing each row's residues with every row of the residue table."""
    table = np.array(list(level.zeros.residue_table), dtype=np.int64).reshape(-1, v.shape[1])
    integral = np.array([all(m * int(x) % int(d) == 0 for x in row) for row, d in zip(v, q)])
    residues = np.array([[m * int(x) // int(d) % m for x in row] for row, d in zip(v, q)], dtype=np.int64)
    return integral & (residues[:, None, :] == table[None]).all(axis=2).any(axis=1)


@pytest.mark.parametrize("big", [False, True], ids=["int64_rows", "python_int_rows"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 5, 7])
def test_residue_codes_match_the_broadcast_comparison(m, n, big):
    # digits j * (1, ..., n) make some residues zeros of the level and leave others out
    digits = [tuple(j * (i + 1) for i in range(n)) for j in range(m)]
    level = build_system(n, m, [], [([[m * (i == j) for j in range(n)] for i in range(n)], digits)]).level(1)
    rng = np.random.default_rng(100 * m + n)
    # half the rows are r + m k over q = m t, whose residues are r; the rest are arbitrary
    t = rng.integers(1, 5, 200)
    v = np.concatenate([t[:, None] * (rng.integers(0, m, (200, n)) + m * rng.integers(-3, 4, (200, n))), rng.integers(-40, 41, (200, n))])
    q = np.concatenate([m * t, rng.integers(1, 3 * m, 200)])
    if big:  # Python ints past int64, with the limit low enough that every product takes them
        v, q = v.astype(object) * 2**70, q.astype(object) * 2**70
    powers = [[m**i for i in range(n)]]
    with mock.patch.object(exact, "INT64_LIMIT", 1 if big else exact.INT64_LIMIT):
        codes = analyzer._residue_codes(level, powers)
        got = analyzer._residue_hits(codes, powers, m, v, q)
    expected = broadcast_residue_hits(level, m, v, q)
    assert 0 < expected.sum() < len(v)
    assert got.tolist() == expected.tolist()


def full_width_transform(system, offsets, bases, depth):
    """Every level's factor on all P offsets for all bases at once, with the
    offset phases reduced in Python Fractions."""
    bases = np.array(bases, dtype=float)
    vals = np.ones((len(bases), len(offsets)), dtype=complex)
    acc = Matrix.identity(system.dimension)
    for k in range(1, depth + 1):
        acc = inverse_transpose(system.level(k).matrix).mul(acc)
        digits = system.level(k).digits.digits
        phases = [[Fraction(vec_dot(d, acc.mul_vec_num(o)), acc.den) % 1 for o in offsets] for d in digits]
        roots = np.exp(2j * np.pi * np.array(phases, dtype=float))
        a_float = np.array(acc.num, dtype=float) / acc.den
        shifts = np.exp(2j * np.pi * (np.array(digits, dtype=float) @ (a_float @ bases.T)))
        vals *= (shifts.T @ roots) / len(digits)
    return vals


def prefix_transform(system, offsets, bases, depth):
    """transform_batch_multi and the widths its running product grows to, the
    last one P when the last level's width falls short of it."""
    real_plans, calls = analyzer._transform_plans, []

    def record(*args):
        calls.append(real_plans(*args))
        return calls[-1]

    with mock.patch.object(analyzer, "_transform_plans", side_effect=record):
        values = analyzer.transform_batch_multi(system, np.array(offsets, dtype=np.int64), bases, depth)
    (plans,) = calls
    level_widths = [roots.shape[1] for _, _, roots in plans]
    widths = [w for prev, w in zip([1] + level_widths, level_widths) if w > prev]
    return values, widths + [len(offsets)] * (level_widths[-1] < len(offsets))


def tiled_transform(system, offsets, bases, depth):
    """transform_batch_multi by a tiled reference loop: phases as
    d @ (M @ offsets), the running product tiled as the width grows, each
    factor divided by m as a complex array."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
    bases_f = np.array([[float(c) for c in b] for b in bases], dtype=float)
    n_points = len(offsets)
    plans, width, acc = [], 1, Matrix.identity(system.dimension)
    for k in range(1, depth + 1):
        acc = inverse_transpose(system.level(k).matrix).mul(acc)
        m_int, q = acc.num, acc.den
        d_arr = np.array(system.level(k).digits.digits, dtype=np.int64)
        phases = exact.int_matmul(d_arr, exact.int_matmul(offsets, m_int))
        int_phases = (phases % q).astype(np.int64) if q < 2**63 else phases.astype(object) % q
        while width < n_points and not (int_phases.reshape(len(d_arr), -1, width) == int_phases[:, None, :width]).all():
            width = width * system.prime if n_points % (width * system.prime) == 0 else n_points
        roots = np.exp((2j * np.pi * int_phases[:, :width] / q).astype(complex, copy=False))
        plans.append((d_arr, np.array(m_int, dtype=float) / q, roots))
    rows = []
    # near-equal runs, at most B // 2 of them under the two-base floor, as in _transform_chunks
    floor = 2 if n_points <= analyzer._TWO_BASE_POINTS else 1
    chunk = max(floor, analyzer._VALUE_CHUNK // max(n_points, 1))
    runs = max(1, min(math.ceil(len(bases_f) / chunk), len(bases_f) // floor))
    for sub in np.array_split(bases_f, runs):
        vals = np.ones((len(sub), 1), dtype=complex)
        for d_arr, a_float, roots in plans:
            if roots.shape[1] > vals.shape[1]:
                vals = np.tile(vals, roots.shape[1] // vals.shape[1])
            shifts = np.exp(2j * np.pi * (d_arr @ (a_float @ sub.T)))
            vals *= (shifts.T @ roots) / len(d_arr)
        rows.append(np.tile(vals, n_points // vals.shape[1]) if n_points > vals.shape[1] else vals)
    return np.concatenate([np.empty((0, n_points), dtype=complex), *rows])


@st.composite
def transform_cases(draw):
    """(system, kind, offsets, bases, depth): the top level of a random tower,
    the same with one label moved, or arbitrary offsets, at a depth up to two
    levels beyond the product length."""
    system, K, blocks = draw(towers())
    decomp = build_blocks(system, K=K, blocks=blocks)
    offsets = list(spectrum_levels(decomp, blocks - 1, enforce_containment=False)[-1].elements)
    kind = draw(st.sampled_from(("nested", "perturbed", "arbitrary")))
    coordinate = st.integers(-40, 40)
    if kind == "perturbed":
        index = draw(st.integers(1, len(offsets) - 1))
        shift = draw(st.tuples(*[coordinate] * system.dimension).filter(any))
        offsets[index] = tuple(x + y for x, y in zip(offsets[index], shift))
    elif kind == "arbitrary":
        offsets = draw(st.lists(st.tuples(*[coordinate] * system.dimension), min_size=1, max_size=40))
    bases = draw(st.lists(st.tuples(*[st.floats(-2, 2)] * system.dimension), min_size=1, max_size=4))
    return system, kind, offsets, bases, blocks * K + draw(st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(transform_cases())
def test_prefix_width_transform_matches_full_width(case):
    system, kind, offsets, bases, depth = case
    values, widths = prefix_transform(system, offsets, bases, depth)
    np.testing.assert_allclose(values, full_width_transform(system, offsets, bases, depth), rtol=0, atol=1e-12)
    if kind == "nested":
        # level 1 depends on the first label only, which varies fastest
        assert widths[0] <= system.prime


def assert_same_bits(got, expected):
    # -0.0 == 0.0, so an exact zero may differ in sign only
    assert np.array_equal(got.view(float), expected.view(float))


@settings(max_examples=80, deadline=None)
@given(transform_cases(), st.sampled_from((None, 1, 60, 100)), st.sampled_from((None, 2**8)))
def test_transform_is_bitwise_the_tiled_loop(case, budget, limit):
    # budgets of 1, 60 and 100 values split the bases into chunks; a limit of
    # 2^8 sends the phase products to Python ints (object arrays)
    system, _, offsets, bases, depth = case
    offsets = np.array(offsets, dtype=np.int64)
    with mock.patch.object(analyzer, "_VALUE_CHUNK", budget or analyzer._VALUE_CHUNK):
        with mock.patch.object(exact, "INT64_LIMIT", limit or exact.INT64_LIMIT):
            got = analyzer.transform_batch_multi(system, offsets, bases, depth)
            expected = tiled_transform(system, offsets, bases, depth)
    assert_same_bits(got, expected)


@pytest.mark.parametrize(
    "name, K, blocks, extra_depth",
    [("sierpinski_3i", 3, 3, 0), ("sierpinski_3i", 1, 4, 2), ("square_plus_b1", 2, 2, 1), ("banded_spectral", 2, 2, 0)],
)
def test_transform_is_bitwise_the_tiled_loop_on_fixture_spectra(name, K, blocks, extra_depth):
    # up to 19,683 offsets and 70 bases, so BLAS multiplies full-size blocks
    system = SYSTEMS[name]
    offsets = np.array(spectrum_levels(build_blocks(system, K=K, blocks=blocks), blocks - 1, enforce_containment=False)[-1].elements)
    bases = np.random.default_rng(7).uniform(-2, 2, (70, system.dimension)).tolist()
    depth = K * blocks + extra_depth
    assert_same_bits(analyzer.transform_batch_multi(system, offsets, bases, depth), tiled_transform(system, offsets, bases, depth))


@pytest.mark.parametrize("budget", [None, 2 * 19_683], ids=["chunk_6", "chunk_2"])
def test_every_base_row_has_the_bits_of_a_two_base_call(budget):
    # 19,683 offsets make chunks of 6 bases (or 2 under the lower budget); with 67
    # bases, runs of a chunk from the front would leave base 66 alone, and numpy's
    # one-row product (gemv) has other last bits
    system = SYSTEMS["sierpinski_3i"]
    offsets = spectrum_levels(build_blocks(system, K=3, blocks=3), 2, enforce_containment=False)[-1].nums
    bases = np.random.default_rng(11).uniform(-2, 2, (67, 2)).tolist()
    with mock.patch.object(analyzer, "_VALUE_CHUNK", budget or analyzer._VALUE_CHUNK):
        values = analyzer.transform_batch_multi(system, offsets, bases, 9)
    for b0 in [*range(0, 66, 2), 65]:
        assert_same_bits(values[b0 : b0 + 2], analyzer.transform_batch_multi(system, offsets, bases[b0 : b0 + 2], 9))


def test_prefix_widths_fall_back_when_the_tower_is_broken():
    system = SYSTEMS["sierpinski_3i"]
    nested = list(spectrum_levels(build_blocks(system, K=2, blocks=2), 1, enforce_containment=False)[-1].elements)
    perturbed = nested[:5] + [(nested[5][0] + 1, nested[5][1])] + nested[6:]
    arbitrary = [(7 * i * i % 23, 5 * i - 11) for i in range(10)]
    bases = [(0.1, 0.7), (0.375, -1.25)]
    for offsets, expected in ((nested, [3, 9, 27, 81]), (perturbed, [81]), (arbitrary, [10])):
        values, widths = prefix_transform(system, offsets, bases, 4)
        assert widths == expected
        np.testing.assert_allclose(values, full_width_transform(system, offsets, bases, 4), rtol=0, atol=1e-12)


def assert_same_plans(got, expected):
    """Equal digits, a_float and root widths, and the roots bit for bit."""
    assert len(got) == len(expected)
    for (d_got, a_got, r_got), (d_exp, a_exp, r_exp) in zip(got, expected):
        assert np.array_equal(d_got, d_exp)
        assert a_got.tobytes() == a_exp.tobytes()
        assert r_got.shape == r_exp.shape
        assert_same_bits(r_got, r_exp)


@settings(max_examples=150, deadline=None)
@given(towers(), st.data(), st.sampled_from((None, 2**8)))
def test_block_plans_are_bitwise_the_one_block_plans(case, data, limit):
    # the top level of a random tower, or the same with one row moved, which
    # must fall back to one block; a limit of 2^8 sums the phases in Python ints
    system, K, blocks = case
    nums = spectrum_levels(build_blocks(system, K=K, blocks=blocks), blocks - 1, enforce_containment=False)[-1].nums
    perturbed = blocks > 1 and data.draw(st.booleans(), label="perturbed")
    if perturbed:
        nums = nums.copy()
        index = data.draw(st.integers(1, len(nums) - 1), label="row")
        nums[index] += data.draw(st.tuples(*[st.integers(-40, 40)] * system.dimension).filter(any), label="shift")
    split = analyzer._level_blocks(nums, system.prime**K)
    assert len(split) == (1 if perturbed else blocks)
    depth = blocks * K + data.draw(st.integers(0, 2), label="extra depth")
    with mock.patch.object(exact, "INT64_LIMIT", limit or exact.INT64_LIMIT):
        got = analyzer._transform_plans(system, split, depth)
        expected = analyzer._transform_plans(system, [nums], depth)
    assert_same_plans(got, expected)


def test_block_plans_past_int64_denominators_are_the_one_block_plans():
    # K = 1 and 3 blocks of 3 rows: from level 40 on q = 3^k passes 2^63, and the phases
    # of the 27 offsets are summed from the three block tables in Python ints
    system = SYSTEMS["sierpinski_3i"]
    nums = spectrum_levels(build_blocks(system, K=1, blocks=3), 2, enforce_containment=False)[-1].nums
    split = analyzer._level_blocks(nums, 3)
    assert len(split) == 3
    got = analyzer._transform_plans(system, split, 45)
    assert 3**45 > 2**63 and got[-1][2].shape == (3, 27)
    assert_same_plans(got, analyzer._transform_plans(system, [nums], 45))


def test_block_phase_sums_past_int64_stay_exact():
    # each block phase d t fits int64, but the sum of three passes 2^63: exact.int_matmul's
    # headroom of 3 must send the phases to Python ints
    system = build_system(1, 3, [], [([[3]], LINE)])
    terms = [np.array([[0], [t], [t + 5]], dtype=object) for t in (2**60 + 7, 2**60 + 2**59, 3 * 2**59 - 11)]
    nums = np.array([[a + b + c] for c in terms[2][:, 0] for b in terms[1][:, 0] for a in terms[0][:, 0]], dtype=object)
    split = analyzer._level_blocks(nums, 3)
    assert len(split) == 3 and all(np.array_equal(got, want) for got, want in zip(split, terms))
    assert 2 * max(nums[:, 0]) >= 2**63
    assert_same_plans(analyzer._transform_plans(system, split, 2), analyzer._transform_plans(system, [nums], 2))


def test_offsets_past_int64_stay_exact():
    # an int64 cast would raise OverflowError; other offsets go in Python ints and uint64 ones stay as they are
    system = SYSTEMS["sierpinski_3i"]
    level = SpectrumLevel(index=0, K=1, nums=np.array([(2**64, 0)], dtype=object), containment_checked=False)
    real_chunks, calls = analyzer._transform_chunks, []

    def record(system, blocks, *args):
        calls.append(blocks)
        return real_chunks(system, blocks, *args)

    with mock.patch.object(analyzer, "_transform_chunks", side_effect=record):
        report = analyzer.completeness_scan(system, [level], grid=4, extra_points=2)
    # one row is not a sum of blocks of 3: the level goes to the plans as one block, as it is
    ((block,),) = calls
    assert block.dtype == object and np.array_equal(block, level.nums)
    assert report.passed and report.details["sizes"] == [1]
    bases = [(0.1, 0.7), (0.375, -1.25)]
    for offsets in ([(2**64, 0)], [(2**64, 0), (3, -(2**70))], np.array([(2**63 + 5, 1)], dtype=np.uint64)):
        expected = full_width_transform(system, np.array(offsets, dtype=object).tolist(), bases, 4)
        np.testing.assert_allclose(analyzer.transform_batch_multi(system, offsets, bases, 4), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 60, 100])
def test_streamed_completeness_scan_matches_default_run(budget):
    # 27 offsets and 21 bases: near-equal runs of 1, 2 or 3 bases
    system = SYSTEMS["sierpinski_3i"]
    levels = spectrum_levels(build_blocks(system, K=1, blocks=3), 2, enforce_containment=False)
    # depth beyond the product length leaves gaps above gap_tol, so witnesses appear
    kwargs = dict(grid=4, depth=6, extra_points=5, seed=3, gap_tol=1e-3)
    expected = analyzer.completeness_scan(system, levels, **kwargs)
    # no two-base floor, so a budget of 1 makes one-base chunks
    with mock.patch.object(analyzer, "_VALUE_CHUNK", budget), mock.patch.object(analyzer, "_TWO_BASE_POINTS", 0):
        got = analyzer.completeness_scan(system, levels, **kwargs)
    allowance = expected.details["numeric_allowance"]
    assert expected.witnesses and got.passed == expected.passed
    assert [w[:3] for w in got.witnesses] == [w[:3] for w in expected.witnesses]
    np.testing.assert_allclose([w[3:] for w in got.witnesses], [w[3:] for w in expected.witnesses], rtol=0, atol=allowance)
    for key, value in expected.details.items():
        np.testing.assert_allclose(got.details[key], value, rtol=0, atol=allowance)

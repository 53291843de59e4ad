"""Property tests: the array odometer and the array CSV, SVG and PPM writers
against the per-point reference implementations they replaced, which must
produce the same numerators and the same bytes."""
import importlib
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from moranspec.exact import Matrix, mixed_radix_sums, mixed_radix_terms  # noqa: E402
from moranspec.render import PointCloud, render, support_points  # noqa: E402
from moranspec.specfile import load_system  # noqa: E402
from moranspec.system import build_system  # noqa: E402
from conftest import table_floats  # noqa: E402
from test_properties import triangular_levels  # noqa: E402

# the package's ``render`` attribute is the function, not the module
render_module = importlib.import_module("moranspec.render")

# --- reference implementations: one Python step per point or coordinate ------


def ref_mixed_radix_sums(coefs, sets):
    """(numerator tuples, den), the earliest set fastest."""
    den = math.lcm(*(c.den for c in coefs))
    acc = [(0,) * coefs[0].n]
    for coef, vecs in zip(coefs, sets):
        scale = den // coef.den
        terms = [tuple(scale * x for x in coef.mul_vec_num(v)) for v in vecs]
        acc = [tuple(a + b for a, b in zip(base, t)) for t in terms for base in acc]
    return acc, den


def ref_floats(system, depth):
    """Support points as float tuples, the deepest level fastest."""
    coefs = [system.level(1).matrix.inverse()]
    for k in range(2, depth + 1):
        coefs.append(coefs[-1].mul(system.level(k).matrix.inverse()))
    sets = [system.level(k).digits.digits for k in range(1, depth + 1)]
    points, den = ref_mixed_radix_sums(coefs[::-1], sets[::-1])
    return [tuple(x / den for x in p) for p in points]


def ref_csv(pts):
    return ("\n".join(",".join(f"{c:.12f}" for c in p) for p in pts) + "\n").encode("ascii")


def _planar(pts):
    return [(p[0], p[1] if len(p) > 1 else 0.0) for p in pts]


def _padded_box(pts):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad_x = max(x1 - x0, 1e-9) * 0.05
    pad_y = max(y1 - y0, 1e-9) * 0.05
    return x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y


def ref_corners(pts):
    """The SVG marker corners (x - half, fy - half), fy = y0 + y1 - y."""
    pts = _planar(pts)
    _, _, y0, y1 = _padded_box(pts)
    half = 1.0 / (2.0 * len(pts)) / 2
    return [(x - half, (y0 + y1 - y) - half) for x, y in pts]


def ref_svg(pts):
    x0, x1, y0, y1 = _padded_box(_planar(pts))
    side = 1.0 / (2.0 * len(pts))
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">'
    ]
    for x, y in ref_corners(pts):
        rows.append(f'<rect x="{x:.9f}" y="{y:.9f}" width="{side:.9f}" height="{side:.9f}" fill="black"/>')
    rows.append("</svg>")
    return ("\n".join(rows) + "\n").encode("ascii")


def ref_ppm(pts, size):
    pts = _planar(pts)
    x0, x1, y0, y1 = _padded_box(pts)
    width = height = max(16, size)
    canvas = bytearray(b"\xff" * (width * height * 3))
    for x, y in pts:
        px = int((x - x0) / (x1 - x0) * (width - 1) + 0.5)
        py = int((y1 - y) / (y1 - y0) * (height - 1) + 0.5)
        idx = (py * width + px) * 3
        canvas[idx : idx + 3] = b"\x00\x00\x00"
    return f"P6 {width} {height} 255\n".encode("ascii") + bytes(canvas)


def assert_files_match(cloud, pts, tmp_path, side):
    assert render(cloud, "csv", tmp_path / "c.csv").read_bytes() == ref_csv(pts)
    assert render(cloud, "svg", tmp_path / "c.svg").read_bytes() == ref_svg(pts)
    assert render(cloud, "ppm", tmp_path / "c.ppm", size=side).read_bytes() == ref_ppm(pts, side)


# --- properties ---------------------------------------------------------------


@st.composite
def spread_levels(draw, n, m=3):
    """(R, D): a contracting triangular level (a diagonal 5..9 in one
    dimension) whose digits move by m times vectors of up to ``reach``. That
    keeps their residues mod m, and so the zero directions; at reach 10^8
    the coordinates grow until the 9 and 12 printed decimals show every bit."""
    if n == 1:
        rows, digits = [[draw(st.integers(5, 9))]], [(k,) for k in range(m)]
    else:
        rows, digits = draw(triangular_levels(n, m))
    reach = draw(st.sampled_from([2, 10**8]))
    shift = st.integers(-reach, reach)
    return rows, [tuple(x + m * draw(shift) for x in d) for d in digits]


level_lists = st.sampled_from([1, 2, 3]).flatmap(lambda n: st.lists(spread_levels(n), min_size=1, max_size=3))


@given(level_lists, st.integers(1, 4), st.sampled_from([16, 37, 512]), st.integers(1, 3**4 + 1))
def test_array_writers_match_reference_writers(tmp_path_factory, levels, depth, side, rows):
    system = build_system(len(levels[0][1][0]), 3, levels[:-1], levels[-1:])
    cloud = support_points(system, depth)
    pts = ref_floats(system, depth)
    assert table_floats(cloud).tolist() == [list(p) for p in pts]
    with mock.patch.object(render_module, "_CHUNK_ROWS", rows):
        assert_files_match(cloud, pts, tmp_path_factory.mktemp("files"), side)


@st.composite
def towers(draw):
    """(terms, den) of ``mixed_radix_terms``: 1..4 levels of 1..3 vectors in n = 1..3,
    over diagonal coefficients 1/q, their entries within 4 (int64 terms) or within
    2^60, where the sums pass 2^53 and the terms are Python ints."""
    n, reach = draw(st.integers(1, 3)), draw(st.sampled_from([4, 2**60]))
    vectors = st.lists(st.tuples(*[st.integers(-reach, reach)] * n), min_size=1, max_size=3)
    sets = draw(st.lists(vectors, min_size=1, max_size=4))
    scales = [draw(st.integers(1, 9)) for _ in sets]
    coefs = [Matrix.from_rows([[Fraction(int(i == j), q) for j in range(n)] for i in range(n)]) for q in scales]
    return mixed_radix_terms(coefs, sets)


@given(towers())
# one level of Python ints, a row repeated
@example(mixed_radix_terms([Matrix.identity(1)], [[(2**60,), (-3,), (2**60,)]]))
def test_coordinate_tables_are_np_unique_of_each_column(tower):
    """Each coordinate's table, folded level by level, is the sorted distinct
    numerators and the inverse of ``np.unique`` on that column of ``nums``; the
    bounding box is its first and last key, the exact min and max of ``points``."""
    terms, den = tower
    cloud = PointCloud(depth=len(terms), terms=tuple(terms), den=den)
    nums = cloud.nums
    assert len(cloud.columns) == nums.shape[1]
    for j, (keys, _, index) in enumerate(cloud.columns):
        want_keys, want_index = np.unique(nums[:, j], return_inverse=True)
        assert keys.dtype == nums.dtype and index.dtype == np.int32
        assert np.array_equal(keys, want_keys) and np.array_equal(index, want_index.ravel())
    lo, hi = cloud.bounding_box()
    columns = list(zip(*cloud.points))
    assert lo == tuple(Fraction(min(col), den) for col in columns)
    assert hi == tuple(Fraction(max(col), den) for col in columns)


def test_dtype_switches_to_python_ints_at_two_to_the_53():
    one = Matrix.identity(1)
    below, _ = mixed_radix_sums([one], [[(0,), (2**53 - 1,)]])
    at, _ = mixed_radix_sums([one], [[(0,), (2**53,)]])
    assert below.dtype == np.int64 and at.dtype == object
    assert at.tolist() == [[0], [2**53]] and type(at[1, 0]) is int
    # the bound sums the largest term of every set, even when no single sum reaches it
    split, _ = mixed_radix_sums([one, one], [[(0,), (2**52,)], [(0,), (-(2**52),)]])
    assert split.dtype == object
    # the same rule applies to den
    small, den = mixed_radix_sums([Matrix.from_rows([[Fraction(1, 2**53 - 1)]])], [[(0,), (1,)]])
    assert small.dtype == np.int64 and den == 2**53 - 1
    big, den = mixed_radix_sums([Matrix.from_rows([[Fraction(1, 2**53)]])], [[(0,), (1,)]])
    assert big.dtype == object and den == 2**53


@pytest.mark.parametrize(
    "n, rows, digits",
    [
        (1, [[300007]], [(0,), (1,), (2,)]),
        (2, [[300007, 0], [0, 300011]], [(0, 0), (1, 0), (0, 1)]),
    ],
)
def test_clouds_past_two_to_the_53_stay_exact(tmp_path, n, rows, digits):
    system = build_system(n, 3, [], [(rows, digits)], r="1/3")
    cloud = support_points(system, 3)
    assert cloud.den >= 2**53 and cloud.nums.dtype == object
    assert table_floats(cloud).dtype == np.float64
    assert table_floats(cloud).tolist() == [[float(Fraction(x, cloud.den)) for x in p] for p in cloud.points]
    pts = ref_floats(system, 3)
    assert_files_match(cloud, pts, tmp_path, 37)


def distinct_share(rows) -> float:
    """The distinct values of each column, summed, over all cells."""
    return sum(len(set(col)) for col in zip(*rows)) / (len(rows) * len(rows[0]))


# a 1-D line, whose SVG corners are just over half distinct, and a 3-D
# diagonal system whose coordinates each take 2^depth of 3^depth values
BUILT = {
    "line": (1, [[3]], [(0,), (1,), (2,)]),
    "cube": (3, [[3, 0, 0], [0, 3, 0], [0, 0, 3]], [(0, 0, 0), (1, 1, 0), (0, 1, 1)]),
}


@pytest.mark.parametrize(
    "name, fast",
    # sierpinski_3i (R = 3I) repeats each coordinate: 9% distinct at depth 6;
    # banded_nonspectral is 83% distinct there
    [("line", False), ("sierpinski_3i", True), ("banded_nonspectral", False), ("cube", True)],
)
def test_distinct_value_and_template_writers_match_reference_writers(tmp_path, monkeypatch, name, fast):
    """The text writers format each distinct value once when the distinct values
    are at most half of all cells, else they fill one template; both sides
    write the reference bytes, in chunks of any number of rows."""
    if name in BUILT:
        n, rows, digits = BUILT[name]
        system = build_system(n, 3, [], [(rows, digits)])
    else:
        system = load_system(Path(__file__).parent / "fixtures" / f"{name}.json")
    cloud = support_points(system, 6)
    pts = ref_floats(system, 6)
    assert (distinct_share(pts) <= 0.5) is fast
    assert (distinct_share(ref_corners(pts)) <= 0.5) is fast
    csv, svg = ref_csv(pts), ref_svg(pts)
    for chunk in (1, 2, 7, cloud.size - 1, cloud.size, cloud.size + 1):
        monkeypatch.setattr(render_module, "_CHUNK_ROWS", chunk)
        assert render(cloud, "csv", tmp_path / "c.csv").read_bytes() == csv, chunk
        assert render(cloud, "svg", tmp_path / "c.svg").read_bytes() == svg, chunk


@pytest.mark.parametrize(
    "n, rows, digits, dtype",
    [
        (1, [[3]], [(0,), (1,), (2,)], np.int64),
        (2, [[3, 0], [0, 3]], [(0, 0), (1, 0), (0, 1)], np.int64),
        (2, [[300007, 0], [0, 300011]], [(0, 0), (1, 0), (0, 1)], object),
    ],
)
def test_points_are_int_tuples_built_on_each_read(n, rows, digits, dtype):
    cloud = support_points(build_system(n, 3, [], [(rows, digits)]), 3)
    assert cloud.nums.dtype == dtype
    points = cloud.points
    assert points == tuple(map(tuple, cloud.nums.tolist()))
    assert all(type(x) is int and len(p) == n for p in points for x in p)
    assert "points" not in vars(cloud)

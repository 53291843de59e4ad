import importlib
from fractions import Fraction

import pytest

from conftest import SIERPINSKI, STAIRCASE, read_ppm, table_floats
from moranspec.errors import CapExceeded, IoFailure
from moranspec.render import render, support_points
from moranspec.system import build_system


def sierpinski_3i():
    return build_system(2, 3, [], [([[3, 0], [0, 3]], SIERPINSKI.digits)], r="1/3")


def figure_system():
    first = ([[5, 0], [0, 5]], STAIRCASE.digits)
    rep = ([[10, 0], [0, 5]], STAIRCASE.digits)
    return build_system(2, 5, [first], [rep], r="1/5")


def exact_points(cloud):
    return [tuple(Fraction(x, cloud.den) for x in p) for p in cloud.points]


def test_support_points_level_one():
    cloud = support_points(sierpinski_3i(), 1)
    assert set(exact_points(cloud)) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(0)),
        (Fraction(0), Fraction(1, 3)),
    }


def test_support_points_distinct_counts():
    for depth in (1, 2, 3):
        cloud = support_points(sierpinski_3i(), depth)
        assert cloud.size == 3**depth
        assert len(set(cloud.points)) == cloud.size


def test_support_points_cap():
    with pytest.raises(CapExceeded):
        support_points(sierpinski_3i(), 5, cap=100)


def test_figure_system_stays_in_unit_square():
    for depth in (1, 2):
        cloud = support_points(figure_system(), depth)
        lo, hi = cloud.bounding_box()
        assert all(c >= 0 for c in lo)
        assert all(c <= 1 for c in hi)


def test_cloud_inside_geometric_ball():
    # digits in [0, max]^n: everything past level 1 adds at most s*r/(1-r)
    system = figure_system()
    cloud = support_points(system, 3)
    s = system.digit_norm_bound()
    r = system.r
    first = exact_points(support_points(system, 1))
    bound = s * r / (1 - r)
    for p in exact_points(cloud):
        best = min(
            sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)) ** 0.5 for q in first
        )
        assert best <= bound + 1e-9


def test_csv_round_trip(tmp_path):
    cloud = support_points(figure_system(), 2)
    out = render(cloud, "csv", tmp_path / "pts.csv")
    parsed = [tuple(float(v) for v in line.split(",")) for line in out.read_text().splitlines()]
    assert len(parsed) == cloud.size
    for line, point in zip(parsed, table_floats(cloud)):
        for a, b in zip(line, point):
            assert abs(a - b) < 1e-12


def test_csv_is_deterministic(tmp_path):
    cloud = support_points(figure_system(), 2)
    a = render(cloud, "csv", tmp_path / "a.csv").read_bytes()
    b = render(cloud, "csv", tmp_path / "b.csv").read_bytes()
    assert a == b


def test_svg_has_one_marker_per_point(tmp_path):
    cloud = support_points(sierpinski_3i(), 2)
    text = render(cloud, "svg", tmp_path / "pts.svg").read_text()
    assert text.count("<rect") == cloud.size
    assert "viewBox" in text


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_failed_formatting_leaves_no_file(tmp_path, monkeypatch, fmt):
    def fail(*args):
        raise MemoryError

    # the package's ``render`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("moranspec.render"), "_format_rows", fail)
    with pytest.raises(MemoryError):
        render(support_points(sierpinski_3i(), 2), fmt, tmp_path / f"pts.{fmt}")
    assert not (tmp_path / f"pts.{fmt}").exists()


def test_ppm_header_and_pixel_count(tmp_path):
    cloud = support_points(figure_system(), 2)
    out = render(cloud, "ppm", tmp_path / "pts.ppm", size=256)
    raw = out.read_bytes()
    assert raw.startswith(b"P6 256 256 255\n")
    width, height, dark = read_ppm(out)
    assert (width, height) == (256, 256)
    assert abs(dark - cloud.size) <= cloud.size * 0.05


def test_one_dimensional_cloud_renders(tmp_path):
    system = build_system(1, 3, [], [([[3]], [(0,), (1,), (2,)])], r="1/3")
    cloud = support_points(system, 2)
    assert cloud.size == 9
    render(cloud, "ppm", tmp_path / "line.ppm", size=128)
    width, height, dark = read_ppm(tmp_path / "line.ppm")
    assert dark == 9


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"P6 16 16 255\n" + bytes(30), "holds 30 bytes, 16x16 pixels need 768"),
        (b"P6 16\n" + bytes(768), "header needs width, height and maxval"),
        (b"P6 16 x 255\n" + bytes(768), "header needs width, height and maxval"),
    ],
)
def test_read_ppm_rejects_malformed_files(tmp_path, raw, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(raw)
    with pytest.raises(IoFailure, match=message):
        read_ppm(path)

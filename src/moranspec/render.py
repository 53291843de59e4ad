"""Truncated attractor point clouds and file emission (CSV, SVG, PPM).

Support points are the finite sums over digit strings of the inverse
matrix products applied to digits. A cloud keeps them exactly, as integer
numerators over one common denominator, and each coordinate becomes a
float by one correctly rounded integer division, so rounding never
compounds across levels. Enumeration is mixed-radix over digit indices
with the deepest level fastest, which makes every emitted file
byte-reproducible. The PPM canvas side is capped at ``MAX_PPM_SIDE``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import CapExceeded, IoFailure
from .exact import mixed_radix_sums
from .system import MoranSystem

# largest PPM side: the canvas is side^2 * 3 bytes, 48 MiB at this cap
MAX_PPM_SIDE = 4096


@dataclass(frozen=True)
class PointCloud:
    depth: int
    points: tuple  # integer numerator tuples over den, odometer order
    den: int  # positive common denominator

    @property
    def size(self) -> int:
        return len(self.points)

    def floats(self):
        # int / int is correctly rounded: the same float as float(Fraction(x, den))
        den = self.den
        return [tuple(x / den for x in p) for p in self.points]

    def bounding_box(self):
        """Exact (lo, hi) corners, as Fractions, of the cloud's coordinate box."""
        cols = list(zip(*self.points))
        lo = tuple(Fraction(min(c), self.den) for c in cols)
        hi = tuple(Fraction(max(c), self.den) for c in cols)
        return lo, hi


def support_points(system: MoranSystem, depth: int, cap: int = 200_000) -> PointCloud:
    """All sums over digit strings of length ``depth``, exactly."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    total = system.prime**depth
    if total > cap:
        raise CapExceeded(f"{total} points at depth {depth} exceed the cap {cap}")
    coefs = [system.level(1).matrix.inverse()]
    for k in range(2, depth + 1):
        coefs.append(coefs[-1].mul(system.level(k).matrix.inverse()))
    # the deepest level varies fastest, the order every emitted file keeps
    sets = [system.level(k).digits.digits for k in range(1, depth + 1)]
    points, den = mixed_radix_sums(coefs[::-1], sets[::-1])
    return PointCloud(depth=depth, points=tuple(points), den=den)


def render(cloud: PointCloud, fmt: str, out, size: int = 512):
    """Write the cloud to ``out`` in the requested format, returning the path."""
    out = Path(out)
    try:
        if fmt == "csv":
            _write_csv(cloud, out)
        elif fmt == "svg":
            _write_svg(cloud, out)
        elif fmt == "ppm":
            _write_ppm(cloud, out, size)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise IoFailure(f"cannot write {out}: {exc}") from exc
    return out


def _write_csv(cloud: PointCloud, out: Path):
    lines = [",".join(f"{c:.12f}" for c in p) for p in cloud.floats()]
    out.write_text("\n".join(lines) + "\n", encoding="ascii")


def parse_csv(path) -> list:
    return [tuple(float(v) for v in line.split(",")) for line in Path(path).read_text().splitlines() if line]


def _planar(points):
    """Project to the first two coordinates; lift 1-d clouds onto y = 0."""
    return [(p[0], p[1] if len(p) > 1 else 0.0) for p in points]


def _padded_box(pts):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad_x = max(x1 - x0, 1e-9) * 0.05
    pad_y = max(y1 - y0, 1e-9) * 0.05
    return x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y


def _write_svg(cloud: PointCloud, out: Path):
    pts = _planar(cloud.floats())
    x0, x1, y0, y1 = _padded_box(pts)
    # marker side 1/(2 m^depth): shrinks with the level so copies separate
    side = 1.0 / (2.0 * cloud.size)
    half = side / 2
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">'
    ]
    for x, y in pts:
        # flip y so larger coordinates render upward
        fy = y0 + y1 - y
        rows.append(f'<rect x="{x - half:.9f}" y="{fy - half:.9f}" width="{side:.9f}" height="{side:.9f}" fill="black"/>')
    rows.append("</svg>")
    out.write_text("\n".join(rows) + "\n", encoding="ascii")


def _write_ppm(cloud: PointCloud, out: Path, size: int):
    if size > MAX_PPM_SIDE:
        raise CapExceeded(f"PPM side {size} exceeds the cap {MAX_PPM_SIDE}")
    pts = _planar(cloud.floats())
    x0, x1, y0, y1 = _padded_box(pts)
    width = height = max(16, size)
    canvas = bytearray(b"\xff" * (width * height * 3))
    for x, y in pts:
        px = int((x - x0) / (x1 - x0) * (width - 1) + 0.5)
        py = int((y1 - y) / (y1 - y0) * (height - 1) + 0.5)
        idx = (py * width + px) * 3
        canvas[idx : idx + 3] = b"\x00\x00\x00"
    header = f"P6 {width} {height} 255\n".encode("ascii")
    out.write_bytes(header + bytes(canvas))


def read_ppm(path):
    """(width, height, dark_pixel_count) of a binary P6 file."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 1)
    fields = parts[0].split()
    if fields[0] != b"P6":
        raise IoFailure("not a binary P6 file")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    body = parts[1]
    dark = 0
    for i in range(0, width * height * 3, 3):
        if body[i] < 128:
            dark += 1
    return width, height, dark

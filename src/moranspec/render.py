"""Truncated attractor point clouds and file emission (CSV, SVG, PPM).

Support points are the finite sums over digit strings of the inverse
matrix products applied to digits. A cloud keeps them exactly, as an
(N, n) array of integer numerators over one common denominator, and each
coordinate becomes a float by one correctly rounded division, so rounding
never compounds across levels. Enumeration is mixed-radix over digit
indices with the deepest level fastest, which makes every emitted file
byte-reproducible. The writers work on whole arrays, with the same float
operations, in the same order, as formatting point by point. The text
writers hold one chunk of ``_CHUNK_ROWS`` rows at a time, never the whole
file. Each column is sorted once, by one ``np.unique`` on its bit
patterns. A text column of a diagonal system repeats a few values many
times, so when the distinct values are at most half of all cells, each
is formatted once and gathered per cell; otherwise one ``%`` row
template formats each chunk. A PPM canvas is one indexed store, written
as it is after its header, its side capped at ``MAX_PPM_SIDE``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapExceeded, IoFailure
from .exact import mixed_radix_sums
from .system import MoranSystem

# largest PPM side: the canvas is side^2 * 3 bytes, 48 MiB at this cap, and
# the only copy of the image, since the file is written from it as it is
MAX_PPM_SIDE = 4096
POINT_CAP = 200_000  # default cap on the points of a cloud
_CHUNK_ROWS = 2**13  # rows per text chunk: about 0.7 MB of SVG text


@dataclass(frozen=True, eq=False)
class PointCloud:
    """``nums / den``: the support points of one depth, in odometer order.

    ``nums`` is the read-only (N, n) numerator array from
    ``mixed_radix_sums``: int64 when every numerator and ``den`` are below
    2^53, Python ints (dtype object) otherwise.
    """

    depth: int
    nums: np.ndarray
    den: int  # positive common denominator

    def __post_init__(self):
        self.nums.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.nums)

    @property
    def points(self) -> tuple:
        """The numerators as a tuple of int tuples, built on each access."""
        return tuple(zip(*self.nums.T.tolist()))

    @cached_property
    def floats(self) -> np.ndarray:
        """The read-only (N, n) float64 array ``nums / den``, computed once per cloud."""
        # both operands are exact floats (the 2^53 rule), so each quotient is
        # correctly rounded: the same float as float(Fraction(x, den))
        out = np.asarray(self.nums / self.den, dtype=np.float64)
        out.flags.writeable = False
        return out

    def bounding_box(self):
        """Exact (lo, hi) corners, as Fractions, of the cloud's coordinate box."""
        lo = tuple(Fraction(int(v), self.den) for v in self.nums.min(axis=0))
        hi = tuple(Fraction(int(v), self.den) for v in self.nums.max(axis=0))
        return lo, hi


def support_points(system: MoranSystem, depth: int, cap: int = POINT_CAP) -> PointCloud:
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
    nums, den = mixed_radix_sums(coefs[::-1], sets[::-1])
    return PointCloud(depth=depth, nums=nums, den=den)


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


def _format_rows(table: np.ndarray, fmt: str, head: str, tails: list):
    """Every row of the (N, k) float array, as an iterator of text chunks of at
    most ``_CHUNK_ROWS`` rows: ``head``, then each value in ``fmt`` followed by
    its column's tail; the bytes of one ``%`` template per row."""
    rows = _CHUNK_ROWS
    # keyed on the bit pattern: np.unique would merge -0.0 into 0.0
    cols = [np.unique(col.view(np.int64), return_inverse=True) for col in table.T]
    # the sides break even near half: per distinct is +35% at 75% distinct, -40% at 20%
    if 2 * sum(len(keys) for keys, _ in cols) > table.size:
        row = head + "".join(fmt + tail for tail in tails)

        def chunk(i):
            part = table[i : i + rows]
            return row * len(part) % tuple(part.ravel().tolist())

    else:
        strs = []
        for j, ((keys, _), tail) in enumerate(zip(cols, tails)):
            cell = (head if j == 0 else "") + fmt + tail
            text = "\0".join([cell] * len(keys)) % tuple(keys.view(np.float64).tolist())
            strs.append(np.array(text.split("\0"), dtype=object))

        def chunk(i):
            cells = np.column_stack([s[inv[i : i + rows]] for s, (_, inv) in zip(strs, cols)])
            return "".join(cells.ravel().tolist())

    return map(chunk, range(0, len(table), rows))


def _write_csv(cloud: PointCloud, out: Path):
    f = cloud.floats
    chunks = _format_rows(f, "%.12f", "", [","] * (f.shape[1] - 1) + ["\n"])
    with out.open("w", encoding="ascii") as fh:
        fh.writelines(chunks)


def _planar(cloud: PointCloud):
    """(xs, ys): the first two coordinates; 1-d clouds lie on y = 0."""
    f = cloud.floats
    return f[:, 0], f[:, 1] if f.shape[1] > 1 else np.zeros(len(f))


def _padded_box(xs, ys):
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad_x = max(x1 - x0, 1e-9) * 0.05
    pad_y = max(y1 - y0, 1e-9) * 0.05
    return x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y


def _write_svg(cloud: PointCloud, out: Path):
    xs, ys = _planar(cloud)
    x0, x1, y0, y1 = _padded_box(xs, ys)
    # marker side 1/(2 m^depth): shrinks with the level so copies separate
    side = 1.0 / (2.0 * cloud.size)
    half = side / 2
    head = f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">\n'
    tail = f'" width="{side:.9f}" height="{side:.9f}" fill="black"/>\n'
    # flip y so larger coordinates render upward: fy = y0 + y1 - y
    corners = np.column_stack((xs - half, (y0 + y1 - ys) - half))
    # sorted and its distinct values formatted before the file opens, so a
    # failure there leaves no file
    chunks = _format_rows(corners, "%.9f", '<rect x="', ['" y="', tail])
    with out.open("w", encoding="ascii") as fh:
        fh.write(head)
        fh.writelines(chunks)
        fh.write("</svg>\n")


def _write_ppm(cloud: PointCloud, out: Path, size: int):
    if size > MAX_PPM_SIDE:
        raise CapExceeded(f"PPM side {size} exceeds the cap {MAX_PPM_SIDE}")
    xs, ys = _planar(cloud)
    x0, x1, y0, y1 = _padded_box(xs, ys)
    width = height = max(16, size)
    # every value is >= 0, where astype truncates exactly as int() does
    px = ((xs - x0) / (x1 - x0) * (width - 1) + 0.5).astype(np.int64)
    py = ((y1 - ys) / (y1 - y0) * (height - 1) + 0.5).astype(np.int64)
    canvas = np.full((height * width, 3), 255, dtype=np.uint8)
    canvas[py * width + px] = 0
    with out.open("wb") as fh:
        fh.write(f"P6 {width} {height} 255\n".encode("ascii"))
        fh.write(canvas)


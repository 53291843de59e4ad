"""Truncated attractor point clouds and file emission (CSV, SVG, PPM).

Support points are the finite sums over digit strings of the inverse
matrix products applied to digits. A cloud keeps them exactly, as each
level's integer numerator terms over one common denominator, and each
coordinate becomes a float by one correctly rounded division, so rounding
never compounds across levels. Enumeration is mixed-radix over digit
indices with the deepest level fastest, which makes every emitted file
byte-reproducible. The writers work on whole arrays, with the same float
operations, in the same order, as formatting point by point, on each
coordinate's distinct values, gathered per point. The text writers hold
one chunk of ``_CHUNK_ROWS`` rows at a time. When a text column repeats a
few values many times (diagonal systems), so that the distinct values are
at most half of all cells, each is formatted once; otherwise one ``%`` row
template formats each chunk. A PPM canvas is one indexed store, written as
it is after its header, its side capped at ``MAX_PPM_SIDE``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapExceeded, IoFailure
from .exact import mixed_radix_terms, tower_sums
from .system import MoranSystem

# largest PPM side: the canvas is side^2 * 3 bytes, 48 MiB at this cap, and
# the only copy of the image, since the file is written from it as it is
MAX_PPM_SIDE = 4096
POINT_CAP = 200_000  # default cap on the points of a cloud
_CHUNK_ROWS = 2**13  # rows per text chunk: about 0.7 MB of SVG text


@dataclass(frozen=True, eq=False)
class PointCloud:
    """``nums / den``: the support points of one depth, in odometer order, kept as
    ``terms``, the read-only (m, n) numerator arrays of the levels, the deepest
    first, from ``mixed_radix_terms``: int64 when every numerator and ``den`` are
    below 2^53, Python ints (dtype object) otherwise."""

    depth: int
    terms: tuple
    den: int  # positive common denominator

    def __post_init__(self):
        for t in self.terms:
            t.flags.writeable = False

    @property
    def size(self) -> int:
        return math.prod(map(len, self.terms))

    @property
    def nums(self) -> np.ndarray:
        """The (N, n) numerators, the ``tower_sums`` of the terms, built on each access."""
        return tower_sums(self.terms)

    @property
    def points(self) -> tuple:
        """The numerators as a tuple of int tuples, built on each access."""
        return tuple(zip(*self.nums.T.tolist()))

    @cached_property
    def columns(self) -> tuple:
        """Per coordinate, (keys, floats, index), computed once per cloud: the sorted
        distinct numerators, their floats, and the int32 index of each point among them.
        Folded as ``tower_sums`` folds the terms: a level's terms plus the keys so far are
        m sorted runs, which a stable argsort merges (``np.unique`` would sort them anew),
        and one gather updates the index, so no column is sorted and the gathers are O(N)."""
        dtype = np.int32 if self.size < 2**31 else np.int64
        out = []
        for col in zip(*(t.T for t in self.terms)):
            keys, index = np.zeros(1, dtype=col[0].dtype), np.zeros(1, dtype=dtype)
            for t in col:
                sums = (t[:, None] + keys).ravel()
                order = sums.argsort(kind="stable")
                keys, pair = sums[order], np.empty(len(sums), dtype=dtype)
                new = np.r_[True, keys[1:] != keys[:-1]]
                pair[order] = np.cumsum(new, dtype=dtype) - 1
                keys, index = keys[new], pair.reshape(len(t), -1)[:, index].ravel()
            # exact operands (the 2^53 rule): each float is float(Fraction(key, den))
            out.append((keys, np.asarray(keys / self.den, dtype=np.float64), index))
        return tuple(out)

    def bounding_box(self):
        """Exact (lo, hi) corners, as Fractions, of the cloud's coordinate box."""
        lo = tuple(Fraction(int(keys[0]), self.den) for keys, _, _ in self.columns)
        hi = tuple(Fraction(int(keys[-1]), self.den) for keys, _, _ in self.columns)
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
    terms, den = mixed_radix_terms(coefs[::-1], sets[::-1])
    return PointCloud(depth=depth, terms=tuple(terms), den=den)


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


def _format_rows(cols: list, fmt: str, head: str, tails: list):
    """The rows of the table whose column j is ``values[index]`` of the j-th pair
    (values, index), as text chunks of at most ``_CHUNK_ROWS`` rows: ``head``, then
    each value in ``fmt`` followed by its column's tail, as one ``%`` template per row."""
    rows, size, row = _CHUNK_ROWS, len(cols[0][1]), None
    table = [values for values, _ in cols]
    # the sides break even near half: per distinct is +35% at 75% distinct, -40% at 20%
    if 2 * sum(map(len, table)) > size * len(cols):
        row = head + "".join(fmt + tail for tail in tails)
    else:
        for j, tail in enumerate(tails):
            cell = (head if j == 0 else "") + fmt + tail
            text = "\0".join([cell] * len(table[j])) % tuple(table[j].tolist())
            table[j] = np.array(text.split("\0"), dtype=object)

    def chunk(i):
        cells = np.column_stack([s[index[i : i + rows]] for s, (_, index) in zip(table, cols)]).ravel().tolist()
        return row * (len(cells) // len(cols)) % tuple(cells) if row else "".join(cells)

    return map(chunk, range(0, size, rows))


def _write_csv(cloud: PointCloud, out: Path):
    cols = [(values, index) for _, values, index in cloud.columns]
    chunks = _format_rows(cols, "%.12f", "", [","] * (len(cols) - 1) + ["\n"])
    with out.open("w", encoding="ascii") as fh:
        fh.writelines(chunks)


def _planar(cloud: PointCloud):
    """(values, index) of the first two coordinates; 1-d clouds lie on y = 0."""
    cols = [(values, index) for _, values, index in cloud.columns]
    return cols[0], cols[1] if len(cols) > 1 else (np.zeros(1), np.zeros(cloud.size, dtype=np.int32))


def _padded_box(xs, ys):
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad_x = max(x1 - x0, 1e-9) * 0.05
    pad_y = max(y1 - y0, 1e-9) * 0.05
    return x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y


def _write_svg(cloud: PointCloud, out: Path):
    (xs, xi), (ys, yi) = _planar(cloud)
    x0, x1, y0, y1 = _padded_box(xs, ys)
    # marker side 1/(2 m^depth): shrinks with the level so copies separate
    side = 1.0 / (2.0 * cloud.size)
    half = side / 2
    head = f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">\n'
    tail = f'" width="{side:.9f}" height="{side:.9f}" fill="black"/>\n'
    # flip y so larger coordinates render upward: fy = y0 + y1 - y
    corners = [(xs - half, xi), ((y0 + y1 - ys) - half, yi)]
    # the table and any per-value text are made before the file opens: a failure leaves no file
    chunks = _format_rows(corners, "%.9f", '<rect x="', ['" y="', tail])
    with out.open("w", encoding="ascii") as fh:
        fh.write(head)
        fh.writelines(chunks)
        fh.write("</svg>\n")


def _write_ppm(cloud: PointCloud, out: Path, size: int):
    if size > MAX_PPM_SIDE:
        raise CapExceeded(f"PPM side {size} exceeds the cap {MAX_PPM_SIDE}")
    (xs, xi), (ys, yi) = _planar(cloud)
    x0, x1, y0, y1 = _padded_box(xs, ys)
    width = height = max(16, size)
    # every value is >= 0, where astype truncates exactly as int() does
    px = ((xs - x0) / (x1 - x0) * (width - 1) + 0.5).astype(np.int64)[xi]
    py = ((y1 - ys) / (y1 - y0) * (height - 1) + 0.5).astype(np.int64)[yi]
    canvas = np.full((height * width, 3), 255, dtype=np.uint8)
    canvas[py * width + px] = 0
    with out.open("wb") as fh:
        fh.write(f"P6 {width} {height} 255\n".encode("ascii"))
        fh.write(canvas)

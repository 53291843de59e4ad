"""Shared digit-set fixtures and admissibility helpers used across the suite.

The five-element planar sets below are the standard mod-5 families: two
square-plus-far-corner variants (one mirrored through the x-axis) and the
staircase set; SIERPINSKI is the classic right-triangle mod-3 set.

The hypothesis profile is chosen here, once for every module: "moranspec"
by default, "ci" (the same with a fixed example order) when the
HYPOTHESIS_PROFILE environment variable names it.

``divides_its_direction`` is the single-direction divisibility test,
written out for comparison with ``decide``. The admissibility helpers
read the scan's private routines: the box image widths of the Fraction
oracle, the exact nearest box point as Fractions, and a float resampling
cross-check of the whole scan. ``read_ppm`` reads back the binary PPM files
that the render tests write.

``ref_mask``, ``ref_transform`` and ``ref_zero_level`` are the Fourier-side
oracles: a float mask evaluator, the mask product at the exact iterates, and
the scalar zero-level search in exact integers. ``ref_containment`` is the
spectrum containment check, one element at a time in Fractions, and
``ref_collision`` the first level with a repeated sum, from a set of tuples.
``ref_reduce`` reduces one label into the fundamental domain in Fractions.
"""
import cmath
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from moranspec.decider import _box_faces, _nearest_box_point
from moranspec.errors import IoFailure
from moranspec.exact import Matrix, vec_dot
from moranspec.masks import DigitSet, coset_residues
from moranspec.system import inverse_transpose

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves without hypothesis
    pass
else:
    settings.register_profile("moranspec", max_examples=150, deadline=None)
    settings.register_profile("ci", settings.get_profile("moranspec"), derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "moranspec"))

SIERPINSKI = DigitSet.from_vectors([(0, 0), (1, 0), (0, 1)])

SQUARE_PLUS = DigitSet.from_vectors([(0, 0), (1, 0), (0, 1), (1, 1), (3, 3)])
SQUARE_PLUS_MIRROR = DigitSet.from_vectors([(0, 0), (1, 0), (0, -1), (1, -1), (3, -3)])
STAIRCASE = DigitSet.from_vectors([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])

# Three-element mod-3 sets with a single zero direction, used by the
# triangular-template decision tests.
TRIPLE_A = DigitSet.from_vectors([(0, 0), (1, 2), (1, 3)])
TRIPLE_B = DigitSet.from_vectors([(0, 0), (2, 3), (3, 5)])

LINE_3 = DigitSet.from_vectors([(0,), (1,), (2,)])


def frac(x) -> Fraction:
    return Fraction(x)


def divides_its_direction(system) -> bool:
    """m | R_k^t nu_k for the one zero direction nu_k of every level from 2 on, computed here."""
    m = system.prime
    return all(
        all(x % m == 0 for x in lvl.matrix.transpose().mul_vec(lvl.zeros.directions[0]))
        for _, lvl in system.levels_from(2)
    )


def box_widths(inv, half_ext: Fraction) -> list:
    """Half-widths of the image of the box [-half_ext, half_ext]^n under inv, per coordinate."""
    return [half_ext * Fraction(sum(abs(v) for v in row), inv.den) for row in inv.num]


def nearest_box_point(inv, half_ext: Fraction, q) -> tuple:
    """The scan's exact nearest point of the box to q, for any rational q, as Fractions."""
    m = math.lcm(*(Fraction(v).denominator for v in q))
    a = [int(v * m) for v in q]
    cols = tuple(zip(*inv.num))
    gram = [[vec_dot(u, v) for v in cols] for u in cols]
    t = [inv.den * half_ext.denominator * vec_dot(a, col) for col in cols]
    x, d = _nearest_box_point(_box_faces(gram, half_ext.numerator, m), t)
    return tuple(Fraction(v, d * m * half_ext.denominator) for v in x)


def resample_admissibility(system, samples: int = 10_000, seed: int = 0) -> bool:
    """Soundness cross-check: random box points never land beta-close to a coset.

    Draws uniform points in the padded box, pushes them through each
    product inverse, and measures the true distance to the nearest coset
    point of every family in floats.
    """
    longest = 3  # products of 1, 2 and 3 consecutive levels
    rng = np.random.default_rng(seed)
    m = system.prime
    beta = float(system.beta)
    half = float(Fraction(1, 2) + system.delta)
    families = []
    for _, lvl in system.levels_from(1):
        families.extend(lvl.zeros.directions)
    per_product = max(1, samples // (longest * (len(system.preamble) + len(system.cycle))))
    for start in range(1, len(system.preamble) + len(system.cycle) + 1):
        acc = None
        for p in range(longest):
            mat_t = system.level(start + p).matrix.transpose()
            acc = mat_t if acc is None else acc.mul(mat_t)
            inv = acc.inverse()
            pts = rng.uniform(-half, half, size=(per_product, system.dimension))
            images = pts @ np.array([[v / inv.den for v in row] for row in inv.num]).T
            for nu in set(families):
                for b in coset_residues(nu, m):
                    target = np.array(b) / m
                    diff = images - target
                    frac = diff - np.round(diff)
                    dist = np.sqrt((frac**2).sum(axis=1))
                    if (dist < beta - 1e-12).any():
                        return False
    return True


def read_ppm(path):
    """(width, height, dark_pixel_count) of a binary P6 file."""
    raw = Path(path).read_bytes()
    header, _, body = raw.partition(b"\n")
    fields = header.split()
    if fields[:1] != [b"P6"]:
        raise IoFailure("not a binary P6 file")
    if len(fields) != 4 or not all(f.isdigit() for f in fields[1:]):
        raise IoFailure(f"P6 header needs width, height and maxval, got {header!r}")
    width, height = int(fields[1]), int(fields[2])
    want = width * height * 3
    if len(body) < want:
        raise IoFailure(f"P6 body holds {len(body)} bytes, {width}x{height} pixels need {want}")
    dark = np.frombuffer(body, np.uint8, want)[::3] < 128
    return width, height, int(dark.sum())


def ref_mask(digits, xi) -> complex:
    """(1/#D) sum_d exp(2 pi i <xi, d>), each phase reduced mod 1 exactly at xi's rational or binary value."""
    phases = (sum(Fraction(x) * c for x, c in zip(xi, d, strict=True)) % 1 for d in digits.digits)
    return sum(cmath.exp(2j * cmath.pi * float(t)) for t in phases) / digits.size


def ref_transform(system, point, depth: int) -> complex:
    """Product of the level masks at the exact iterates eta_k = (R_1^t ... R_k^t)^-1 point, k = 1..depth."""
    eta, value = tuple(Fraction(c) for c in point), 1 + 0j
    for k in range(1, depth + 1):
        level = system.level(k)
        eta = inverse_transpose(level.matrix).mul_vec(eta)
        value *= ref_mask(level.digits, eta)
    return value


def ref_zero_level(system, point):
    """First level k whose zero coset lines hold eta_k = (R_1^t ... R_k^t)^-1 point, or None.

    The scalar search, one point at a time in Python ints: eta_k = v / q in
    lowest terms is on a coset line when m v / q is integral with residues on
    a zero direction's line; it stops once c^4 |eta_k|^2 m^2 < 1.
    """
    point = [Fraction(c) for c in point]
    if not any(point):
        raise ValueError("the zero vector is not in any zero set")
    m, c4 = system.prime, Fraction(system.c) ** 4
    q = math.lcm(*(c.denominator for c in point))
    v = [c.numerator * (q // c.denominator) for c in point]
    for k in range(1, 10_000):
        level = system.level(k)
        inv_t = inverse_transpose(level.matrix)
        v, q = inv_t.mul_vec_num(v), q * inv_t.den
        g = math.gcd(q, *v)
        v, q = [x // g for x in v], q // g
        if not any(m * x % q for x in v) and tuple(m * x // q % m for x in v) in level.zeros.residue_table:
            return k
        if c4.numerator * sum(x * x for x in v) * m * m < c4.denominator * q * q:
            return None
    raise RuntimeError("zero-set search failed to terminate")


def ref_containment(decomp, upto: int):
    """Message of the first spectrum element outside the padded box, else None.

    Level k is L_0 + R~_0^t L_1 + ... + R~_0^t ... R~_{k-1}^t L_k in prefix
    order, the earliest block varying fastest. Each element is mapped by
    (R~_0^t ... R~_k^t)^-1 in Fractions, and an image coordinate beyond
    1/2 + delta/4 in absolute value is outside.
    """
    n, box = decomp.system.dimension, Fraction(1, 2) + decomp.system.delta / 4
    coef, level = Matrix.identity(n), [(0,) * n]
    for k, block in enumerate(decomp.blocks[: upto + 1]):
        level = [tuple(a + b for a, b in zip(lam, coef.mul_vec(label))) for label in block.labels for lam in level]
        coef = coef.mul(block.matrix.transpose())
        w = coef.inverse()
        for lam in level:
            image = tuple(Fraction(vec_dot(row, lam)) for row in w.rows)
            if any(abs(c) > box for c in image):
                return f"level {k}: element {lam} maps to {tuple(map(str, image))} outside the box"
    return None


def ref_collision(decomp, upto: int):
    """Message of the first spectrum level whose sums are not pairwise distinct, else None.

    Levels are built in prefix order as in ``ref_containment``, as tuples of
    Python ints, and level k repeats a sum when its set is smaller than it.
    """
    coef, level = Matrix.identity(decomp.system.dimension), [(0,) * decomp.system.dimension]
    for k, block in enumerate(decomp.blocks[: upto + 1]):
        level = [tuple(a + b for a, b in zip(lam, coef.mul_vec(label))) for label in block.labels for lam in level]
        if len(set(level)) != len(level):
            return f"level {k} sums are not pairwise distinct"
        coef = coef.mul(block.matrix.transpose())
    return None


def ref_tower(pairs):
    """(matrix, digits, labels) of the tower over consecutive level pairs, one tuple at a time,
    or None when either tower repeats an element.

    Level j's digits are multiplied by the matrices above it, R_K ... R_{j+1},
    and its labels by the transposes below it, R_1^t ... R_{j-1}^t; the
    earliest level varies fastest, and the matrix is R_K ... R_1.
    """
    n = pairs[0].matrix.n
    matrix, digits, labels = Matrix.identity(n), [(0,) * n], [(0,) * n]
    for j, pair in enumerate(pairs):
        above, below = Matrix.identity(n), Matrix.identity(n)
        for q in pairs[j + 1 :]:
            above = q.matrix.mul(above)
        for q in pairs[:j]:
            below = below.mul(q.matrix.transpose())
        digits = [tuple(a + b for a, b in zip(s, above.mul_vec(d))) for d in pair.digits for s in digits]
        labels = [tuple(a + b for a, b in zip(s, below.mul_vec(v))) for v in pair.labels for s in labels]
        matrix = pair.matrix.mul(matrix)
    if len(set(digits)) < len(digits) or len(set(labels)) < len(labels):
        return None
    return matrix, tuple(digits), tuple(labels)


def ref_reduce(vec, matrix):
    """Representative of vec mod R^t Z^n inside R^t (-1/2, 1/2]^n, one vector in Fractions.

    Componentwise z = ceil(R^-t vec - 1/2) maps the boundary 1/2 into the
    half-open domain, and the representative is vec - R^t z.
    """
    rt = matrix.transpose()
    z = tuple(math.ceil(Fraction(c) - Fraction(1, 2)) for c in rt.inverse().mul_vec(vec))
    return tuple(a - b for a, b in zip(vec, rt.mul_vec(z), strict=True))

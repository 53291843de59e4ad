"""Property tests of the decide path against copies of the code it replaced:
zero directions enumerated as canonical representatives, admissibility
candidates from exact integer bounds, the O(n) canonical direction, the
exact nearest box point, checked by its KKT conditions, a dense float sample
and the projected-gradient search it replaced, the integer certificate of
one product against its Fraction form, and the scan's product inverses."""
import math
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import moranspec.decider as decider  # noqa: E402
from conftest import SIERPINSKI, box_widths, nearest_box_point  # noqa: E402
from moranspec.decider import _certify_product_against_family, _coset_candidates, admissibility_scan  # noqa: E402
from moranspec.exact import Matrix, vec_dot  # noqa: E402
from moranspec.masks import (  # noqa: E402
    DigitSet,
    canonical_direction,
    find_zero_directions,
)
from moranspec.system import build_system  # noqa: E402


def reference_zero_directions(digits: DigitSet, m: int) -> tuple:
    """The m^n walk find_zero_directions made before it enumerated canonical representatives."""
    found = []
    for nu in product(range(m), repeat=digits.n):
        if all(c == 0 for c in nu):
            continue
        if nu != min(tuple(j * c % m for c in nu) for j in range(1, m)):
            continue
        # the mask vanishes at (j/m) nu iff <d, nu> mod m hits every residue once
        if sorted(vec_dot(d, nu) % m for d in digits.digits) == list(range(m)):
            found.append(nu)
    return tuple(sorted(found))


def reference_candidates(widths, beta, nu, m) -> list:
    """Coset points over padded spans, filtered with Fraction comparisons, as before."""
    n = len(widths)
    ranges = [(math.floor(-(w + beta)), math.ceil(w + beta)) for w in widths]
    out = []
    for j in range(1, m):
        base = [Fraction(j * c % m, m) for c in nu]
        spans = [
            range(math.floor(ranges[i][0] - base[i]) - 1, math.ceil(ranges[i][1] - base[i]) + 2) for i in range(n)
        ]
        for z in product(*spans):
            q = tuple(base[i] + z[i] for i in range(n))
            if all(abs(q[i]) <= widths[i] + beta for i in range(n)):
                out.append(q)
    return out


primes = st.sampled_from([3, 5, 7, 11])
coordinate = st.integers(-20, 20)


@st.composite
def digit_sets(draw):
    """Random sets, or sets whose coordinate i runs through 0..m-1 so that
    e_i (and often more) is a zero direction."""
    m = draw(primes)
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        digits = draw(st.lists(st.tuples(*[coordinate] * n), min_size=m, max_size=m, unique=True))
    else:
        i = draw(st.integers(0, n - 1))
        rest = draw(st.lists(st.tuples(*[coordinate] * (n - 1)), min_size=m, max_size=m))
        digits = [r[:i] + (k,) + r[i:] for k, r in enumerate(rest)]
    return DigitSet.from_vectors(digits), m


@given(digit_sets())
def test_find_zero_directions_matches_full_enumeration(case):
    digits, m = case
    got = find_zero_directions(digits, m)
    assert got.directions == reference_zero_directions(digits, m)
    assert got.model_compliant == tuple(all(c != 0 for c in nu) for nu in got.directions)


small_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 9))
padding = st.builds(Fraction, st.integers(1, 24), st.just(100))


@st.composite
def candidate_cases(draw):
    m = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    inv = Matrix.from_rows(draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n)))
    nu = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n).filter(any))
    return inv, Fraction(1, 2) + draw(padding), draw(padding), tuple(nu), m


@given(candidate_cases())
def test_coset_candidates_match_padded_fraction_enumeration(case):
    inv, half_ext, beta, nu, m = case
    widths = box_widths(inv, half_ext)
    count, points = _coset_candidates([math.floor((w + beta) * m) for w in widths], nu, m)
    got = [tuple(Fraction(a, m) for a in point) for point in points]
    assert got == reference_candidates(widths, beta, nu, m)
    assert count == len(got)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.lists(st.integers(-50, 50), min_size=1, max_size=4))
def test_canonical_direction_is_smallest_scalar_multiple(m, direction):
    expected = min(tuple(j * c % m for c in direction) for j in range(1, m))
    assert canonical_direction(direction, m) == expected


def reference_nearest_box_point(g, q, half, iterations):
    """The float projected-gradient search the exact nearest point replaced."""
    x = np.clip(np.linalg.lstsq(g, q, rcond=None)[0], -half, half)
    step = 1.0 / max(2 * np.linalg.norm(g, 2) ** 2, 1e-9)
    for _ in range(iterations):
        grad = 2 * g.T @ (g @ x - q)
        x = np.clip(x - step * grad, -half, half)
    return x


@st.composite
def nearest_point_cases(draw):
    inv, half_ext, _, _, _ = draw(candidate_cases())
    assume(inv.det() != 0)
    point = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 10))
    return inv, half_ext, tuple(draw(st.lists(point, min_size=inv.n, max_size=inv.n)))


@given(nearest_point_cases())
def test_nearest_box_point_is_the_exact_minimizer(case):
    inv, h, q = case
    x = nearest_box_point(inv, h, q)
    assert x == fraction_nearest_box_point(inv, h, q)
    # KKT, exactly: inside the box, zero gradient on free coordinates, and
    # on coordinates held at -h or +h a descent direction that leaves the box.
    residual = [yi - qi for yi, qi in zip(inv.mul_vec(x), q)]
    grad = inv.transpose().mul_vec(residual)
    for xi, gi in zip(x, grad):
        assert -h <= xi <= h
        if xi == -h:
            assert gi >= 0
        elif xi == h:
            assert gi <= 0
        else:
            assert gi == 0
    g, qf, half = np.array([[v / inv.den for v in row] for row in inv.num]), np.array([float(v) for v in q]), float(h)
    best = math.sqrt(float(sum(r * r for r in residual)))
    axis = np.linspace(-half, half, 41 if inv.n < 3 else 17)
    sample = np.array(list(product(axis, repeat=inv.n)))
    assert np.linalg.norm(sample @ g.T - qf, axis=1).min() >= best - 1e-12
    for iterations in (1, 200, 300):
        x_ref = reference_nearest_box_point(g, qf, half, iterations)
        assert best <= np.linalg.norm(g @ x_ref - qf) + 1e-12


def fraction_support_lower_bound_ok(inv: Matrix, half_ext: Fraction, q, beta: Fraction) -> bool:
    """Exact check of (<q, q> - h_P(q)) >= beta * |q| for the box image P, in Fractions."""
    h = half_ext * sum(abs(vec_dot(q, col)) for col in zip(*inv.num)) / inv.den
    num = vec_dot(q, q) - h
    return num >= 0 and num * num >= beta * beta * vec_dot(q, q)


def fraction_nearest_box_point(inv: Matrix, half_ext: Fraction, q) -> tuple:
    """The exact nearest box point as it was computed in Fractions, one face inverse per call and face."""
    n = inv.n
    cols = tuple(zip(*inv.num))
    gram = [[vec_dot(a, b) for b in cols] for a in cols]
    target = [inv.den * vec_dot(a, q) for a in cols]
    for face in product((None, -half_ext, half_ext), repeat=n):
        x = list(face)
        free = [i for i in range(n) if face[i] is None]
        if free:
            rhs = [target[i] - sum(gram[i][j] * face[j] for j in range(n) if face[j] is not None) for i in free]
            sub = Matrix(tuple(tuple(gram[i][j] for j in free) for i in free)).inverse()
            for i, v in zip(free, sub.mul_vec(rhs)):
                x[i] = v
            if any(abs(x[i]) > half_ext for i in free):
                continue
        if all((vec_dot(gram[i], x) - target[i]) * face[i] <= 0 for i in range(n) if face[i] is not None):
            return tuple(x)
    raise AssertionError("a strictly convex function has a minimizer on the box")


def fraction_certify(inv: Matrix, half_ext: Fraction, beta: Fraction, nu, m: int, cap: int = 100_000):
    """The certificate of one product and family as it was decided in Fractions."""
    widths = box_widths(inv, half_ext)
    inv_m = Fraction(1, m)
    for i in range(inv.n):
        if nu[i] % m != 0 and inv_m - widths[i] >= beta:
            return True, None, True
    count, points = _coset_candidates([math.floor((w + beta) * m) for w in widths], nu, m)
    if count > cap:
        return False, {"candidates": count}, False
    for a in points:
        q = tuple(Fraction(ai, m) for ai in a)
        if fraction_support_lower_bound_ok(inv, half_ext, q, beta):
            continue
        x = fraction_nearest_box_point(inv, half_ext, q)
        y = inv.mul_vec(x)
        if sum((yi - qi) ** 2 for yi, qi in zip(y, q)) < beta * beta:
            witness = {"box_point": x, "image": y, "coset_point": q}
            return False, {key: tuple(map(str, v)) for key, v in witness.items()}, True
    return True, None, True


@st.composite
def certificate_cases(draw):
    """Invertible inv, rational or the inverse of a small integer matrix, with at most 3,000 candidates."""
    m = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 3))
    rational = draw(st.booleans())
    values = small_rational if rational else st.integers(-6, 6)
    matrix = Matrix.from_rows(draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(matrix.det() != 0)
    inv = matrix if rational else matrix.inverse()
    half_ext = Fraction(1, 2) + draw(padding)
    beta = draw(st.one_of(padding, st.just(Fraction(1, 8 * m))))
    nu = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n).filter(any)))
    widths = box_widths(inv, half_ext)
    assume(math.prod(2 * (w + beta) + 1 for w in widths) * (m - 1) <= 3000)
    return inv, half_ext, beta, nu, m


@given(certificate_cases())
def test_integer_certificate_matches_the_fraction_oracle(case):
    inv, half_ext, beta, nu, m = case
    assert _certify_product_against_family(inv, half_ext, beta, nu, m) == fraction_certify(inv, half_ext, beta, nu, m)
    # with no room under the cap, the result is the candidate count from the integer limits
    with mock.patch.object(decider, "_CANDIDATE_CAP", -1):
        got = _certify_product_against_family(inv, half_ext, beta, nu, m)
    assert got == fraction_certify(inv, half_ext, beta, nu, m, cap=-1)


@st.composite
def scan_systems(draw):
    """Planar systems of 0-2 preamble and 1-2 cycle levels with dominant diagonals.

    r = 9/10 puts the tail threshold past every horizon drawn, so each
    length up to the horizon is checked explicitly.
    """
    def level():
        a, d = draw(st.integers(5, 9)), draw(st.integers(5, 9))
        b, c = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        return [[a, b], [c, d]], SIERPINSKI.digits

    preamble = [level() for _ in range(draw(st.integers(0, 2)))]
    cycle = [level() for _ in range(draw(st.integers(1, 2)))]
    return build_system(2, 3, preamble, cycle, r="9/10")


@given(scan_systems(), st.integers(1, 4))
def test_scan_product_inverses_are_inverses_of_the_products(system, horizon):
    seen = []

    def record(inv, half_ext, beta, nu, m):
        seen.append(inv)
        return True, None, True

    with mock.patch.object(decider, "_certify_product_against_family", record):
        result = admissibility_scan(system, horizon=horizon)
    families = len({nu for _, lvl in system.levels_from(1) for nu in lvl.zeros.directions})
    expected = []
    for start in range(1, system.cycle_start + len(system.cycle)):
        acc = None
        for p in range(1, horizon + 1):
            mat_t = system.level(start + p - 1).matrix.transpose()
            acc = mat_t if acc is None else acc.mul(mat_t)
            expected.extend([acc.inverse()] * families)
    assert result.products_checked * families == len(seen)
    assert seen == expected

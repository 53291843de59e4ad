"""Property tests of the decide path against copies of the code it replaced:
zero directions enumerated as canonical representatives, admissibility
candidates from exact integer bounds, the O(n) canonical direction, and the
exact nearest box point, checked by its KKT conditions, a dense float sample
and the projected-gradient search it replaced."""
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from moranspec.decider import _box_widths, _coset_candidates, _nearest_box_point  # noqa: E402
from moranspec.exact import Matrix  # noqa: E402
from moranspec.masks import (  # noqa: E402
    DigitSet,
    canonical_direction,
    find_zero_directions,
    residue_vanishing_test,
)


def reference_zero_directions(digits: DigitSet, m: int) -> tuple:
    """The m^n walk find_zero_directions made before it enumerated canonical representatives."""
    found = []
    for nu in product(range(m), repeat=digits.n):
        if all(c == 0 for c in nu):
            continue
        if nu != min(tuple(j * c % m for c in nu) for j in range(1, m)):
            continue
        if residue_vanishing_test(digits, nu, m):
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
    widths = _box_widths(inv, half_ext)
    count, points = _coset_candidates(widths, beta, nu, m)
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
    x = _nearest_box_point(inv, h, q)
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
    g, qf, half = np.array(inv.floats()), np.array([float(v) for v in q]), float(h)
    best = math.sqrt(float(sum(r * r for r in residual)))
    axis = np.linspace(-half, half, 41 if inv.n < 3 else 17)
    sample = np.array(list(product(axis, repeat=inv.n)))
    assert np.linalg.norm(sample @ g.T - qf, axis=1).min() >= best - 1e-12
    for iterations in (1, 200, 300):
        x_ref = reference_nearest_box_point(g, qf, half, iterations)
        assert best <= np.linalg.norm(g @ x_ref - qf) + 1e-12

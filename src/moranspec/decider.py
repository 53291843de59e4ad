"""Decidable spectrality criteria and the admissibility-class scan.

Eventual periodicity makes the "for every level k >= 2" quantifiers
decidable: the preamble tail and one full cycle are checked. Verdicts are
issued only when the cited criterion's hypotheses were machine-verified;
everything else is an explicit Unknown with caveats.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .builder import find_admissible_direction
from .errors import DeterminantViolation, ModelViolation, ValidationFailure
from .exact import Matrix, vec_dot
from .masks import DigitSet, coset_residues, find_zero_directions
from .system import MoranSystem, inverse_transpose

SPECTRAL = "Spectral"
NOT_SPECTRAL = "NotSpectral"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    criterion: str
    certificate: dict = field(default_factory=dict)
    caveats: tuple = ()

    @property
    def exit_code(self) -> int:
        return {SPECTRAL: 0, NOT_SPECTRAL: 1}.get(self.outcome, 2)


def _diagonal_divisibility(system: MoranSystem, criterion: str, certificate: dict, caveats=()) -> Verdict:
    """Spectral iff m divides every diagonal entry of every level from 2 on.

    The first failing entry is the NotSpectral witness; ``certificate``
    holds the criterion's extra entries for either outcome.
    """
    for k, lvl in system.levels_from(2):
        for i in range(system.dimension):
            if lvl.matrix[i, i] % system.prime != 0:
                return Verdict(
                    outcome=NOT_SPECTRAL,
                    criterion=criterion,
                    certificate={"witness": (k, i + 1), "entry": lvl.matrix[i, i], **certificate},
                    caveats=caveats,
                )
    return Verdict(
        outcome=SPECTRAL,
        criterion=criterion,
        certificate={**certificate, "checked_levels": [k for k, _ in system.levels_from(2)]},
        caveats=caveats,
    )


def _box_gate(system: MoranSystem, criterion: str, horizon):
    """The admissibility scan, and the Unknown verdict to return when it leaves the box condition uncertified."""
    scan = admissibility_scan(system, horizon=horizon)
    if scan.status == "certified":
        return scan, None
    return scan, Verdict(
        outcome=UNKNOWN,
        criterion=criterion,
        certificate={"admissibility": scan.status},
        caveats=("box condition could not be certified",) + scan.caveats,
    )


_TEMPLATES = ("upper-row", "upper-col", "lower-row", "lower-col")


def _matches_template(matrix: Matrix, kind: str) -> bool:
    n = matrix.n
    diag = [matrix[i, i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if kind == "upper-row":
                want = diag[i] if j >= i else 0
            elif kind == "upper-col":
                want = diag[j] if j >= i else 0
            elif kind == "lower-row":
                want = diag[i] if j <= i else 0
            else:
                want = diag[j] if j <= i else 0
            if matrix[i, j] != want:
                return False
    return True


def matching_templates(matrix: Matrix) -> tuple:
    return tuple(kind for kind in _TEMPLATES if _matches_template(matrix, kind))


@dataclass(frozen=True)
class PlanarClass:
    family: int | None  # 1 -> direction (1,1); 2 -> direction (1,2); None otherwise
    direction: tuple | None


def classify_planar_digit_set(digits: DigitSet) -> PlanarClass:
    """Classify {0,(a,b),(c,d)} with |ad-bc| = 1 by its zero direction mod 3.

    With a unit determinant nu -> (<nu,(a,b)>, <nu,(c,d)>) mod 3 is a
    bijection, so exactly one direction class puts the digits in distinct
    residues. Family 1 is direction (1,1), family 2 is (1,2).
    """
    if digits.n != 2 or digits.size != 3:
        raise ModelViolation("classifier needs three planar digits")
    if (0, 0) not in digits.digits:
        raise ModelViolation("digit set must contain the origin")
    others = [d for d in digits.digits if d != (0, 0)]
    (a, b), (c, d) = others
    det = a * d - b * c
    if abs(det) != 1:
        raise DeterminantViolation(f"|ad - bc| = {abs(det)} is not 1")
    (nu,) = find_zero_directions(digits, 3).directions
    family = {(1, 1): 1, (1, 2): 2}.get(nu)
    return PlanarClass(family=family, direction=nu if family else None)


@dataclass(frozen=True)
class AdmissibilityResult:
    status: str  # "certified" | "violation" | "inconclusive"
    unconditional: bool
    horizon: int
    tail_start: int | None
    start_level: int
    products_checked: int
    witness: dict | None
    caveats: tuple

    @property
    def exit_code(self) -> int:
        return {"certified": 0, "violation": 1}.get(self.status, 2)


# most coset points one product and family may check before the certificate is inconclusive
_CANDIDATE_CAP = 100_000


def _coset_candidates(lims, nu, m: int):
    """(count, numerators a = b + m z over m) of the coset points q = (j/m) nu + z with |a_i| <= lims_i.

    With b = j nu mod m, lims_i bounds z_i exactly, so the count is known
    before any point is built. Order: j, then z lexicographic.
    """
    per_j = []
    for b in coset_residues(nu, m):
        spans = [range(-((lim + bi) // m), (lim - bi) // m + 1) for lim, bi in zip(lims, b)]
        per_j.append((b, spans))
    count = sum(math.prod(len(span) for span in spans) for _, spans in per_j)
    points = (tuple(bi + m * zi for bi, zi in zip(b, z)) for b, spans in per_j for z in itertools.product(*spans))
    return count, points


def _box_faces(gram, hn: int, m: int) -> list:
    """What the nearest-point test needs of each face of the box [-h, h]^n, h = hn/hd.

    Faces run over every coordinate free, at -h or at +h, in
    itertools.product order. Each is (free, fixed, p, d, bound, start,
    shift): the free indices, the (index, sign, gram row) of each fixed
    one, the inverse p/d of gram's free block (empty when none is free), the
    bound hn d m on a coordinate X of x = X / (d m hd), the X with only the
    fixed coordinates set, and m hn times the pull of the fixed coordinates
    on the free normal equations.
    """
    n, inverses, faces = len(gram), {}, []
    for signs in itertools.product((0, -1, 1), repeat=n):
        free = tuple(i for i in range(n) if not signs[i])
        fixed = tuple((i, s, gram[i]) for i, s in enumerate(signs) if s)
        if free not in inverses:
            inverses[free] = Matrix(tuple(tuple(gram[i][j] for j in free) for i in free)).inverse()
        sub = inverses[free]
        bound = hn * sub.den * m
        shift = tuple(m * hn * sum(gram[i][j] * s for j, s, _ in fixed) for i in free)
        faces.append((free, fixed, sub.num, sub.den, bound, tuple(s * bound for s in signs), shift))
    return faces


def _nearest_box_point(faces, t) -> tuple:
    """(X, d) with x = X / (d m hd) the x in the box [-h, h]^n minimizing |inv x - q|.

    inv = N / den is invertible and gram = N^t N, so |inv x - q|^2 is
    strictly convex and its minimizer on the box is the one point meeting
    the KKT conditions. With q = a / m, t = den hd N^t a. On each face of
    ``_box_faces`` in turn, the free coordinates solve the normal equations
    gram x = den N^t q restricted to the face, and the face holds the
    minimizer when they lie in the box and moving a fixed coordinate back
    into the box would not decrease the distance (the KKT sign test on the
    gradient, scaled by d m hd). All of it is integer work.
    """
    for free, fixed, p, d, bound, start, shift in faces:
        rhs = [t[i] - v for i, v in zip(free, shift)]
        x = list(start)
        for i, row in zip(free, p):
            x[i] = vec_dot(row, rhs)
            if abs(x[i]) > bound:
                break
        else:
            # a coordinate at -h needs gradient >= 0, one at +h needs <= 0
            if all((vec_dot(row, x) - d * t[i]) * s <= 0 for i, s, row in fixed):
                return x, d
    raise AssertionError("a strictly convex function has a minimizer on the box")


def _certify_product_against_family(inv: Matrix, half_ext: Fraction, beta: Fraction, nu, m: int):
    """Certificate for one product and one direction family.

    Returns (ok, witness_or_none, conclusive). Every test is an exact
    integer inequality on the numerators of inv = N/den, half_ext = hn/hd,
    beta = bn/bd and the candidates q = a/m; Fractions are built only for a
    witness. Tries the coordinate-slab argument first: along any
    coordinate with nu_i nonzero mod m, every coset point sits at distance
    >= 1/m from 0, so a box image thinner than 1/m - beta in that
    coordinate clears the whole family at once. Otherwise each coset point
    q is cleared by the support bound in the direction q, or else decided
    by the exact nearest point of the box image; the face inverses that
    point needs are computed once, at the first candidate the support
    bound leaves. Only more than _CANDIDATE_CAP candidates leave it
    inconclusive; the witness then holds their count.
    """
    den, hn, hd, bn, bd = inv.den, half_ext.numerator, half_ext.denominator, beta.numerator, beta.denominator
    row_sums = [sum(map(abs, row)) for row in inv.num]  # the box image spans hn/hd * row_sums / den
    for i, s in enumerate(row_sums):
        if nu[i] % m != 0 and (hd * den - m * hn * s) * bd >= bn * m * hd * den:
            return True, None, True
    lims = [m * (hn * s * bd + bn * hd * den) // (hd * den * bd) for s in row_sums]
    count, points = _coset_candidates(lims, nu, m)
    if count > _CANDIDATE_CAP:
        return False, {"candidates": count}, False
    cols = tuple(zip(*inv.num))
    scale = m * hd * den
    support_rhs = (bn * scale) ** 2
    faces = None
    for a in points:
        c = [vec_dot(a, col) for col in cols]
        aa = vec_dot(a, a)
        # support bound: <q, q> - h_P(q) >= beta |q| for the box image P, times m^2 hd den
        num = aa * hd * den - m * hn * sum(map(abs, c))
        if num >= 0 and (num * bd) ** 2 >= support_rhs * aa:
            continue
        if faces is None:
            faces = _box_faces([[vec_dot(u, v) for v in cols] for u in cols], hn, m)
        x, d = _nearest_box_point(faces, [den * hd * v for v in c])
        # den d m hd (inv x - q), with x = X / (d m hd)
        diff = [vec_dot(row, x) - ai * den * d * hd for row, ai in zip(inv.num, a)]
        if vec_dot(diff, diff) * bd * bd < (bn * d * scale) ** 2:
            box_point = tuple(Fraction(v, d * m * hd) for v in x)
            q = tuple(Fraction(ai, m) for ai in a)
            witness = {"box_point": box_point, "image": inv.mul_vec(box_point), "coset_point": q}
            return False, {key: tuple(map(str, v)) for key, v in witness.items()}, True
    return True, None, True


def admissibility_scan(system: MoranSystem, horizon=None) -> AdmissibilityResult:
    """Certify that transpose products keep the padded box off the zero set.

    Checks every product of consecutive level transposes: lengths up to
    the tail threshold explicitly (exact integer certificates on the
    product inverse, which grows by one cached level inverse per length),
    and all longer products at once through the contraction radius bound
    |A^-1| <= r^p, which keeps the box image inside the ball of radius
    1/m - beta where no coset point lives. When the tail threshold is
    within the horizon the certificate is unconditional for the whole
    eventually-periodic system.
    """
    beta = system.beta
    m = system.prime
    half_ext = Fraction(1, 2) + system.delta
    r = Fraction(system.r)
    n = system.dimension

    families = list(dict.fromkeys(nu for _, lvl in system.levels_from(1) for nu in lvl.zeros.directions))

    # tail threshold: r^p * half_ext * sqrt(n) + beta <= 1/m
    tail_start = None
    gap = Fraction(1, m) - beta
    if gap > 0 and 0 < r < 1:
        p = 1
        while p <= 512:
            if (r**p * half_ext) ** 2 * n <= gap * gap:
                tail_start = p
                break
            p += 1

    cycle_len = len(system.cycle)
    if horizon is None:
        horizon = max(3 * cycle_len, 6)
        if tail_start is not None:
            horizon = max(horizon, min(tail_start - 1, 64))
    if horizon < 1:
        raise ValidationFailure("params", "horizon must be at least 1")
    p_max = horizon if tail_start is None else min(horizon, tail_start - 1)

    starts = list(range(1, system.cycle_start + cycle_len))
    failures = []
    witness = None
    inconclusive = []
    products_checked = 0
    for start in starts:
        inv = None
        for p in range(1, p_max + 1):
            # (R_start^t ... R_{start+p-1}^t)^-1 = (R_{start+p-1}^t)^-1 (R_start^t ... R_{start+p-2}^t)^-1
            step = inverse_transpose(system.level(start + p - 1).matrix)
            inv = step if inv is None else step.mul(inv)
            products_checked += 1
            for nu in families:
                ok, wit, conclusive = _certify_product_against_family(inv, half_ext, beta, nu, m)
                if ok:
                    continue
                if conclusive:
                    failures.append((start, p))
                    if witness is None:
                        witness = {"start_level": start, "length": p, **wit}
                else:
                    inconclusive.append((start, p, wit["candidates"]))

    cycle_starts = set(range(system.cycle_start, system.cycle_start + cycle_len))
    unconditional = tail_start is not None and p_max >= tail_start - 1
    caveats = [] if unconditional else [f"product lengths beyond {p_max} were not certified (horizon limit)"]
    start_level = 0
    if inconclusive:
        status = "inconclusive"
        start, p, count = inconclusive[0]
        witness = {"start_level": start, "length": p}
        caveats.append(
            f"product of length {p} from level {start} has {count} coset candidates, "
            f"over the cap of {_CANDIDATE_CAP}; it was not checked"
        )
    elif any(f[0] in cycle_starts for f in failures):
        status = "violation"
    else:
        status, witness = "certified", None
        start_level = max((f[0] for f in failures), default=0)
        if failures:
            caveats.append(
                f"products starting at levels <= {start_level} fail; condition holds from level {start_level + 1} on"
            )
    return AdmissibilityResult(
        status=status,
        unconditional=unconditional and status == "certified",
        horizon=horizon,
        tail_start=tail_start,
        start_level=start_level,
        products_checked=products_checked,
        witness=witness,
        caveats=tuple(caveats),
    )


def _planar_families(system: MoranSystem):
    """Congruence family per level when the planar classifier applies."""
    if system.dimension != 2 or system.prime != 3:
        return None
    families = {}
    for k, lvl in system.levels_from(1):
        try:
            got = classify_planar_digit_set(lvl.digits)
        except (ModelViolation, DeterminantViolation):
            return None
        if got.family is None:
            return None
        families[k] = got.family
    return families




def decide(system: MoranSystem, horizon=None) -> Verdict:
    """Route to the sharpest applicable criterion.

    - m = 2: Unknown, no implemented criterion covers it.
    - Every level diagonal: m divides every diagonal entry from level 2 on,
      unconditionally.
    - Every level with one zero direction nu_k: if all levels share a
      triangular template, the same diagonal test, unconditionally. A
      column template's R^t nu sums diagonal entries along nu, so a level
      can fail the diagonal test and still have m | R_k^t nu_k; such a
      system, and one with no shared template, gets the single-direction
      test m | R_k^t nu_k from level 2 on, gated on a certified box
      condition. Planar m = 3 systems are annotated with their families.
    - Otherwise the block construction sufficiency: a divisible direction
      at every level from 2 on plus a certified box condition, which can
      only return Spectral or Unknown.
    """
    if system.prime <= 2:
        return Verdict(
            outcome=UNKNOWN,
            criterion="none",
            caveats=("no implemented criterion covers digit cardinality 2",),
        )
    levels = system.levels_from(1)
    if all(lvl.matrix.is_diagonal() for _, lvl in levels):
        compliant = all(all(lvl.zeros.model_compliant) for _, lvl in levels)
        caveats = () if compliant else ("some zero directions have zero entries; the strict coset-line model assumes none",)
        return _diagonal_divisibility(system, "diagonal-divisibility", {}, caveats)
    admissible = {k: find_admissible_direction(system, k) for k, _ in system.levels_from(2)}
    if any(lvl.zeros.count != 1 for _, lvl in levels):
        missing = [k for k, idx in admissible.items() if idx is None]
        if missing:
            return Verdict(
                outcome=UNKNOWN,
                criterion="block-construction-sufficiency",
                certificate={"levels_without_admissible_direction": missing},
                caveats=("sufficiency needs a divisible direction at every level from 2 on",),
            )
        scan, unknown = _box_gate(system, "block-construction-sufficiency", horizon)
        return unknown or Verdict(
            outcome=SPECTRAL,
            criterion="block-construction-sufficiency",
            certificate={"admissibility": scan.status},
            caveats=scan.caveats,
        )
    common = set(_TEMPLATES)
    for _, lvl in levels:
        common &= set(matching_templates(lvl.matrix))
        if not common:
            break
    # a level that fails the diagonal test although m | R_k^t nu_k rules the template test out
    m = system.prime
    if common and not any(
        any(lvl.matrix[i, i] % m for i in range(system.dimension)) and admissible[k] is not None
        for k, lvl in system.levels_from(2)
    ):
        verdict = _diagonal_divisibility(system, "triangular-template", {"template": sorted(common)})
    else:
        scan, verdict = _box_gate(system, "single-direction-divisibility", horizon)
        if verdict is None:
            bad = next((k for k, idx in admissible.items() if idx is None), None)
            certificate = {"checked_levels": list(admissible), "admissibility": scan.status}
            if bad is not None:
                lvl = system.level(bad)
                nu = lvl.zeros.directions[0]
                certificate = {"witness": bad, "direction": nu, "product": lvl.matrix.transpose().mul_vec(nu)}
            outcome = SPECTRAL if bad is None else NOT_SPECTRAL
            verdict = Verdict(outcome, "single-direction-divisibility", certificate, scan.caveats)
    annotate = _planar_families(system)
    if annotate:
        verdict = replace(verdict, certificate={**verdict.certificate, "planar_families": annotate})
    return verdict

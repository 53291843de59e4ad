"""Independent checks of moranspec's outputs.

Nothing here imports moranspec: every expected value is recomputed from the
system description with Python integers, Fractions and numpy, or follows
from a property the method must have. Each check raises Incorrect.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from harness import Incorrect
from systems import brute_force_directions, divides_row, is_diagonal, levels_from_two, levels_of, template_kinds

ZERO_TOL = 1e-9  # |transform| below this counts as a zero
NONZERO_TOL = 1e-6  # a witness must have |transform| above this


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Incorrect(message)


# --- exact helpers -------------------------------------------------------------


def level(doc: dict, k: int, normalized: bool = False):
    """(R, D) of level k (1-based); ``normalized`` replaces R_1 by m I."""
    pre, cyc = doc.get("preamble", []), doc["cycle"]
    raw = pre[k - 1] if k <= len(pre) else cyc[(k - len(pre) - 1) % len(cyc)]
    if normalized and k == 1:
        n, m = doc["dimension"], doc["prime"]
        return [[m * int(i == j) for j in range(n)] for i in range(n)], raw["D"]
    return raw["R"], raw["D"]


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def inverse(a):
    """Exact inverse by Gauss-Jordan over Fractions."""
    n = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def common_denominator(a) -> int:
    q = 1
    for row in a:
        for v in row:
            q = q * v.denominator // math.gcd(q, v.denominator)
    return q


def transform(doc: dict, offsets, xi=None, normalized: bool = True, depth=None):
    """Transform of the Moran measure at xi + offsets, one value per row.

    Integer phase parts are reduced exactly mod q_k while int64 allows;
    past that (and for depth=None, until the iterates are below 1e-12)
    the phases are evaluated in floats, where the matrices are tiny.
    """
    w = np.asarray(offsets, dtype=np.int64).reshape(-1, doc["dimension"])
    base = np.zeros(doc["dimension"]) if xi is None else np.asarray(xi, dtype=float)
    scale = float(np.abs(w).max(initial=0)) + float(np.abs(base).max(initial=0)) + 1.0
    values = np.ones(len(w), dtype=complex)
    n = doc["dimension"]
    acc = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    k = 0
    while True:
        k += 1
        if depth is not None and k > depth:
            break
        mat, digits = level(doc, k, normalized)
        acc = matmul(inverse(transpose(mat)), acc)
        a_float = np.array([[float(v) for v in row] for row in acc])
        if depth is None and np.abs(a_float).max() * scale < 1e-12:
            break
        d = np.array(digits, dtype=np.int64)
        q = common_denominator(acc)
        m_int = np.array([[int(v * q) for v in row] for row in acc], dtype=object)
        dm = np.array(d.astype(object) @ m_int, dtype=object)
        if q < 2**40 and float(np.abs(dm.astype(float)).max()) * float(np.abs(w).max(initial=1)) * n < 2**62:
            ints = (dm.astype(np.int64) @ w.T) % q
            phases = ints / q + (d @ (a_float @ base))[:, None]
        else:
            phases = d @ (a_float @ (w.T + base[:, None]))
        values *= np.exp(2j * np.pi * phases).mean(axis=0)
    return values


def _adjugate_det(a):
    """(adj(a), det(a)) for a square integer matrix, exactly."""
    inv = inverse(a)
    det = _det(a)
    return [[int(v * det) for v in row] for row in inv], det


def _det(a) -> int:
    rows = [[Fraction(v) for v in row] for row in a]
    n, det = len(rows), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return int(det)


# --- decide sweep ---------------------------------------------------------------


def resample_clear(doc: dict, starts, lengths, samples: int, rng) -> bool:
    """Float resampling of the padded-box condition: images of random box
    points under (R_s^t ... R_{s+p-1}^t)^-1 stay beta away from every coset
    point (j/m) nu + Z^n of every direction class."""
    m, n = doc["prime"], doc["dimension"]
    params = doc.get("params", {})
    delta = Fraction(params.get("delta", Fraction(1, 8)))
    beta = float(Fraction(params.get("beta", Fraction(1, 8 * m))))
    half = float(Fraction(1, 2) + delta)
    families = {tuple(nu) for _, digits in levels_of(doc) for nu in brute_force_directions(digits, m)}
    targets = np.array([[(j * c % m) / m for c in nu] for nu in families for j in range(1, m)])
    for s in starts:
        acc = np.eye(n)
        for p in range(1, max(lengths) + 1):
            acc = acc @ np.array(level(doc, s + p - 1)[0], dtype=float).T
            if p not in lengths:
                continue
            images = rng.uniform(-half, half, size=(samples, n)) @ np.linalg.inv(acc).T
            diff = images[:, None, :] - targets[None, :, :]
            dist = np.sqrt(((diff - np.round(diff)) ** 2).sum(axis=2))
            if (dist < beta - 1e-9).any():
                return False
    return True


def _slot_count(doc: dict) -> int:
    return len(doc.get("preamble", [])) + len(doc["cycle"])


def _cycle_starts(doc: dict):
    pre = len(doc.get("preamble", []))
    return range(pre + 1, pre + len(doc["cycle"]) + 1)


def check_directions(doc: dict, table: dict, command: str) -> None:
    m = doc["prime"]
    for k, (_, digits) in enumerate(levels_of(doc), start=1):
        want = [list(nu) for nu in brute_force_directions(digits, m)]
        got = table.get(str(k))
        if command == "zeros":
            require(got is not None and [e["direction"] for e in got] == want, f"level {k}: zeros {got} != {want}")
            flags = [all(1 <= c <= m - 1 for c in nu) for nu in want]
            require([e["model_compliant"] for e in got] == flags, f"level {k}: compliance flags {got}")
        else:
            require(got == want, f"level {k}: validate directions {got} != {want}")


def expected_route(doc: dict) -> str:
    """Criterion decide must use, from the generated matrices and digits."""
    m = doc["prime"]
    levels = levels_of(doc)
    if all(is_diagonal(mat) for mat, _ in levels):
        return "diagonal-divisibility"
    if all(len(brute_force_directions(d, m)) == 1 for _, d in levels):
        common = set.intersection(*(template_kinds(mat) for mat, _ in levels))
        return "triangular-template" if common else "single-direction-divisibility"
    return "block-construction-sufficiency"


def check_decide(doc: dict, report: dict, code: int, rng) -> None:
    m = doc["prime"]
    verdict, criterion = report["verdict"], report["criterion"]
    require(code == {"Spectral": 0, "NotSpectral": 1}.get(verdict, 2), f"exit {code} for {verdict}")
    route = expected_route(doc)
    require(criterion == route, f"criterion {criterion}, expected {route}")
    later = levels_from_two(doc)
    diag_ok = all(mat[i][i] % m == 0 for mat, _ in later for i in range(len(mat)))
    if route in ("diagonal-divisibility", "triangular-template"):
        want = "Spectral" if diag_ok else "NotSpectral"
        require(verdict == want, f"{route}: verdict {verdict}, diagonal divisibility says {want}")
        return
    divisible = [any(divides_row(mat, nu, m) for nu in brute_force_directions(d, m)) for mat, d in later]
    if route == "single-direction-divisibility":
        if verdict == "NotSpectral":
            require(not all(divisible), "NotSpectral although every level >= 2 divides its direction")
        elif verdict == "Unknown":
            require(report["certificate"].get("admissibility") != "certified", "Unknown with a certified box condition")
    require(verdict != "NotSpectral" or route != "block-construction-sufficiency", "block construction said NotSpectral")
    if verdict == "Spectral":
        require(all(divisible), "Spectral although some level >= 2 has no direction with m | nu^t R")
        starts = _cycle_starts(doc)
        require(resample_clear(doc, starts, (1, 2, 3), 400, rng), "Spectral but resampling finds a box violation")


def check_admissible(doc: dict, report: dict, code: int, weak: bool, rng) -> None:
    body = report["report"]
    status = body["status"]
    require(code == {"certified": 0, "violation": 1}.get(status, 2), f"exit {code} for {status}")
    per_start = body["products_checked"] // _slot_count(doc)
    require(body["products_checked"] == per_start * _slot_count(doc), "products_checked is not per start level")
    if weak:
        require(per_start >= 4, f"weak system checked products only up to length {per_start}")
    if status == "certified":
        starts = range(body["start_level"] + 1, _slot_count(doc) + 1)
        # an unconditional certificate covers every length, else those checked
        lengths = (1, 2, 3) if body["unconditional"] else tuple(range(1, min(per_start, 4) + 1))
        if lengths:
            require(resample_clear(doc, starts, lengths, 400, rng), "certified but resampling finds a box violation")


def mask_value(digits, xi) -> complex:
    phases = np.array(digits, dtype=float).reshape(len(digits), -1) @ np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(np.exp(2j * np.pi * phases).mean())


def check_off_coset(doc: dict, xi, report: dict, code: int) -> bool:
    """True when decide answered Spectral or NotSpectral (the known fault)."""
    for _, digits in levels_of(doc):
        require(abs(mask_value(digits, xi)) < 1e-12, f"mask does not vanish at {xi}")
    require((Fraction(xi) * doc["prime"]).denominator != 1, "xi lies on a coset line (j/m) + Z")
    if "error" in report:
        require(code == 3 and report["error"]["code"] == "zero-structure", f"unexpected error {report['error']}")
        return False
    if report["verdict"] == "Unknown":
        require(bool(report["caveats"]), "Unknown without a caveat")
        return False
    return True


def check_sweep_op(command: str, doc: dict, slot, code: int, text: str, rng) -> None:
    report = json.loads(text)
    require("error" not in report, f"{command} rejected a valid system: {report.get('error')}")
    if command == "validate":
        require(code == 0, f"validate exit {code}")
        check_directions(doc, report["zero_directions"], command)
    elif command == "zeros":
        require(code == 0, f"zeros exit {code}")
        check_directions(doc, report["report"], command)
    elif command == "decide":
        check_decide(doc, report, code, rng)
    else:
        check_admissible(doc, report, code, slot[3], rng)


# --- spectrum build -------------------------------------------------------------


def block_matrices(doc: dict, K: int, blocks: int):
    """R~_b = R_{(b+1)K} ... R_{bK+1} of the normalized system."""
    out = []
    for b in range(blocks):
        acc = None
        for k in range(b * K + 1, (b + 1) * K + 1):
            mat = level(doc, k, normalized=True)[0]
            acc = mat if acc is None else matmul(mat, acc)
        out.append(acc)
    return out


def check_block(doc: dict, K: int, rtilde, digits, labels) -> None:
    """m^K distinct labels in R~^t(-1/2, 1/2]^n, and a unitary numpy Gram matrix."""
    m = doc["prime"]
    size = m**K
    require(len(labels) == size and len(set(map(tuple, labels))) == size, "labels are not m^K distinct vectors")
    require(len(digits) == size and len(set(map(tuple, digits))) == size, "digits are not m^K distinct vectors")
    inv_t = inverse(transpose(rtilde))
    half = Fraction(1, 2)
    for lab in labels:
        y = [sum(inv_t[i][j] * lab[j] for j in range(len(lab))) for i in range(len(lab))]
        require(all(-half < c <= half for c in y), f"label {tuple(lab)} lies outside R~^t(-1/2, 1/2]^n")
    adj, det = _adjugate_det(rtilde)
    d = np.array(digits, dtype=object)
    lab = np.array(labels, dtype=object)
    num = (lab @ np.array(adj, dtype=object) @ d.T) % abs(det)  # <R~^-1 d, l> * |det|, mod |det|
    if det < 0:
        num = (-num) % abs(det)
    h = np.exp(2j * np.pi * num.astype(float) / abs(det)) / np.sqrt(size)
    gram = h.conj() @ h.T
    err = float(np.abs(gram - np.eye(size)).max())
    require(err < 1e-9, f"Gram matrix differs from I by {err:.3e}")


def check_levels(doc: dict, K: int, rtildes, levels, containment: list) -> None:
    """Nested prefixes of size m^(K(k+1)); certified levels inside the padded box."""
    m = doc["prime"]
    delta = Fraction(doc.get("params", {}).get("delta", Fraction(1, 8)))
    bound = Fraction(1, 2) + delta / 4
    prod = None
    for k, elements in enumerate(levels):
        require(len(elements) == m ** (K * (k + 1)), f"level {k} has {len(elements)} elements")
        require(len(set(elements)) == len(elements), f"level {k} elements collide")
        if k:
            require(elements[: len(levels[k - 1])] == levels[k - 1], f"level {k - 1} is not a prefix of level {k}")
        rt = transpose(rtildes[k])
        prod = rt if prod is None else matmul(prod, rt)
        require(containment[k], f"level {k} at the certified block size was not checked for containment")
        adj, det = _adjugate_det(prod)
        y = np.array(elements, dtype=object) @ np.array(adj, dtype=object).T
        worst = max(abs(int(v)) for v in y.ravel())
        require(Fraction(worst, abs(det)) <= bound, f"level {k} leaves the padded box: {Fraction(worst, abs(det))}")


# --- fourier verification --------------------------------------------------------


def distinct_differences(points) -> np.ndarray:
    p = np.asarray(points, dtype=np.int64)
    diffs = (p[:, None, :] - p[None, :, :]).reshape(-1, p.shape[1])
    diffs = np.unique(diffs, axis=0)
    return diffs[np.abs(diffs).sum(axis=1) > 0]


def max_transform_on_differences(doc: dict, points) -> float:
    return float(np.abs(transform(doc, distinct_differences(points))).max())


def check_orthogonal(doc: dict, points, passed: bool, witnesses) -> None:
    worst = max_transform_on_differences(doc, points)
    require(worst < ZERO_TOL, f"numpy finds a difference with |transform| = {worst:.3e}")
    require(passed and not witnesses, "verify_orthogonality rejected an orthogonal set")


def check_not_orthogonal(doc: dict, points, passed: bool, witnesses) -> None:
    require(not passed and witnesses, "verify_orthogonality accepted a set with an extra point")
    worst = max_transform_on_differences(doc, points)
    require(worst > NONZERO_TOL, "numpy finds every difference in the zero set")
    for p, q, d in witnesses[:10]:
        diff = tuple(a - b for a, b in zip(p, q))
        require(tuple(d) in (diff, tuple(-c for c in diff)), f"witness {d} is not +-({p} - {q})")
        value = abs(transform(doc, [d])[0])
        require(value > NONZERO_TOL, f"witness {d} has |transform| = {value:.3e}")


def quadratic_sums(doc: dict, elements, sizes, xi, depth: int):
    """Q_k(xi) = sum over the first sizes[k] elements of |F_depth(xi + lambda)|^2."""
    sq = np.abs(transform(doc, elements, xi=xi, depth=depth)) ** 2
    return np.cumsum(sq)[np.asarray(sizes) - 1]


def check_completeness(details: dict, passed: bool, mine: dict, kernel: dict, criterion_5: bool) -> None:
    """Scan report against its bounds and against Q recomputed at a few points.

    ``mine`` and ``kernel`` map a sample point to its per-level Q from this
    module and from the program's transform kernel.
    """
    require(passed, "completeness scan failed")
    allowance = details["numeric_allowance"]
    require(details["max_q"] <= 1 + allowance, f"max Q {details['max_q']} exceeds 1 + {allowance:.3e}")
    if criterion_5:
        require(details["final_gap"] <= 0.02, f"final gap {details['final_gap']}")
        require(details["certified_tail"] <= 1e-3, f"certified tail {details['certified_tail']}")
    for xi, q in mine.items():
        other = kernel[xi]
        require(float(np.abs(q - other).max()) <= 1e-9, f"Q at {xi}: {q} vs kernel {other}")
        gaps = details["max_gap_per_level"]
        require(all(1 - v <= g + 1e-9 for v, g in zip(q, gaps)), f"Q at {xi} has a larger gap than reported")
        require(q[-1] <= details["max_q"] + 1e-9 and q[-1] >= details["min_final_q"] - 1e-9, f"Q at {xi} outside report")


# --- rendering -----------------------------------------------------------------


def support_floats(doc: dict, depth: int) -> np.ndarray:
    """Points sum_k (R_k ... R_1)^-1 d_k, last level fastest, as correctly
    rounded floats of exact integer numerators over a common denominator."""
    n = doc["dimension"]
    dets = [_det(level(doc, k)[0]) for k in range(1, depth + 1)]
    total = 1
    for d in dets:
        total *= abs(d)
    require(total < 2**53, "common denominator too large for exact floats")
    acc = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pts = np.zeros((1, n), dtype=np.int64)
    for k in range(1, depth + 1):
        mat, digits = level(doc, k)
        acc = matmul(acc, inverse(mat))
        scaled = np.array([[int(v * total) for v in row] for row in acc], dtype=np.int64)
        terms = np.array(digits, dtype=np.int64) @ scaled.T
        pts = (pts[:, None, :] + terms[None, :, :]).reshape(-1, n)
    require(len(np.unique(pts, axis=0)) == len(pts), "independent point sums collide")
    return pts.astype(float) / float(total)


def check_cloud(doc: dict, depth: int, size: int, distinct: int) -> None:
    want = doc["prime"] ** depth
    require(size == want and distinct == want, f"{size} points ({distinct} distinct), expected {want}")


def check_csv(text: str, points: np.ndarray) -> None:
    rows = [tuple(float(v) for v in line.split(",")) for line in text.splitlines() if line]
    require(len(rows) == len(points), f"CSV has {len(rows)} rows for {len(points)} points")
    err = float(np.abs(np.array(rows) - points).max())
    require(err <= 1e-9, f"CSV rows differ from the numpy sums by {err:.3e}")


def check_svg(text: str, count: int) -> None:
    rects = text.count("<rect ")
    require(rects == count, f"SVG has {rects} rects for {count} points")


def _pixel_positions(points: np.ndarray, width: int, height: int) -> int:
    x = points[:, 0]
    y = points[:, 1] if points.shape[1] > 1 else np.zeros(len(points))
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    pad_x, pad_y = max(x1 - x0, 1e-9) * 0.05, max(y1 - y0, 1e-9) * 0.05
    x0, x1, y0, y1 = x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y
    px = np.floor((x - x0) / (x1 - x0) * (width - 1) + 0.5).astype(np.int64)
    py = np.floor((y1 - y) / (y1 - y0) * (height - 1) + 0.5).astype(np.int64)
    return len(np.unique(py * width + px))


def check_ppm(raw: bytes, points: np.ndarray) -> None:
    header, body = raw.split(b"\n", 1)
    magic, width, height, _ = header.split()
    require(magic == b"P6", "not a binary PPM")
    width, height = int(width), int(height)
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
    require(len(pixels) == width * height, "PPM body has the wrong size")
    dark = int((pixels[:, 0] < 128).sum())
    want = _pixel_positions(points, width, height)
    require(dark == want, f"PPM has {dark} dark pixels, {want} distinct pixel positions expected")

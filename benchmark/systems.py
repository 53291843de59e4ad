"""Inputs of the benchmark: the repository fixtures, a few fixed systems, and
seeded system files for the decide sweep.

Everything here is plain Python plus numpy and does not import moranspec,
so the oracles that use these helpers stay independent of the program.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def fixture_doc(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


# Three-dimensional diagonal system for render-cloud: the mod-3 set
# {0, (1,1,0), (0,1,1)} (zero direction (1,1,0)) under R = 3I.
CUBE_3D = {
    "dimension": 3,
    "prime": 3,
    "cycle": [{"R": [[3, 0, 0], [0, 3, 0], [0, 0, 3]], "D": [[0, 0, 0], [1, 1, 0], [0, 1, 1]]}],
    "params": {"r": "1/3"},
}

# Digit set whose mask vanishes off the coset lines: the phases at xi = 1/6
# are {0, 1/2} and {1/6, 1/2, 5/6}, two vanishing sums. These systems do not
# depend on the seed; the correct decision is a zero-structure rejection or
# Unknown, never Spectral or NotSpectral.
OFF_COSET_DIGITS = (0, 1, 3, 9, 17)
OFF_COSET_XI = Fraction(1, 6)
OFF_COSET_SYSTEMS = (
    {"dimension": 1, "prime": 5, "cycle": [{"R": [[30]], "D": [[d] for d in OFF_COSET_DIGITS]}], "params": {"r": "1/30"}},
    {"dimension": 1, "prime": 5, "cycle": [{"R": [[30]], "D": [[d] for d in OFF_COSET_DIGITS]}]},
    {
        "dimension": 1,
        "prime": 5,
        "preamble": [{"R": [[5]], "D": [[d] for d in OFF_COSET_DIGITS]}],
        "cycle": [{"R": [[30]], "D": [[d] for d in OFF_COSET_DIGITS], "zeros": [[1]]}],
        "params": {"r": "1/5"},
    },
    {"dimension": 1, "prime": 5, "cycle": [{"R": [[60]], "D": [[d + 1] for d in OFF_COSET_DIGITS]}]},
)


# --- residue arithmetic -----------------------------------------------------


def brute_force_directions(digits, m: int) -> list:
    """Canonical zero-direction classes of ``digits`` by enumerating all residues.

    nu is a zero direction when <d, nu> mod m takes every value exactly once;
    each class {j nu mod m} is named by its least member.
    """
    n = len(digits[0])
    nus = _all_residues(n, m)
    residues = np.sort((np.array(digits, dtype=np.int64) @ nus.T) % m, axis=0)
    complete = (residues == np.arange(len(digits))[:, None]).all(axis=0) if len(digits) == m else np.zeros(len(nus), bool)
    classes = {min(tuple(j * int(c) % m for c in nu) for j in range(1, m)) for nu in nus[complete]}
    return sorted(classes)


_RESIDUES: dict = {}


def _all_residues(n: int, m: int) -> np.ndarray:
    """Every nonzero vector of (Z/m)^n, one per row."""
    if (n, m) not in _RESIDUES:
        grid = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int64)
        _RESIDUES[n, m] = grid[grid.any(axis=1)]
    return _RESIDUES[n, m]


def divides_row(matrix, nu, m: int) -> bool:
    """Whether m divides every entry of nu^t R."""
    n = len(matrix)
    return all(sum(nu[i] * matrix[i][j] for i in range(n)) % m == 0 for j in range(n))


def levels_of(doc: dict) -> list:
    """(R, D) of every level slot, preamble first."""
    return [(lvl["R"], lvl["D"]) for lvl in doc.get("preamble", []) + doc["cycle"]]


def levels_from_two(doc: dict) -> list:
    """(R, D) of every slot that occurs at some level index >= 2."""
    pre = doc.get("preamble", [])
    slots = pre[1:] + doc["cycle"]
    return [(lvl["R"], lvl["D"]) for lvl in slots]


def is_diagonal(matrix) -> bool:
    return all(matrix[i][j] == 0 for i in range(len(matrix)) for j in range(len(matrix)) if i != j)


def template_kinds(matrix) -> set:
    """Constant-band triangular shapes the matrix has."""
    n = len(matrix)
    diag = [matrix[i][i] for i in range(n)]
    want = {
        "upper-row": lambda i, j: diag[i] if j >= i else 0,
        "upper-col": lambda i, j: diag[j] if j >= i else 0,
        "lower-row": lambda i, j: diag[i] if j <= i else 0,
        "lower-col": lambda i, j: diag[j] if j <= i else 0,
    }
    return {k for k, f in want.items() if all(matrix[i][j] == f(i, j) for i in range(n) for j in range(n))}


def inverse_norm(matrix) -> float:
    return float(np.linalg.norm(np.linalg.inv(np.array(matrix, dtype=float)), 2))


# --- seeded generation ------------------------------------------------------

COMMANDS = ("validate", "zeros", "decide", "admissible")

# (family, n, m, weak); weak systems have an inverse norm in [0.8, 0.86], so
# the admissibility tail threshold is at least 5 and products of length >= 4
# are checked explicitly. Other systems keep the norm at most 1/2, which
# leaves the slow tail of the sweep to the weak ones.
# A single zero direction needs n = 2 when m = 3: three digits in three
# dimensions always leave at least three direction classes.
SLOTS = tuple(
    [("diagonal", n, m, False) for n in (1, 2, 3) for m in (3, 5, 7)]
    + [(fam, n, m, False) for fam in ("triangular", "single") for n in (2, 3) for m in (3, 5, 7) if (n, m) != (3, 3)]
    + [("multi", n, m, False) for n in (2, 3) for m in (3, 5, 7)]
    + [("single", 2, 3, True), ("multi", 2, 3, True), ("single", 2, 5, True)]
)
OFF_COSET_EVERY = 60  # every 60th operation decides one of the off-coset systems
# The slowest systems, the weak ones and the three-dimensional
# multi-direction ones, are drawn from this fixed seed, so the operations
# that set op_p99_ms are the same on every seed; the run's seed draws all
# other systems.
TAIL_SEED = 20250509


def in_tail(slot) -> bool:
    family, n, _, weak = slot
    return weak or (family == "multi" and n == 3)


def _digits_for(rng: random.Random, n: int, m: int, directions: list) -> list:
    """m distinct digits whose residues along each direction are complete.

    The first direction gets residues 0..m-1 in order, every further one a
    random permutation; one coordinate per direction is solved mod m, the
    rest are random.
    """
    perms = [list(range(m))] + [rng.sample(range(m), m) for _ in directions[1:]]
    k = len(directions)
    for _ in range(200):
        cols = rng.sample(range(n), k)
        minor = [[directions[a][c] for c in cols] for a in range(k)]
        if k == 1:
            det = minor[0][0] % m
        else:
            det = (minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0]) % m
        if det:
            break
    else:
        raise RuntimeError("no invertible minor")
    det_inv = pow(det, -1, m)
    digits = set()
    out = []
    for j in range(m):
        while True:
            v = [rng.randint(-1, 2) for _ in range(n)]
            for c in cols:
                v[c] = 0
            rhs = [(perms[a][j] - sum(directions[a][i] * v[i] for i in range(n))) % m for a in range(k)]
            if k == 1:
                sol = [rhs[0] * det_inv % m]
            else:
                sol = [
                    (minor[1][1] * rhs[0] - minor[0][1] * rhs[1]) * det_inv % m,
                    (minor[0][0] * rhs[1] - minor[1][0] * rhs[0]) * det_inv % m,
                ]
            for c, s in zip(cols, sol):
                v[c] = s - m * rng.randint(0, 1)
            if tuple(v) not in digits:
                digits.add(tuple(v))
                out.append(v)
                break
    return out


def _random_direction(rng: random.Random, n: int, m: int) -> tuple:
    while True:
        nu = tuple(rng.randrange(m) for _ in range(n))
        if any(nu):
            return nu


def _digit_set(rng: random.Random, n: int, m: int, classes: str) -> list:
    """Digit set with exactly one direction class ("one"), at least two
    ("many"), or any number ("any")."""
    while True:
        first = _random_direction(rng, n, m)
        dirs = [first]
        if classes == "many":
            second = _random_direction(rng, n, m)
            if not _independent(first, second, m):
                continue
            dirs.append(second)
        digits = _digits_for(rng, n, m, dirs)
        count = len(brute_force_directions(digits, m))
        if classes == "any" or (count >= 2) == (classes == "many"):
            return digits


def _independent(a, b, m) -> bool:
    return any((a[i] * b[j] - a[j] * b[i]) % m for i in range(len(a)) for j in range(len(a)))


def _diag_entry(rng: random.Random, m: int, divisible: bool) -> int:
    if divisible:
        return m * rng.choice((1, 2))
    return rng.choice((m + 1, m + 2, 2 * m - 1, 2 * m + 1))


def _matrix(rng: random.Random, family: str, n: int, m: int, divisible: bool, weak: bool, kind: str):
    """Level matrix of the family; ``divisible`` asks for m | R entrywise
    (every direction then divides), which a spectral verdict needs."""
    lo, hi = (0.8, 0.86) if weak else (0.0, 0.5)
    for _ in range(10_000):
        if family == "diagonal":
            mat = [[_diag_entry(rng, m, divisible) if i == j else 0 for j in range(n)] for i in range(n)]
        elif family == "triangular":
            diag = [_diag_entry(rng, m, divisible) for _ in range(n)]
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    upper = j >= i if kind.startswith("upper") else j <= i
                    if upper:
                        mat[i][j] = diag[i] if kind.endswith("row") else diag[j]
        else:
            spread = (4 if divisible else 3 * m) if weak else 2
            base = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                base[i][i] = rng.choice((1, 2)) if divisible else rng.choice((m, m + 1, 2 * m))
            if divisible:
                mat = [[m * v for v in row] for row in base]
            else:
                mat = base
                mat[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
            if is_diagonal(mat) or template_kinds(mat):
                continue
        if abs(round(np.linalg.det(np.array(mat, dtype=float)))) < 1:
            continue
        norm = inverse_norm(mat)
        if lo <= norm <= hi:
            return mat
    raise RuntimeError(f"no {family} matrix for n={n}, m={m}, weak={weak}")


def generate_system(rng: random.Random, slot, variant: int) -> dict:
    """One system description document for the slot and variant bits."""
    family, n, m, weak = slot
    with_preamble = bool(variant & 1)
    give_r = bool(variant & 2)
    list_zeros = bool(variant & 4)
    spectral_target = bool(variant & 8)
    kind = rng.choice(("upper-row", "upper-col", "lower-row", "lower-col"))
    n_levels = (1 if with_preamble else 0) + rng.choice((1, 2))
    classes = {"diagonal": "any", "multi": "many"}.get(family, "one")
    shared_digits = None
    if family in ("single", "triangular") or rng.random() < 0.5:
        shared_digits = _digit_set(rng, n, m, classes)
    levels = []
    for idx in range(n_levels):
        first = idx == 0 and with_preamble
        divisible = spectral_target or first or rng.random() < 0.5
        if not spectral_target and idx == n_levels - 1:
            divisible = False
        mat = _matrix(rng, family, n, m, divisible, weak and not first, kind)
        digits = shared_digits or _digit_set(rng, n, m, classes)
        level = {"R": mat, "D": digits}
        if list_zeros:
            mult = rng.randrange(1, m)
            level["zeros"] = [[mult * c for c in nu] for nu in brute_force_directions(digits, m)]
        levels.append(level)
    doc = {"dimension": n, "prime": m}
    if with_preamble:
        doc["preamble"] = levels[:1]
        doc["cycle"] = levels[1:]
    else:
        doc["cycle"] = levels
    if give_r:
        worst = max(inverse_norm(lvl["R"]) for lvl in levels)
        doc["params"] = {"r": str(Fraction(int(worst * 1.02 * 1000) + 1, 1000))}
    return doc


def decide_sweep_inputs(seed: int, count: int) -> list:
    """``count`` (command, document, slot) triples in a fixed mix.

    The command, family, dimension, prime and variant bits depend only on
    the position, so every seed has the same mix; the seed draws the
    matrices and digit sets. Every OFF_COSET_EVERY-th position decides one
    of the fixed off-coset systems.
    """
    rng, tail_rng = random.Random(seed), random.Random(TAIL_SEED)
    out = []
    for i in range(count):
        if i % OFF_COSET_EVERY == OFF_COSET_EVERY - 1:
            k = (i // OFF_COSET_EVERY) % len(OFF_COSET_SYSTEMS)
            out.append(("decide", OFF_COSET_SYSTEMS[k], None))
            continue
        j = i // len(COMMANDS)
        slot, variant = SLOTS[j % len(SLOTS)], j % 16
        out.append((COMMANDS[i % len(COMMANDS)], generate_system(tail_rng if in_tail(slot) else rng, slot, variant), slot))
    return out

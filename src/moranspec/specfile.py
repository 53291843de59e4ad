"""System description files: JSON documents naming levels and parameters.

Document shape:

    {
      "dimension": 2,
      "prime": 5,
      "preamble": [ {"R": [[5,0],[0,5]], "D": [[0,0],[1,0],...]} ],
      "cycle":    [ {"R": [[10,0],[0,5]], "D": [[0,0],...], "zeros": [[1,1]]} ],
      "params":   {"r": "1/5", "delta": "1/8", "beta": "1/40", "c": 1}
    }

``zeros`` is optional per level (computed when absent, verified when
present). Numeric params accept integers, floats and "p/q" strings, not
booleans; "dimension", "prime" and every matrix, digit and zeros entry
must be an integer value, not a string.
Violations surface as ValidationFailure with a machine-readable code.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import ValidationFailure
from .system import MoranSystem, build_system


def parse_number(value, where: str):
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationFailure("format", f"{where}: cannot parse number {value!r}", where) from exc
    raise ValidationFailure("format", f"{where}: expected a number, got {type(value).__name__}", where)


def _levels(doc, key):
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ValidationFailure("format", f"{key} must be a list of levels", key)
    out = []
    for i, item in enumerate(raw):
        where = f"{key}[{i}]"
        if not isinstance(item, dict) or "R" not in item or "D" not in item:
            raise ValidationFailure("format", f"{where}: level needs matrix rows 'R' and digit list 'D'", where)
        out.append((item["R"], item["D"], item.get("zeros")))
    return out


def load_document(doc: dict) -> MoranSystem:
    if not isinstance(doc, dict):
        raise ValidationFailure("format", "top level must be a JSON object")
    for field in ("dimension", "prime"):
        if field not in doc:
            raise ValidationFailure("format", f"missing required field {field!r}", field)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationFailure("format", "params must be an object", "params")
    r = parse_number(params.get("r"), "params.r")
    delta = parse_number(params.get("delta"), "params.delta")
    beta = parse_number(params.get("beta"), "params.beta")
    c = parse_number(params.get("c"), "params.c")
    return build_system(
        dimension=doc["dimension"],
        prime=doc["prime"],
        preamble=_levels(doc, "preamble"),
        cycle=_levels(doc, "cycle"),
        r=r,
        delta=delta,
        beta=beta,
        c=float(c) if c is not None else 1.0,
    )


def load_system(path) -> MoranSystem:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationFailure("format", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationFailure("format", f"{path}: invalid JSON ({exc})") from exc
    return load_document(doc)

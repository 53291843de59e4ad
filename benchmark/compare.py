"""Compare the per-layer metrics of two traced runs.

    python3 benchmark/compare.py BEFORE AFTER

BEFORE and AFTER are trace files written by ``run.py --trace 1``
(benchmark/out/trace-<workload>-seed<n>.json), or files holding such a
run's standard output. For every layer it prints each metric in both runs
and the change, so a performance change can show where its saving appears.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path


def load(path) -> dict:
    """{metric: (value, unit)} from a trace file or a captured result line."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = json.loads(text.strip().splitlines()[-1])
    result = doc.get("result", doc)
    return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}


def rows(before: dict, after: dict):
    """(layer, metric, unit, before, after, change, relative change or None)."""
    names = list(before) + [n for n in after if n not in before]
    for name in names:
        a, unit = before.get(name, (None, after.get(name, (None, ""))[1]))
        b = after.get(name, (None, unit))[0]
        change = None if a is None or b is None else b - a
        rel = change / a if change is not None and a else None
        yield name.split(".")[0], name, unit, a, b, change, rel


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    table = list(rows(load(args.before), load(args.after)))
    first_seen = {}
    for row in table:
        first_seen.setdefault(row[0], len(first_seen))
    table.sort(key=lambda row: first_seen[row[0]])
    print(f"{'metric':<40} {'unit':<6} {'before':>14} {'after':>14} {'change':>14} {'%':>8}")
    for layer, group in itertools.groupby(table, key=lambda r: r[0]):
        print(f"[{layer}]")
        for _, name, unit, a, b, change, rel in group:
            pct = "-" if rel is None else f"{100 * rel:+.1f}"
            print(f"  {name:<38} {unit:<6} {_fmt(a):>14} {_fmt(b):>14} {_fmt(change):>14} {pct:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

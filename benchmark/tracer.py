"""Spans around calls into moranspec's layers, for the traced run.

Each public function named in WRAPS is replaced, at the module attribute
where its caller looks it up, by a wrapper that records a span (name,
start, end, parent, operation) in memory. Counts that describe the work of
a call are taken from its arguments and result after the span has ended;
any that cost more than O(1) are deferred until the run is over, so they
do not inflate the enclosing span.
"""
from __future__ import annotations

import functools
import importlib
import os
from fractions import Fraction

import oracles

# (module whose attribute is replaced, attribute, span name). A function
# looked up from several modules is wrapped in each, under one name.
WRAPS = (
    ("moranspec.cli", "main", "cli.main"),
    ("moranspec.cli", "load_system", "specfile.load_system"),
    ("moranspec.specfile", "build_system", "system.build_system"),
    ("moranspec.system", "find_zero_directions", "masks.find_zero_directions"),
    ("moranspec.decider", "find_zero_directions", "masks.find_zero_directions"),
    ("moranspec.system", "check_contraction", "exact.check_contraction"),
    ("moranspec.system", "operator_norm_upper", "exact.operator_norm_upper"),
    ("moranspec.cli", "decide", "decider.decide"),
    ("moranspec.cli", "admissibility_scan", "decider.admissibility_scan"),
    ("moranspec.decider", "admissibility_scan", "decider.admissibility_scan"),
    ("moranspec.builder", "normalize_first_level", "builder.normalize_first_level"),
    ("moranspec.cli", "normalize_first_level", "builder.normalize_first_level"),
    ("moranspec.builder", "build_blocks", "builder.build_blocks"),
    ("moranspec.cli", "build_blocks", "builder.build_blocks"),
    ("moranspec.builder", "spectrum_levels", "builder.spectrum_levels"),
    ("moranspec.cli", "spectrum_levels", "builder.spectrum_levels"),
    ("moranspec.builder", "is_compatible_pair", "pairs.is_compatible_pair"),
    ("moranspec.exact", "cyclotomic_vanishes", "exact.cyclotomic_vanishes"),
    ("moranspec.analyzer", "verify_orthogonality", "analyzer.verify_orthogonality"),
    ("moranspec.analyzer", "find_zero_level", "analyzer.find_zero_level"),
    ("moranspec.analyzer", "completeness_scan", "analyzer.completeness_scan"),
    ("moranspec.analyzer", "transform_batch_multi", "analyzer.transform_batch_multi"),
    ("moranspec.render", "support_points", "render.support_points"),
    ("moranspec.render", "render", "render.render"),
)

# Per-layer metrics reported by a traced run: (name, unit, better). Times and
# counts are per pass; the *_mb figures are maxima over calls.
PER_LAYER = (
    ("cli.main.self_s", "s", "lower"),
    ("specfile.load_system.self_s", "s", "lower"),
    ("system.build_system.self_s", "s", "lower"),
    ("masks.find_zero_directions.s", "s", "lower"),
    ("masks.find_zero_directions.calls", "count", "lower"),
    ("exact.check_contraction.s", "s", "lower"),
    ("exact.operator_norm_upper.s", "s", "lower"),
    ("decider.decide.self_s", "s", "lower"),
    ("decider.admissibility_scan.s", "s", "lower"),
    ("decider.products_checked", "count", "lower"),
    ("builder.normalize_first_level.s", "s", "lower"),
    ("builder.build_blocks.self_s", "s", "lower"),
    ("pairs.is_compatible_pair.self_s", "s", "lower"),
    ("pairs.is_compatible_pair.calls", "count", "lower"),
    ("pairs.label_pairs", "count", "lower"),
    ("pairs.distinct_diff_ratio", "ratio", "higher"),
    ("exact.cyclotomic_vanishes.s", "s", "lower"),
    ("exact.cyclotomic_vanishes.calls", "count", "lower"),
    ("builder.spectrum_levels.s", "s", "lower"),
    ("builder.spectrum_elements", "count", "lower"),
    ("analyzer.verify_orthogonality.self_s", "s", "lower"),
    ("analyzer.orth_pairs", "count", "lower"),
    ("analyzer.orth_distinct_ratio", "ratio", "higher"),
    ("analyzer.find_zero_level.s", "s", "lower"),
    ("analyzer.find_zero_level.calls", "count", "lower"),
    ("analyzer.completeness_scan.self_s", "s", "lower"),
    ("analyzer.transform_batch_multi.s", "s", "lower"),
    ("analyzer.transform_evals", "count", "lower"),
    ("analyzer.transform_matrix_mb", "MB", "lower"),
    ("analyzer.root_table_mb", "MB", "lower"),
    ("render.support_points.s", "s", "lower"),
    ("render.points", "count", "lower"),
    ("render.render.csv.s", "s", "lower"),
    ("render.render.svg.s", "s", "lower"),
    ("render.render.ppm.s", "s", "lower"),
    ("render.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("host.reference_ms", "ms", "lower"),
)
MAX_COUNTS = ("analyzer.transform_matrix_mb", "analyzer.root_table_mb")


def _distinct_differences(labels) -> int:
    """Distinct nonzero label differences up to sign."""
    seen = set()
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            d = tuple(x - y for x, y in zip(a, b))
            seen.add(max(d, tuple(-x for x in d)))
    return len(seen)


def _largest_denominator(system, depth: int) -> int:
    """Largest q with (R_1^t ... R_k^t)^-1 in (1/q) Z^{n x n}, k <= depth."""
    n = system.dimension
    acc = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    best = 1
    for k in range(1, depth + 1):
        rows = [list(r) for r in system.level(k).matrix.rows]
        acc = oracles.matmul(oracles.inverse(oracles.transpose(rows)), acc)
        best = max(best, oracles.common_denominator(acc))
    return best


# Counts per span name: called with (args, kwargs, result) right after the
# span ends; returns a dict, or a callable returning one to run at the end.
def _pairs_counts(args, kwargs, result):
    labels = args[2] if len(args) > 2 else kwargs["labels"]
    n = len(labels)
    return lambda: {"pairs.label_pairs": n * (n - 1) // 2, "pairs.distinct_diffs": _distinct_differences(labels)}


def _transform_counts(args, kwargs, result):
    system, offsets, bases, depth = args[:4]
    points, n_bases = len(offsets), len(bases)
    return lambda: {
        "analyzer.transform_evals": n_bases * points * depth,
        "analyzer.transform_matrix_mb": n_bases * points * 16 / 1e6,
        "analyzer.root_table_mb": _largest_denominator(system, depth) * 16 / 1e6,
    }


def _orth_counts(args, kwargs, result):
    n = len(args[1])
    return {"analyzer.orth_pairs": n * (n - 1) // 2, "analyzer.orth_distinct": result.details["distinct_differences"]}


COUNTS = {
    "decider.admissibility_scan": lambda a, k, r: {"decider.products_checked": r.products_checked},
    "pairs.is_compatible_pair": _pairs_counts,
    "builder.spectrum_levels": lambda a, k, r: {"builder.spectrum_elements": sum(lvl.size for lvl in r)},
    "analyzer.verify_orthogonality": _orth_counts,
    "analyzer.transform_batch_multi": _transform_counts,
    "render.support_points": lambda a, k, r: {"render.points": r.size},
    "render.render": lambda a, k, r: {"render.bytes_written": os.path.getsize(r)},
}


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, op, phase]
        self.counts = []  # (phase, op, dict or deferred callable)
        self.stack = []
        self.op = None
        self.phase = "pass"
        self._saved = []

    def install(self):
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name):
        tracer = self
        counter = COUNTS.get(name)
        by_format = name == "render.render"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = f"{name}.{args[1]}" if by_format else name
            span = [label, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, tracer.phase]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer.stack.pop()
            if counter is not None:
                tracer.counts.append((tracer.phase, tracer.op, counter(args, kwargs, result)))
            return result

        return traced

    def layer_metrics(self, passes: int, skip_ops=frozenset()) -> dict:
        """Per-layer values: pass spans and counts divided by ``passes``,
        plus whatever a traced set-up recorded, counted once. Operations in
        ``skip_ops`` (cut by their budget, so how far they got depends on
        the machine's speed) are left out."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}

        def add(key, value, phase):
            share = value / passes if phase == "pass" else value
            totals[key] = totals.get(key, 0.0) + share

        for i, (name, start, end, _, op, phase) in enumerate(self.spans):
            if phase == "pass" and op in skip_ops:
                continue
            add(f"{name}.s", end - start, phase)
            add(f"{name}.self_s", end - start - child[i], phase)
            add(f"{name}.calls", 1, phase)
        for phase, op, entry in self.counts:
            if phase == "pass" and op in skip_ops:
                continue
            for key, value in (entry() if callable(entry) else entry).items():
                if key in MAX_COUNTS:
                    totals[key] = max(totals.get(key, 0.0), value)
                else:
                    add(key, value, phase)
        totals["pairs.distinct_diff_ratio"] = _ratio(totals.get("pairs.distinct_diffs"), totals.get("pairs.label_pairs"))
        totals["analyzer.orth_distinct_ratio"] = _ratio(totals.get("analyzer.orth_distinct"), totals.get("analyzer.orth_pairs"))
        return totals

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "phase": ph}
            for n, s, e, p, op, ph in self.spans
        ]


def _ratio(num, den) -> float:
    return num / den if num and den else 0.0

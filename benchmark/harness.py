"""Pass loop, per-operation timing and budgets, and the result line.

A run sets its workload up SETUP_REPEATS times, then repeats whole passes
over the workload's fixed operation list until ``seconds`` have elapsed
(at least one pass). Each output is reduced to a summary outside the timed
region; the first pass's summaries are checked by the oracles once every
pass has ended and peak memory has been read, and later passes must
reproduce them exactly. A traced run spends half of ``seconds`` on
untraced passes and half on traced ones, and reports per-layer numbers
instead.

Times are reported as medians, so that a slow episode of the host that
covers less than half of a run moves them little: ``pass_s`` is the median
pass, and the latency quantiles are taken over each operation's median
latency across the run's passes.

The host's speed also changes by up to 1.7x for seconds to minutes at a time,
often for longer than a run, so every reported time is scaled to one
reference speed. A fixed pure-Python kernel (``reference``) is timed at the
start of each pass and after every REF_EVERY_S of operation time. Each
operation's latency is multiplied by REF_NOMINAL_S over the mean of the
reference times just before and just after it; set-up times are scaled by
the median reference time around the set-ups. The kernel is benchmark code
and does not call the program, so a change to the program moves the scaled
times as much as the wall times. An operation cut at its budget keeps its
wall time, which is the budget.
"""
from __future__ import annotations

import gc
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

SETUP_REPEATS = 3
# The reference kernel takes REF_NOMINAL_S at the host speed that scaled
# times are stated at; one sample is the median of REF_REPEATS calls.
REF_NOMINAL_S = 0.005
REF_REPEATS = 3
REF_EVERY_S = 0.3


class Incorrect(Exception):
    """An output disagrees with an oracle."""


class OpTimeout(Exception):
    """An operation ran past its time budget."""


TIMEOUT = "timeout"


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    budget: float | None = None  # seconds; a run past it is cut and counted as failed


class Workload:
    """One benchmark workload.

    ``setup(seed)`` builds the inputs (it is timed and repeated);
    ``operations()`` lists one pass; ``summarize(i, output)`` reduces an
    output to what the oracles need, which later passes must reproduce;
    ``check(summaries)`` judges the first pass and returns, per operation,
    whether it failed for a known fault, raising Incorrect for a wrong output.
    """

    name = ""
    trace_setup = False

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def operations(self) -> list:
        raise NotImplementedError

    def summarize(self, index: int, output):
        return output

    def check(self, summaries: list) -> list:
        raise NotImplementedError


def reference() -> int:
    """Fixed work with the program's mix: exact rational 3x3 products, then
    tuples hashed into a dict and probed, as label and difference sets are."""
    m = [[Fraction(i + 2 * j + 1, 3 + i) for j in range(3)] for i in range(3)]
    acc = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    seen = {}
    for _ in range(20):
        acc = [[sum(acc[i][t] * m[t][j] for t in range(3)) % 7 for j in range(3)] for i in range(3)]
        key = tuple(tuple(x.numerator % 97 for x in row) for row in acc)
        seen[key] = seen.get(key, 0) + 1
    pts = [(a * b % 101, a + b, a - b) for a in range(80) for b in range(80)]
    table = {p: i for i, p in enumerate(pts)}
    hits = sum(1 for p in pts[::2] if (p[1], p[0], p[2]) in table)
    return len(seen) + len(table) + hits


def reference_time(clock) -> float:
    times = []
    for _ in range(REF_REPEATS):
        start = clock()
        reference()
        times.append(clock() - start)
    return statistics.median(times)


def _on_alarm(signum, frame):
    raise OpTimeout()


def call(op: Op):
    """Run one operation, cutting it at its budget."""
    if op.budget is None:
        return op.run()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, op.budget)
    try:
        return op.run()
    except OpTimeout:
        return TIMEOUT
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Runner:
    def __init__(self, workload: Workload, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.tracer = None  # set for traced passes
        self.ops = []
        self.first = None  # summaries of the first pass
        self.cut = set()  # indices of operations cut by their budget
        self.changed = []  # operations whose output differed from the first pass

    def run_pass(self):
        """(per-op wall latencies, per-op scaled latencies, reference times).
        A pass's time is the sum of its operations' timed regions, so
        summarizing outputs and the reference samples are left out. Every
        pass starts from a collected heap."""
        gc.collect()
        latencies = []
        summaries = []
        refs = [reference_time(self.clock)]
        segment = []  # operation i runs between refs[segment[i]] and the next sample
        since_ref = 0.0
        for i, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op = i
            start = self.clock()
            out = call(op)
            latencies.append(self.clock() - start)
            if out is TIMEOUT:
                self.cut.add(i)
            summaries.append(self.workload.summarize(i, out))
            del out
            segment.append(len(refs) - 1)
            since_ref += latencies[-1]
            if since_ref >= REF_EVERY_S or i == len(self.ops) - 1:
                refs.append(reference_time(self.clock))
                since_ref = 0.0
        if self.first is None:
            self.first = summaries
        elif summaries != self.first:
            self.changed += [self.ops[i].name for i, (a, b) in enumerate(zip(summaries, self.first)) if a != b]
        scaled = [
            lat if i in self.cut else lat * 2 * REF_NOMINAL_S / (refs[s] + refs[s + 1])
            for i, (lat, s) in enumerate(zip(latencies, segment))
        ]
        return latencies, scaled, refs

    def run_for(self, seconds: float):
        """(scaled pass times, per-pass scaled latency lists, all reference
        times) of whole passes until ``seconds`` have elapsed."""
        times, latencies, refs = [], [], []
        start = self.clock()
        while not times or self.clock() - start < seconds:
            wall, scaled, ref = self.run_pass()
            times.append(sum(scaled))
            latencies.append(scaled)
            refs += ref
            print(f"  pass {len(times)}: {sum(wall):.3f} s, scaled {times[-1]:.3f} s", file=sys.stderr)
        return times, latencies, refs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, started: float, imported: float, clock):
    """Run one workload; returns (result dict, tracer or None)."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(clock)
    setup_times, setup_refs = [], [reference_time(clock)]
    for i in range(SETUP_REPEATS):
        traced_setup = tracer is not None and workload.trace_setup and i == SETUP_REPEATS - 1
        if traced_setup:
            tracer.phase = "setup"
            tracer.install()
        t = clock()
        try:
            workload.setup(seed)
        finally:
            if traced_setup:
                tracer.uninstall()
                tracer.phase = "pass"
        setup_times.append(clock() - t)
        setup_refs.append(reference_time(clock))
    setup_wall = (imported - started) + statistics.median(setup_times)
    setup_s = setup_wall * REF_NOMINAL_S / statistics.median(setup_refs)
    print(f"{workload.name}: setup {setup_wall:.3f} s, scaled {setup_s:.3f} s (set-ups {[round(t, 3) for t in setup_times]})", file=sys.stderr)

    runner = Runner(workload, clock)
    runner.ops = workload.operations()
    times, latencies, refs = runner.run_for(seconds if tracer is None else seconds / 2)
    peak = peak_rss_mb()
    passes = len(times)
    if tracer is not None:
        runner.tracer = tracer
        tracer.install()
        try:
            traced_times, _, traced_refs = runner.run_for(seconds / 2)
        finally:
            tracer.uninstall()
        passes += len(traced_times)

    correct, failed_per_pass = True, 0
    try:
        if runner.changed:
            raise Incorrect(f"outputs changed between passes: {sorted(set(runner.changed))[:5]}")
        flags = workload.check(runner.first)
        failed_per_pass = sum(bool(f) for f in flags)
    except Incorrect as exc:
        correct = False
        print(f"INCORRECT: {exc}", file=sys.stderr)

    if tracer is None:
        per_op = [statistics.median(op_latencies) for op_latencies in zip(*latencies)]
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak, "MB"),
            "op_p50_ms": (quantile(per_op, 0.50) * 1e3, "ms"),
            "op_p99_ms": (quantile(per_op, 0.99) * 1e3, "ms"),
        }
    else:
        from tracer import PER_LAYER

        values = tracer.layer_metrics(len(traced_times), frozenset(runner.cut))
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        values["host.reference_ms"] = statistics.median(refs + traced_refs) * 1e3
        metrics = {name: (values.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
    result = {
        "correct": correct,
        "attempted": len(runner.ops) * passes,
        "failed": failed_per_pass * passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, tracer

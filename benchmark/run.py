"""Benchmark of moranspec: one workload per run, one JSON result line.

    python3 benchmark/run.py --workload decide-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1 (the traced run also writes its spans to benchmark/out/).
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: numpy's BLAS must not start its own pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("decide-sweep", "spectrum-build", "fourier-verify", "render-cloud")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        import moranspec
    except ImportError as exc:
        print(f"cannot import moranspec from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(moranspec.__file__).resolve().parent != SRC / "moranspec":
        print(f"moranspec was imported from {moranspec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from systems import FIXTURES

    if not FIXTURES.is_dir():
        print(f"fixture directory {FIXTURES} is missing", file=sys.stderr)
        return 2
    from harness import run_workload
    from workloads import OUT, WORKLOADS

    imported = time.perf_counter()
    workload = WORKLOADS[args.workload]()
    result, tracer = run_workload(workload, args.seed, args.seconds, bool(args.trace), STARTED, imported, time.perf_counter)
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        doc = {"workload": args.workload, "seed": args.seed, "result": result, "spans": tracer.span_records()}
        path.write_text(json.dumps(doc), encoding="utf-8")
        print(f"spans written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

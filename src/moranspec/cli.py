"""Command-line front end.

Exit codes: 0 pass/Spectral, 1 fail/NotSpectral, 2 Unknown/Inconclusive,
3 input error. With --json a machine-readable report (schema 1) goes to
stdout; diagnostics always go to stderr. Reports are byte-identical for
identical inputs: timings are omitted unless --timings is given. Only main
loads the system and emits the report; a command returns its payload and
exit code, and main adds the envelope and the system's params.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .analyzer import completeness_scan, verify_orthogonality
from .builder import (
    LEVEL_CAP,
    build_blocks,
    check_level_cap,
    choose_block_size,
    normalize_first_level,
    spectrum_levels,
)
from .decider import admissibility_scan, decide
from .errors import MoranError, ValidationFailure
from .render import POINT_CAP, render, support_points
from .specfile import load_system

SCHEMA = 1


def _sanitize(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalars
        return obj.item()
    return obj


def _emit(args, payload, exit_code, start):
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    payload["timings"] = {"seconds": round(time.monotonic() - start, 3)} if args.timings else None
    if args.json:
        print(json.dumps(_sanitize(payload), sort_keys=True, indent=2))
        return exit_code
    print(f"[{args.command}]")
    for key, value in payload.items():
        if key not in ("schema", "command") and value is not None:
            print(f"  {key}: {_sanitize(value)}")
    return exit_code


def _system_summary(system):
    return {
        "dimension": system.dimension,
        "prime": system.prime,
        "preamble_levels": len(system.preamble),
        "cycle_levels": len(system.cycle),
        "r": system.r,
        "delta": str(system.delta),
        "beta": str(system.beta),
        "c": system.c,
    }


def cmd_validate(args, system):
    zeros = {str(k): [list(nu) for nu in lvl.zeros.directions] for k, lvl in system.levels_from(1)}
    return {"report": "valid", "zero_directions": zeros}, 0


def cmd_zeros(args, system):
    table = {}
    for k, lvl in system.levels_from(1):
        table[str(k)] = [
            {"direction": list(nu), "model_compliant": ok}
            for nu, ok in zip(lvl.zeros.directions, lvl.zeros.model_compliant)
        ]
    return {"report": table}, 0


def cmd_decide(args, system):
    verdict = decide(system, horizon=args.horizon)
    payload = {
        "verdict": verdict.outcome,
        "criterion": verdict.criterion,
        "witnesses": verdict.certificate.get("witness"),
        "certificate": verdict.certificate,
        "caveats": list(verdict.caveats),
    }
    return payload, verdict.exit_code


def _prepare_blocks(system, args, top, containment):
    """Choose K, take --block-size over it or fit it to an explicit --cap, test the cap and --depth,
    then build the normalized system's blocks and levels 0..top.

    Returns (back, decomposition, levels) with ``back`` from ``normalize_first_level``;
    ``containment`` is the ``enforce_containment`` of ``spectrum_levels``.
    """
    cap = args.cap or LEVEL_CAP
    normalized, back = normalize_first_level(system)
    K = choose_block_size(normalized)  # a missing admissible direction is reported before any cap
    if args.block_size is not None:
        K = args.block_size
    else:
        while args.cap and normalized.prime ** (K * (top + 1)) > cap and K > 1:
            K -= 1
    check_level_cap(normalized.prime, K, top, cap)
    _check_sizes(args, depth=(top + 1) * K)
    decomp = build_blocks(normalized, K=K, blocks=top + 1)
    return back, decomp, spectrum_levels(decomp, top, cap=cap, enforce_containment=containment)


def cmd_spectrum(args, system):
    back, decomp, levels = _prepare_blocks(system, args, args.levels, None)
    report = {
        "block_size": decomp.K,
        "certified_block_size": decomp.certified_K,
        "meets_certified_bound": decomp.meets_certified_bound,
        "level_sizes": [lvl.size for lvl in levels],
        "containment_checked": [lvl.containment_checked for lvl in levels],
        "normalized_first_level": decomp.system is not system,
        "spectrum_transform_back": [[str(v) for v in row] for row in back.rows],
        "top_level_sample": levels[-1].nums[:10].tolist(),
    }
    return {"report": report}, 0


def cmd_verify_orth(args, system):
    _, decomp, levels = _prepare_blocks(system, args, args.level, False)
    report = verify_orthogonality(decomp.system, levels[args.level].nums)
    payload = {
        "report": {
            "passed": report.passed,
            "block_size": decomp.K,
            "level": args.level,
            "points": report.details["points"],
            "distinct_differences": report.details["distinct_differences"],
        },
        "witnesses": [list(map(list, w)) for w in report.witnesses[:10]],
    }
    return payload, 0 if report.passed else 1


def cmd_verify_complete(args, system):
    _, decomp, levels = _prepare_blocks(system, args, args.levels, None)
    report = completeness_scan(
        decomp.system,
        levels,
        grid=args.grid,
        depth=args.depth,
        extra_points=args.extra_points,
        seed=args.seed,
        gap_tol=args.gap_tol,
    )
    payload = {
        "report": {"passed": report.passed, "block_size": decomp.K, **report.details},
        "witnesses": [list(map(str, w)) for w in report.witnesses[:10]],
    }
    return payload, 0 if report.passed else 1


def cmd_admissible(args, system):
    result = admissibility_scan(system, horizon=args.horizon)
    payload = {
        "report": {
            "status": result.status,
            "unconditional": result.unconditional,
            "horizon": result.horizon,
            "tail_start": result.tail_start,
            "start_level": result.start_level,
            "products_checked": result.products_checked,
        },
        "witnesses": result.witness,
        "caveats": list(result.caveats),
    }
    return payload, result.exit_code


def cmd_render(args, system):
    cloud = support_points(system, args.level, cap=args.cap or POINT_CAP)
    out = render(cloud, args.format, args.out, size=args.size)
    lo, hi = cloud.bounding_box()
    report = {
        "points": cloud.size,
        "depth": cloud.depth,
        "format": args.format,
        "out": str(out),
        "bounding_box": [[str(v) for v in lo], [str(v) for v in hi]],
    }
    return {"report": report}, 0


@lru_cache(maxsize=None)
def build_parser():
    """The argparse parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="moranspec", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("file", help="system description JSON")
        p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings (breaks byte-for-byte reproducibility)")
        return p

    command("validate", cmd_validate, "structural checks of a system file")
    command("zeros", cmd_zeros, "zero directions per level")

    p = command("decide", cmd_decide, "spectrality decision")
    p.add_argument("--horizon", type=int, default=None)

    p = command("spectrum", cmd_spectrum, "build candidate spectrum levels")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)

    p = command("verify-orth", cmd_verify_orth, "exact orthogonality of a spectrum level")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--cap", type=int, default=10**4)

    p = command("verify-complete", cmd_verify_complete, "sampled completeness scan")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--gap-tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extra-points", type=int, default=16)

    p = command("admissible", cmd_admissible, "certify the padded-box condition")
    p.add_argument("--horizon", type=int, default=None)

    p = command("render", cmd_render, "emit attractor point clouds")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--format", choices=("csv", "svg", "ppm"), default="csv")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--cap", type=int, default=None)

    return parser


def _check_sizes(args, **known):
    """Reject a size option below its least value (render's --level is a depth, ``known`` depends on the system)."""
    least = dict(cap=1, block_size=1, levels=0, level=int(args.command == "render"), grid=4, depth=1, size=16)
    least.update(horizon=1, seed=0, extra_points=0, gap_tol=0)
    for attr, low in {**least, **known}.items():
        value = getattr(args, attr, None)
        if value is not None and not value >= low:  # NaN is rejected too
            raise ValidationFailure("params", f"--{attr.replace('_', '-')} must be at least {low}, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        _check_sizes(args)
        system = load_system(args.file)
        payload, exit_code = args.handler(args, system)
    except MoranError as exc:
        code = exc.code if isinstance(exc, ValidationFailure) else type(exc).__name__
        print(f"error [{code}]: {exc}", file=sys.stderr)
        if args.json:
            doc = {"schema": SCHEMA, "command": args.command, "error": {"code": code, "message": str(exc)}}
            print(json.dumps(_sanitize(doc), sort_keys=True, indent=2))
        return 3
    return _emit(args, {**payload, "params": _system_summary(system)}, exit_code, start)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

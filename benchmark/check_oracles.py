"""Show that no oracle of the benchmark passes vacuously.

    python3 benchmark/check_oracles.py

Each case takes a genuine output of moranspec, confirms that its oracle
accepts it, corrupts one thing and confirms that the oracle rejects it.
Exits 1 if any oracle accepts a corrupted output or rejects a genuine one.
"""
from __future__ import annotations

import copy
import importlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from harness import Incorrect  # noqa: E402
from systems import decide_sweep_inputs, fixture_doc  # noqa: E402

builder, render, specfile = (importlib.import_module(f"moranspec.{m}") for m in ("builder", "render", "specfile"))
from workloads import OUT, run_cli  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def expect(name, oracle, genuine, corrupted):
    try:
        oracle(genuine)
    except Incorrect as exc:
        raise AssertionError(f"{name}: genuine output rejected: {exc}") from None
    try:
        oracle(corrupted)
    except Incorrect as exc:
        print(f"ok  {name}: rejected ({exc})")
        return
    raise AssertionError(f"{name}: corrupted output accepted")


@case
def block_label_changed():
    doc = fixture_doc("sierpinski_3i")
    normalized, _ = builder.normalize_first_level(specfile.load_document(doc))
    decomp = builder.build_blocks(normalized, K=2, blocks=2)
    levels = builder.spectrum_levels(decomp, 1, enforce_containment=True)
    rtildes = oracles.block_matrices(doc, 2, 2)
    block = decomp.blocks[1]
    labels = [list(v) for v in block.labels]
    bad = copy.deepcopy(labels)
    bad[4][0] += 1
    expect("one block label changed", lambda ls: oracles.check_block(doc, 2, rtildes[1], block.digits, ls), labels, bad)
    digits = [list(v) for v in block.digits]
    bad_digits = copy.deepcopy(digits)
    bad_digits[4][1] += 1
    expect(
        "one block digit changed (Gram matrix)",
        lambda ds: oracles.check_block(doc, 2, rtildes[1], ds, block.labels),
        digits,
        bad_digits,
    )
    elements = [lvl.elements for lvl in levels]
    moved = [elements[0], elements[1][:-1] + (tuple(c * 50 for c in elements[1][-1]),)]
    expect(
        "one level element moved out of the box",
        lambda els: oracles.check_levels(doc, 2, rtildes, els, [True, True]),
        elements,
        moved,
    )


@case
def verdict_flipped():
    flips = {"Spectral": ("NotSpectral", 1), "NotSpectral": ("Spectral", 0)}
    seen = set()
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for i, (command, doc, slot) in enumerate(decide_sweep_inputs(7, 240)):
            if command != "decide" or slot is None:
                continue
            path = Path(tmp) / f"s{i}.json"
            path.write_text(json.dumps(doc))
            code, text = run_cli(["decide", str(path), "--json"])
            report = json.loads(text)
            key = (report["criterion"], report["verdict"])
            if key in seen or report["verdict"] not in flips:
                continue
            seen.add(key)
            flipped = dict(report, verdict=flips[report["verdict"]][0])
            expect(
                f"a verdict flipped ({key[0]}: {key[1]})",
                lambda r: oracles.check_decide(doc, r[0], r[1], rng),
                (report, code),
                (flipped, flips[report["verdict"]][1]),
            )
    assert len(seen) >= 4, f"only {sorted(seen)} covered"


@case
def zero_direction_changed():
    doc = decide_sweep_inputs(3, 4)[1][1]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(doc))
        _, text = run_cli(["zeros", str(path), "--json"])
    table = json.loads(text)["report"]
    bad = copy.deepcopy(table)
    entry = bad["1"][0]["direction"]
    entry[-1] = (entry[-1] + 1) % doc["prime"]
    expect("one zero direction changed", lambda t: oracles.check_directions(doc, t, "zeros"), table, bad)


@case
def extra_point_in_orthogonal_set():
    doc = fixture_doc("sierpinski_3i")
    normalized, _ = builder.normalize_first_level(specfile.load_document(doc))
    levels = builder.spectrum_levels(builder.build_blocks(normalized, K=2, blocks=2), 1, enforce_containment=False)
    points = list(levels[1].elements)
    expect(
        "one extra point in an orthogonal set",
        lambda pts: oracles.check_orthogonal(doc, pts, True, ()),
        points,
        points + [(1, 0)],
    )


def _rendered(fmt, tmp):
    doc = fixture_doc("staircase_spectral")
    cloud = render.support_points(specfile.load_document(doc), 3)
    path = render.render(cloud, fmt, Path(tmp) / f"cloud.{fmt}", size=128)
    return oracles.support_floats(doc, 3), path


@case
def csv_row_shifted():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        points, path = _rendered("csv", tmp)
        text = path.read_text()
    lines = text.splitlines()
    swapped = lines[:5] + [lines[6], lines[5]] + lines[7:]
    expect("one CSV row shifted", lambda t: oracles.check_csv(t, points), text, "\n".join(swapped) + "\n")


@case
def ppm_dark_pixel_off_by_one():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        points, path = _rendered("ppm", tmp)
        raw = path.read_bytes()
    header, body = raw.split(b"\n", 1)
    pixels = bytearray(body)
    white = next(i for i in range(0, len(pixels), 3) if pixels[i] >= 128)
    pixels[white : white + 3] = b"\x00\x00\x00"
    expect("PPM dark-pixel count off by one", lambda r: oracles.check_ppm(r, points), raw, header + b"\n" + bytes(pixels))


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    failures = 0
    for fn in CASES:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAILED {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden ``--json`` reports: every command on every fixture, byte for byte.

Each case runs one CLI command in-process and compares its stdout with
``tests/golden/<fixture>/<command>.out`` and its exit code (plus, for
``render``, the SHA-256 of the written file) with ``tests/golden/manifest.json``.
Render writes into the test's temporary directory under a relative name, so
the report's ``out`` field is the file's basename.

After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from moranspec import exact
from moranspec.cli import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
MANIFEST = GOLDEN / "manifest.json"

COMMANDS = {
    "validate": [],
    "zeros": [],
    "decide": [],
    "admissible": [],
    "spectrum": ["--levels", "1", "--block-size", "2"],
    "verify-orth": ["--level", "1", "--block-size", "2"],
    "verify-complete": ["--levels", "1", "--block-size", "2", "--grid", "4", "--extra-points", "2"],
    "render": ["--level", "4", "--format", "csv", "--out", "cloud.csv"],
}
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))
# Cases beyond the command x fixture grid: (case name, fixture, command, argv tail).
EXTRA = [
    ("spectrum-default", "banded_spectral", "spectrum", []),
    ("render-svg", "staircase_spectral", "render", ["--level", "3", "--format", "svg", "--out", "cloud.svg"]),
    ("render-ppm", "staircase_spectral", "render", ["--level", "3", "--format", "ppm", "--out", "cloud.ppm"]),
    # the paper-scale example at its certified K = 9: one level of 19,683 elements
    ("spectrum-k9", "banded_spectral", "spectrum", ["--levels", "0", "--cap", "20000"]),
    # the paper-scale examples at their certified K: 1,953,125 elements at K = 3 (m = 5), 531,441 at K = 3 (m = 3)
    ("spectrum-default", "staircase_spectral", "spectrum", []),
    ("spectrum-default", "square_plus_b1", "spectrum", []),
    ("spectrum-l3", "sierpinski_3i", "spectrum", ["--levels", "3", "--cap", "600000"]),
    # a criterion-5 scan of 390,625 offsets: two bases per chunk of transform values, one of
    # 2^17 values would send each row to gemv and change the last bits of six report fields
    ("verify-complete-b2-l3", "staircase_spectral", "verify-complete", ["--block-size", "2", "--levels", "3"]),
]

CASES = [(f"{fx}/{cmd}", fx, cmd, tail) for fx in FIXTURE_NAMES for cmd, tail in COMMANDS.items()]
CASES += [(f"{fx}/{name}", fx, cmd, tail) for name, fx, cmd, tail in EXTRA]


def run_case(fixture: str, command: str, tail) -> dict:
    """Run one command in the current directory; stdout, exit code, file digest."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(FIXTURES / f"{fixture}.json"), "--json", *tail])
    out = {"exit": code, "stdout": buf.getvalue()}
    written = Path(tail[tail.index("--out") + 1]) if "--out" in tail else None
    if written is not None and written.exists():
        out["file_sha256"] = hashlib.sha256(written.read_bytes()).hexdigest()
        written.unlink()
    return out


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("case,fixture,command,tail", CASES, ids=[c[0] for c in CASES])
def test_golden_report(case, fixture, command, tail, manifest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(fixture, command, tail)
    want = manifest[case]
    assert got["stdout"] == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert got["exit"] == want["exit"]
    assert got.get("file_sha256") == want.get("file_sha256")


# the block-size-2 cases of the commands that run exact integer array products, but for
# the 390,625-offset scan, which takes about 5 s in Python ints
K2_CASES = [
    c
    for c in CASES
    if c[2] in ("spectrum", "verify-orth", "verify-complete") and "--block-size" in c[3] and c[0] != "staircase_spectral/verify-complete-b2-l3"
]


@pytest.mark.parametrize("case,fixture,command,tail", K2_CASES, ids=[c[0] for c in K2_CASES])
def test_golden_report_in_python_ints(case, fixture, command, tail, manifest, tmp_path, monkeypatch):
    # a limit of 1 sends every exact product to Python ints; a caller that
    # bypassed exact.int_matmul would keep int64 and could not be told apart
    # here, but one whose Python-int path differs would change the report
    monkeypatch.setattr(exact, "INT64_LIMIT", 1)
    test_golden_report(case, fixture, command, tail, manifest, tmp_path, monkeypatch)


def regenerate():
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for case, fixture, command, tail in CASES:
                got = run_case(fixture, command, tail)
                path = GOLDEN / f"{case}.out"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(got.pop("stdout"), encoding="utf-8")
                manifest[case] = got
        finally:
            os.chdir(cwd)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())

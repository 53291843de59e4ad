"""The four workloads: decide-sweep, spectrum-build, fourier-verify, render-cloud.

Each calls moranspec through module attributes (``builder.build_blocks``,
``cli.main``, ...), so a traced run sees every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from pathlib import Path

import numpy as np

import oracles
from harness import TIMEOUT, Incorrect, Op, Workload
from systems import CUBE_3D, FIXTURES, OFF_COSET_XI, decide_sweep_inputs, fixture_doc
from moranspec.errors import NoAdmissibleDirection

# import_module returns the modules themselves: the package rebinds the
# attribute ``moranspec.render`` to the render function.
analyzer, builder, cli, render, specfile = (
    importlib.import_module(f"moranspec.{name}") for name in ("analyzer", "builder", "cli", "render", "specfile")
)

OUT = Path(__file__).resolve().parent / "out"


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _checked(name: str, check):
    try:
        return check()
    except Incorrect as exc:
        raise Incorrect(f"{name}: {exc}") from None


class DecideSweep(Workload):
    """1,000 generated system files, one CLI command each (validate, zeros,
    decide, admissible in turn), plus every 60th a fixed off-coset system."""

    name = "decide-sweep"
    COUNT = 1000

    def setup(self, seed):
        self.seed = seed
        self.inputs = decide_sweep_inputs(seed, self.COUNT)
        folder = OUT / self.name
        folder.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, (_, doc, _) in enumerate(self.inputs):
            path = folder / f"system-{i:04d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths.append(str(path))

    def operations(self):
        return [
            Op(f"{cmd}:{i}", lambda cmd=cmd, path=path: run_cli([cmd, path, "--json"]))
            for i, ((cmd, _, _), path) in enumerate(zip(self.inputs, self.paths))
        ]

    def check(self, outputs):
        rng = np.random.default_rng(self.seed)
        flags = []
        for i, ((cmd, doc, slot), (code, text)) in enumerate(zip(self.inputs, outputs)):
            if slot is None:
                flags.append(_checked(f"op {i}", lambda: oracles.check_off_coset(doc, OFF_COSET_XI, json.loads(text), code)))
            else:
                _checked(f"op {i} ({cmd}, {slot})", lambda: oracles.check_sweep_op(cmd, doc, slot, code, text, rng))
                flags.append(False)
        return flags


class SpectrumBuild(Workload):
    """The spectrum command's work: the m = 3 fixtures at the certified block
    size K = 3, the m = 5 fixtures at K = 2."""

    name = "spectrum-build"
    # (fixture, K, top level). A K = 3 block of an m = 5 fixture has 125
    # labels and takes ~15 s to verify, too long for a pass that is repeated
    # within one run; at K = 2 its blocks have 25 labels, like the 27 of the
    # m = 3 blocks at K = 3.
    PLAN = (("sierpinski_3i", 3, 2), ("sierpinski_9i", 3, 2), ("staircase_spectral", 2, 2), ("square_plus_b1", 2, 2))
    # The cap operation runs first with a short budget: how much memory it
    # takes before the cut depends on the machine's speed, and it must stay
    # below what the builds after it take, or peak_rss_mb would too.
    CAP_BUDGET_S = 0.2

    def setup(self, seed):
        self.docs = {name: fixture_doc(name) for name, _, _ in self.PLAN}
        self.docs["staircase_nonspectral"] = fixture_doc("staircase_nonspectral")
        self.systems = {name: specfile.load_document(doc) for name, doc in self.docs.items()}

    def _build(self, name, K, top):
        normalized, _ = builder.normalize_first_level(self.systems[name])
        decomp = builder.build_blocks(normalized, K=K, blocks=top + 1)
        return decomp, builder.spectrum_levels(decomp, top, enforce_containment=True)

    def _refuse(self):
        normalized, _ = builder.normalize_first_level(self.systems["staircase_nonspectral"])
        try:
            builder.build_blocks(normalized)
        except NoAdmissibleDirection as exc:
            return ("refused", type(exc).__name__)
        return ("built",)

    def operations(self):
        cap = str(FIXTURES / "banded_spectral.json")
        self.ops = [Op("spectrum-cap:banded_spectral", lambda: run_cli(["spectrum", cap, "--json"]), self.CAP_BUDGET_S)]
        self.ops += [Op(f"build:{name}", lambda n=name, K=K, top=top: self._build(n, K, top)) for name, K, top in self.PLAN]
        self.ops.append(Op("refuse:staircase_nonspectral", self._refuse))
        return self.ops

    def summarize(self, index, output):
        if self.ops[index].name.startswith("build:"):
            decomp, levels = output
            return (
                tuple((b.matrix.rows, b.digits, b.labels) for b in decomp.blocks),
                tuple((lvl.elements, lvl.containment_checked) for lvl in levels),
            )
        return output

    def check(self, outputs):
        flags = []
        for op, output in zip(self.ops, outputs):
            kind, name = op.name.split(":")
            flags.append(_checked(op.name, lambda: self._check_one(kind, name, output)))
        return flags

    def _check_one(self, kind, name, output):
        if kind == "build":
            doc, (blocks, levels) = self.docs[name], output
            K = next(k for plan_name, k, _ in self.PLAN if plan_name == name)
            rtildes = oracles.block_matrices(doc, K, len(blocks))
            for b, ((rows, digits, labels), rtilde) in enumerate(zip(blocks, rtildes)):
                oracles.require([list(r) for r in rows] == rtilde, f"block {b} matrix {rows}, expected {rtilde}")
                oracles.check_block(doc, K, rtilde, digits, labels)
            oracles.check_levels(doc, K, rtildes, [e for e, _ in levels], [c for _, c in levels])
            return False
        if kind == "refuse":
            oracles.require(output == ("refused", "NoAdmissibleDirection"), f"staircase_nonspectral gave {output}")
            return False
        if output == TIMEOUT:
            return True  # the cap is tested only after the certified K = 9 blocks are built
        code, text = output
        report = json.loads(text)
        oracles.require(code == 3 and report.get("error", {}).get("code") == "CapExceeded", f"cap run gave {code}")
        return False


def _levels_of(system, K, top, containment=None):
    normalized, _ = builder.normalize_first_level(system)
    decomp = builder.build_blocks(normalized, K=K, blocks=top + 1)
    return normalized, builder.spectrum_levels(decomp, top, enforce_containment=containment)


class FourierVerify(Workload):
    """Exact orthogonality and sampled completeness on spectra built in set-up."""

    name = "fourier-verify"
    trace_setup = True
    # (fixture, K, level) for the orthogonal sets. With the non-orthogonal
    # set and the two scans a pass has seven operations, so op_p50_ms is the
    # latency of a single operation, an orthogonality check of 625 or 729
    # points, rather than the mean of two unlike ones.
    ORTH = (("sierpinski_3i", 2, 2), ("banded_spectral", 3, 1), ("staircase_spectral", 2, 1), ("sierpinski_9i", 3, 1))
    # (label, fixture, K, top level, depth, grid). The criterion-5 scan
    # (levels 0..3, depth 12: 531,441 points, a 680 MB matrix, ~16 s) is cut
    # to levels 0..2 at depth 9, where the (bases x points) matrix still
    # dominates its memory and criterion 5's gap and tail bounds still hold.
    CRITERION_5 = "criterion-5-levels-0-2"
    SCANS = ((CRITERION_5, "sierpinski_3i", 3, 2, 9, 8), ("staircase-depth-7", "staircase_spectral", 2, 1, 7, 8))

    def setup(self, seed):
        self.seed = seed
        names = {n for n, _, _ in self.ORTH} | {s[1] for s in self.SCANS}
        self.docs = {name: fixture_doc(name) for name in names}
        loaded = {name: specfile.load_document(doc) for name, doc in self.docs.items()}
        self.sets = []
        for name, K, lvl in self.ORTH:
            system, levels = _levels_of(loaded[name], K, lvl, containment=False)
            self.sets.append((name, system, levels[lvl].elements))
            if name == "sierpinski_3i":
                base = (system, levels[1].elements)
        # level 1 plus one point whose difference with 0 (its first element) misses the zero set
        rng = random.Random(seed)
        while True:
            extra = (rng.randint(-30, 30), rng.randint(-30, 30))
            if extra not in base[1] and abs(oracles.transform(self.docs["sierpinski_3i"], [extra])[0]) > 0.05:
                break
        self.sets.append(("sierpinski_3i+1", base[0], base[1] + (extra,)))
        self.scans = []
        for label, name, K, top, depth, grid in self.SCANS:
            system, levels = _levels_of(loaded[name], K, top)
            self.scans.append((label, name, system, levels, depth, grid))

    def operations(self):
        ops = [
            Op(f"orth:{name}", lambda s=system, p=points: analyzer.verify_orthogonality(s, p))
            for name, system, points in self.sets
        ]
        for label, _, system, levels, depth, grid in self.scans:
            run = lambda s=system, lv=levels, d=depth, g=grid: analyzer.completeness_scan(
                s, lv, grid=g, depth=d, extra_points=16, seed=self.seed
            )
            ops.append(Op(f"complete:{label}", run))
        return ops

    def summarize(self, index, output):
        return output.passed, output.witnesses, output.details

    def check(self, outputs):
        for (name, _, points), (passed, witnesses, _) in zip(self.sets, outputs):
            doc = self.docs[name.split("+")[0]]
            check = oracles.check_not_orthogonal if name.endswith("+1") else oracles.check_orthogonal
            _checked(f"orth:{name}", lambda: check(doc, points, passed, witnesses))
        rng = random.Random(self.seed)
        for (label, name, system, levels, depth, grid), (passed, _, details) in zip(self.scans, outputs[len(self.sets) :]):
            top = np.array(levels[-1].elements, dtype=np.int64)
            sizes = [lvl.size for lvl in levels]
            mine, kernel = {}, {}
            for _ in range(2):
                xi = tuple(rng.randrange(grid) / grid for _ in range(system.dimension))
                mine[xi] = oracles.quadratic_sums(self.docs[name], top, sizes, xi, depth)
                values = analyzer.transform_batch_multi(system, top, [xi], depth)[0]
                kernel[xi] = np.cumsum(np.abs(values) ** 2)[np.asarray(sizes) - 1]
            _checked(
                f"complete:{label}",
                lambda: oracles.check_completeness(details, passed, mine, kernel, label == self.CRITERION_5),
            )
        return [False] * len(outputs)


class RenderCloud(Workload):
    """support_points then render to CSV, SVG and PPM for three systems."""

    name = "render-cloud"
    PLAN = (("staircase_spectral", 7), ("sierpinski_3i", 10), ("cube_3d", 9))
    FORMATS = ("csv", "svg", "ppm")

    def setup(self, seed):
        self.docs = {name: (CUBE_3D if name == "cube_3d" else fixture_doc(name)) for name, _ in self.PLAN}
        self.systems = {name: specfile.load_document(doc) for name, doc in self.docs.items()}
        self.folder = OUT / self.name
        self.folder.mkdir(parents=True, exist_ok=True)
        self.clouds = {}

    def _support(self, name, depth):
        self.clouds[name] = render.support_points(self.systems[name], depth)
        return self.clouds[name]

    def _render(self, name, fmt, path):
        # the last format releases the cloud, so at most one is alive at a time
        cloud = self.clouds.pop(name) if fmt == self.FORMATS[-1] else self.clouds[name]
        return render.render(cloud, fmt, path)

    def operations(self):
        self.ops = []
        for name, depth in self.PLAN:
            self.ops.append(Op(f"support:{name}", lambda n=name, d=depth: self._support(n, d)))
            for fmt in self.FORMATS:
                path = self.folder / f"{name}.{fmt}"
                self.ops.append(Op(f"{fmt}:{name}", lambda n=name, f=fmt, p=path: self._render(n, f, p)))
        return self.ops

    def summarize(self, index, output):
        """(size, distinct points, digest) of a cloud; (path, digest) of a file."""
        if self.ops[index].name.startswith("support:"):
            return output.size, len(set(output.points)), hashlib.sha256(repr(output.points).encode()).hexdigest()
        return str(output), hashlib.sha256(Path(output).read_bytes()).hexdigest()

    def check(self, outputs):
        by_name = {op.name: out for op, out in zip(self.ops, outputs)}
        for name, depth in self.PLAN:
            size, distinct, _ = by_name[f"support:{name}"]
            doc = self.docs[name]

            def one():
                points = oracles.support_floats(doc, depth)
                oracles.check_cloud(doc, depth, size, distinct)
                oracles.check_csv(Path(by_name[f"csv:{name}"][0]).read_text(), points)
                oracles.check_svg(Path(by_name[f"svg:{name}"][0]).read_text(), size)
                oracles.check_ppm(Path(by_name[f"ppm:{name}"][0]).read_bytes(), points)

            _checked(name, one)
        return [False] * len(outputs)


WORKLOADS = {w.name: w for w in (DecideSweep, SpectrumBuild, FourierVerify, RenderCloud)}

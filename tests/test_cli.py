import json
from fractions import Fraction
from pathlib import Path

import pytest

from test_golden import COMMANDS
from moranspec import exact, masks
from moranspec import system as system_module
from moranspec.cli import main
from moranspec.render import MAX_PPM_SIDE
from moranspec.specfile import load_document, load_system
from moranspec.errors import PairVerificationFailed, ValidationFailure

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def test_load_system_roundtrip():
    system = load_system(fixture("staircase_spectral.json"))
    assert system.dimension == 2 and system.prime == 5
    assert len(system.preamble) == 1 and len(system.cycle) == 1
    assert system.level(3).matrix[0, 0] == 10


def test_load_document_validates_zero_claims():
    doc = json.loads(Path(fixture("staircase_spectral.json")).read_text())
    doc["cycle"][0]["zeros"] = [[1, 2]]  # wrong direction
    with pytest.raises(ValidationFailure) as err:
        load_document(doc)
    assert err.value.code == "zero-structure"


def test_load_document_requires_prime():
    doc = {"dimension": 1, "prime": 4, "cycle": [{"R": [[4]], "D": [[0], [1], [2], [3]]}]}
    with pytest.raises(ValidationFailure) as err:
        load_document(doc)
    assert err.value.code == "primality"


def test_primality_is_tested_only_at_the_digit_count(monkeypatch):
    # (10^6 + 3)(10^6 + 33): trial division before the digit count would take 10^6 steps
    doc = {"dimension": 1, "prime": 1000003 * 1000033, "cycle": [{"R": [[3]], "D": [[0], [1], [2]]}]}
    with pytest.raises(ValidationFailure) as err:
        load_document(doc)
    assert err.value.code == "digit-count"
    calls = []
    monkeypatch.setattr(system_module, "prime_factors", lambda p: calls.append(p) or exact.prime_factors(p))
    doc["prime"] = 10**18 + 3
    with pytest.raises(ValidationFailure) as err:
        load_document(doc)
    assert err.value.code == "digit-count" and calls == []


def test_zero_direction_count_is_capped_before_enumeration(monkeypatch, tmp_path, capsys):
    # m = 3, n = 3: (3^3 - 1)/2 = 13 canonical directions
    doc = {"dimension": 3, "prime": 3, "cycle": [{"R": [[3, 0, 0], [0, 3, 0], [0, 0, 3]], "D": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}]}
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(masks, "ZERO_DIRECTION_CAP", 13)
    assert main(["validate", str(path), "--json"]) == 0
    monkeypatch.setattr(masks, "ZERO_DIRECTION_CAP", 12)
    capsys.readouterr()
    assert main(["validate", str(path), "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "CapExceeded"


def test_cli_validate_ok(capsys):
    code = main(["validate", fixture("sierpinski_3i.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "valid" in out


def test_cli_validate_singular_matrix(capsys):
    code = main(["validate", fixture("invalid_det0.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "expansion" in err


def test_cli_zeros_square_plus(capsys):
    code = main(["zeros", fixture("square_plus_b1.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    dirs = [entry["direction"] for entry in doc["report"]["1"]]
    assert dirs == [[1, 2], [1, 3]]


def test_cli_decide_spectral(capsys):
    code = main(["decide", fixture("staircase_spectral.json"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["verdict"] == "Spectral"
    assert doc["criterion"] == "diagonal-divisibility"


def test_cli_decide_nonspectral_witness(capsys):
    code = main(["decide", fixture("staircase_nonspectral.json"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["verdict"] == "NotSpectral"
    assert doc["certificate"]["witness"] == [2, 1]


def test_cli_decide_banded_both_sides(capsys):
    assert main(["decide", fixture("banded_spectral.json")]) == 0
    capsys.readouterr()
    assert main(["decide", fixture("banded_nonspectral.json")]) == 1


def test_cli_spectrum(capsys):
    code = main(["spectrum", fixture("sierpinski_3i.json"), "--levels", "1", "--block-size", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["report"]["level_sizes"] == [9, 81]
    assert doc["report"]["block_size"] == 2


def test_cli_verify_orth(capsys):
    code = main(["verify-orth", fixture("sierpinski_3i.json"), "--level", "1", "--block-size", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["report"]["passed"] is True
    assert doc["report"]["points"] == 9


def test_cli_verify_complete(capsys):
    code = main(
        [
            "verify-complete",
            fixture("sierpinski_3i.json"),
            "--levels", "1",
            "--block-size", "2",
            "--grid", "4",
            "--extra-points", "2",
            "--json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["report"]["passed"] is True
    assert doc["report"]["final_gap"] < 1e-9


def test_cli_verify_complete_beyond_int64_depth(capsys):
    # depth 41 puts the level denominator 3^41 beyond int64; at 646 a phase times 2 pi passes the
    # largest float, and at 700 3^700 itself does
    for depth in (41, 646, 700):
        code = main(
            ["verify-complete", fixture("sierpinski_3i.json"), "--levels", "1", "--block-size", "2", "--depth", str(depth), "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["depth"] == depth
        assert doc["report"]["passed"] is True
        assert doc["report"]["max_q"] == pytest.approx(1.0, abs=1e-9)


def test_cli_admissible(capsys):
    code = main(["admissible", fixture("staircase_spectral.json"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["report"]["status"] == "certified"
    assert doc["report"]["unconditional"] is True


def test_cli_render(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    code = main(["render", fixture("staircase_spectral.json"), "--level", "2", "--format", "csv", "--out", str(out), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out.exists()
    assert doc["report"]["points"] == 25


def test_cli_render_ppm_side_over_the_cap_exits_3(tmp_path, capsys):
    out = tmp_path / "cloud.ppm"
    argv = ["render", fixture("staircase_spectral.json"), "--format", "ppm", "--out", str(out), "--json"]
    code = main([*argv, "--size", str(MAX_PPM_SIDE + 1)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"]["code"] == "CapExceeded"
    assert not out.exists()


def test_cli_json_reports_are_byte_identical(capsys):
    main(["decide", fixture("staircase_spectral.json"), "--json"])
    first = capsys.readouterr().out
    main(["decide", fixture("staircase_spectral.json"), "--json"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["timings"] is None


def test_cli_exit_codes_track_verdicts():
    assert main(["decide", fixture("staircase_spectral.json")]) == 0
    assert main(["decide", fixture("staircase_nonspectral.json")]) == 1
    assert main(["validate", fixture("invalid_det0.json")]) == 3


def test_cli_timings_flag_included_on_request(capsys):
    main(["decide", fixture("staircase_spectral.json"), "--json", "--timings"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["timings"] is not None
    assert "seconds" in doc["timings"]


def test_specfile_numeric_forms():
    doc = {
        "dimension": 1,
        "prime": 3,
        "cycle": [{"R": [[9]], "D": [[0], [1], [2]]}],
        "params": {"r": 0.125, "delta": "1/8", "beta": 0.04, "c": 1},
    }
    system = load_document(doc)
    assert system.r == 0.125
    assert system.beta == Fraction(0.04)  # floats convert to their exact binary value


def test_specfile_bad_fraction_string():
    doc = {
        "dimension": 1,
        "prime": 3,
        "cycle": [{"R": [[9]], "D": [[0], [1], [2]]}],
        "params": {"r": "one third"},
    }
    with pytest.raises(ValidationFailure) as err:
        load_document(doc)
    assert err.value.code == "format"


@pytest.mark.parametrize(
    "level, where",
    [
        ({"R": [[9.7]], "D": [[0], [1], [2]]}, "cycle[0]"),
        ({"R": [[9]], "D": [[0], [1.5], [2]]}, "cycle[0]"),
    ],
)
def test_cli_validate_rejects_non_integer_entries(tmp_path, capsys, level, where):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"dimension": 1, "prime": 3, "cycle": [level], "params": {"r": "1/3"}}))
    code = main(["validate", str(path), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"]["code"] == "format"
    assert doc["error"]["message"].startswith(where)
    doc = {"dimension": 1, "prime": 3, "preamble": [{"R": [[9.0]], "D": [[0], [1], [2.0]]}], "cycle": [level]}
    with pytest.raises(ValidationFailure) as err:
        load_document(doc)
    assert err.value.where == where  # the integral floats of preamble[0] load


@pytest.mark.parametrize(
    "change, where",
    [
        ({"cycle": [{"R": [[9]], "D": [[0], [True], [2]]}]}, "cycle[0]"),
        ({"cycle": [{"R": [[9]], "D": [[0], [1], [2]], "zeros": [[1.5]]}]}, "cycle[0]"),
        ({"dimension": 1.9}, "dimension"),
        ({"prime": 3.7}, "prime"),
        ({"params": {"r": "1/3", "c": True}}, "params.c"),
        ({"dimension": "1"}, "dimension"),
    ],
)
def test_cli_validate_rejects_booleans_and_non_integral_values(tmp_path, capsys, change, where):
    # JSON true is not the number 1, and 1.9 is not the dimension 1
    doc = {"dimension": 1, "prime": 3, "cycle": [{"R": [[9]], "D": [[0], [1], [2]]}], "params": {"r": "1/3"}}
    path = tmp_path / "system.json"
    path.write_text(json.dumps({**doc, **change}))
    code = main(["validate", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["error"]["code"] == "format"
    assert out["error"]["message"].startswith(where)


@pytest.mark.parametrize(
    "level, message",
    [
        ({"R": [[3, 0], [0]], "D": [[0, 0], [1, 0], [0, 1]]}, "matrix must be square and nonempty"),
        ({"R": [], "D": [[0, 0], [1, 0], [0, 1]]}, "matrix must be square and nonempty"),
        ({"R": [[3, 0], [0, 3]], "D": []}, "digit set must be nonempty"),
        ({"R": [[3, 0], [0, 3]], "D": [[0, 0], [1, 0], [1, 0]]}, "digits must be pairwise distinct"),
        ({"R": [[3, 0], [0, 3]], "D": [[0, 0], [1], [0, 1]]}, "digits have mixed dimensions"),
        ({"R": [3, 0], "D": [[0, 0], [1, 0], [0, 1]]}, "matrix must be a list of rows"),
        ({"R": [[3, 0], [0, 3]], "D": [0, 1, 2]}, "digits must be a list of vectors"),
        ({"R": [[3, 0], [0, 3]], "D": [[0, 0], [1, 0], [0, 1]], "zeros": [1, 2]}, "zeros must be a list of vectors"),
        ({"R": ["30", "03"], "D": [[0, 0], [1, 0], [0, 1]]}, "'3' is not an integer"),
        ({"R": [[3, 0], [0, 3]], "D": ["00", "10", "01"]}, "'0' is not an integer"),
    ],
    ids=[
        "ragged-R", "empty-R", "empty-D", "repeated-D", "mixed-D", "flat-R", "flat-D", "flat-zeros", "string-R",
        "string-D",
    ],
)
@pytest.mark.parametrize("where", ["preamble[0]", "cycle[0]"])
def test_cli_validate_reports_a_malformed_level_as_format(tmp_path, capsys, level, message, where):
    good = {"R": [[3, 0], [0, 3]], "D": [[0, 0], [1, 0], [0, 1]]}
    key = where.split("[")[0]
    doc = {"dimension": 2, "prime": 3, "preamble": [], "cycle": [good], key: [level]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["error"] == {"code": "format", "message": f"{where}: {message}"}


# Reports of two systems whose scans reach the nearest box point, captured
# before the certificate was decided on integers: the R = 2I violation and
# the system at distance exactly beta (see test_decider).
VIOLATION_2I = {
    "dimension": 2,
    "prime": 3,
    "cycle": [{"R": [[2, 0], [0, 2]], "D": [[0, 0], [1, 0], [0, 1]]}],
    "params": {"r": "1/2", "beta": "1/24"},
}
BOUNDARY_DIGITS = [[1, -1, 0], [-1, 1, 3], [1, -3, -2], [-1, 3, -3], [0, 0, 2]]
BOUNDARY_BETA = {
    "dimension": 3,
    "prime": 5,
    "preamble": [{"R": [[5, 10, -5], [10, 10, -5], [-10, 5, 10]], "D": BOUNDARY_DIGITS}],
    "cycle": [{"R": [[6, -1, 0], [2, 10, -1], [-1, 0, 10]], "D": BOUNDARY_DIGITS}],
    "params": {"r": "219/500"},
}
PARAMS_2I = {
    "beta": "1/24", "c": 1.0, "cycle_levels": 1, "delta": "1/8", "dimension": 2, "preamble_levels": 0, "prime": 3,
    "r": 0.5,
}
PARAMS_BOUNDARY = {
    "beta": "1/40", "c": 1.0, "cycle_levels": 1, "delta": "1/8", "dimension": 3, "preamble_levels": 1, "prime": 5,
    "r": 0.438,
}
PINNED_REPORTS = [
    (VIOLATION_2I, "admissible", 1, {
        "caveats": [],
        "command": "admissible",
        "params": PARAMS_2I,
        "report": {
            "horizon": 6, "products_checked": 1, "start_level": 0, "status": "violation", "tail_start": 2,
            "unconditional": False,
        },
        "schema": 1,
        "timings": None,
        "witnesses": {
            "box_point": ["5/8", "-5/8"],
            "coset_point": ["1/3", "-1/3"],
            "image": ["5/16", "-5/16"],
            "length": 1,
            "start_level": 1,
        },
    }),
    (VIOLATION_2I, "decide", 1, {
        "caveats": [],
        "certificate": {"entry": 2, "witness": [2, 1]},
        "command": "decide",
        "criterion": "diagonal-divisibility",
        "params": PARAMS_2I,
        "schema": 1,
        "timings": None,
        "verdict": "NotSpectral",
        "witnesses": [2, 1],
    }),
    (BOUNDARY_BETA, "admissible", 0, {
        "caveats": [],
        "command": "admissible",
        "params": PARAMS_BOUNDARY,
        "report": {
            "horizon": 6, "products_checked": 4, "start_level": 0, "status": "certified", "tail_start": 3,
            "unconditional": True,
        },
        "schema": 1,
        "timings": None,
        "witnesses": None,
    }),
    (BOUNDARY_BETA, "decide", 2, {
        "caveats": ["sufficiency needs a divisible direction at every level from 2 on"],
        "certificate": {"levels_without_admissible_direction": [2]},
        "command": "decide",
        "criterion": "block-construction-sufficiency",
        "params": PARAMS_BOUNDARY,
        "schema": 1,
        "timings": None,
        "verdict": "Unknown",
        "witnesses": None,
    }),
]


@pytest.mark.parametrize(
    "doc, command, code, report",
    PINNED_REPORTS,
    ids=["2i-admissible", "2i-decide", "boundary-admissible", "boundary-decide"],
)
def test_cli_nearest_point_reports_are_pinned(tmp_path, capsys, doc, command, code, report):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--json"]) == code
    assert json.loads(capsys.readouterr().out) == report


def test_cli_spectrum_normalizes_non_model_first_level(capsys):
    code = main(["spectrum", fixture("sierpinski_9i.json"), "--levels", "1", "--block-size", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["report"]["normalized_first_level"] is True
    assert doc["report"]["spectrum_transform_back"] == [["3", "0"], ["0", "3"]]
    assert doc["report"]["level_sizes"] == [3, 9]


@pytest.mark.parametrize("command", ["spectrum", "verify-orth", "verify-complete"])
def test_no_admissible_direction_reads_the_same_with_and_without_block_size(capsys, command):
    # both paths look for admissible directions before the cap test; verify-orth's
    # level 2 at K = 2 holds 5^6 points, over its default cap
    docs = []
    for tail in ([], ["--block-size", "2"]):
        assert main([command, fixture("staircase_nonspectral.json"), "--json", *tail]) == 3
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1]
    assert docs[0]["error"] == {"code": "NoAdmissibleDirection", "message": "level 2 has no admissible direction"}


def test_cli_verify_orth_on_normalized_system(capsys):
    code = main(["verify-orth", fixture("sierpinski_9i.json"), "--level", "1", "--block-size", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["report"]["passed"] is True


def test_cli_spectrum_cap_fails_before_building(capsys, monkeypatch):
    # banded_spectral has certified K = 9: level 2 would hold 3^27 elements,
    # so the cap must fire before any 19,683-label block is built.
    import moranspec.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("build_blocks ran before the cap test")

    monkeypatch.setattr(cli, "build_blocks", refuse)
    code = main(["spectrum", fixture("banded_spectral.json"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"]["code"] == "CapExceeded"


def test_cli_verify_orth_fits_k_to_the_default_cap(capsys):
    # the certified K = 3 puts 3^9 points in level 2, over the default cap of 10^4
    code = main(["verify-orth", fixture("sierpinski_3i.json"), "--level", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["report"]["block_size"] == 2
    assert doc["report"]["points"] == 729


def test_cli_spectrum_certifies_each_distinct_level_once(capsys, monkeypatch):
    import moranspec.builder as builder

    counts = {}
    for name in ("find_admissible_direction", "is_compatible_pair"):

        def counted(*args, _name=name, _original=getattr(builder, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(builder, name, counted)
    code = main(["spectrum", fixture("sierpinski_3i.json"), "--json"])
    assert code == 0 and json.loads(capsys.readouterr().out)["report"]["level_sizes"] == [27, 729, 19683]
    # three K = 3 blocks of one distinct level (R = 3I): the level's direction is found once for
    # the block size and once for its one certified pair
    assert counts == {"find_admissible_direction": 2, "is_compatible_pair": 1}


@pytest.mark.parametrize("name, distinct", [("sierpinski_3i", 1), ("staircase_spectral", 2)])
def test_cli_spectrum_builds_each_distinct_block_once(name, distinct, capsys, monkeypatch):
    # sierpinski_3i's three K = 3 blocks share one level tuple; staircase_spectral's first block
    # holds its preamble level and the next two hold only its cycle level
    import moranspec.builder as builder

    counts = {}
    for attr in ("tower_arrays", "_reduce_into_fundamental_domain"):

        def counted(*args, _name=attr, _original=getattr(builder, attr)):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(builder, attr, counted)
    code = main(["spectrum", fixture(f"{name}.json"), "--json"])
    assert code == 0 and len(json.loads(capsys.readouterr().out)["report"]["level_sizes"]) == 3
    assert counts == {"tower_arrays": distinct, "_reduce_into_fundamental_domain": distinct}


def test_corrupted_first_block_raises_at_block_0_though_later_blocks_repeat_it(monkeypatch):
    # a failed block is not kept, so no later block reuses it; and a clean call before it
    # leaves nothing behind that the corrupted call could reuse
    import moranspec.builder as builder

    system = load_system(fixture("sierpinski_3i.json"))
    assert len(builder.build_blocks(system, K=3, blocks=3).blocks) == 3
    original = builder.tower_arrays

    def collide(pairs):
        # label 1 moved into label 0's class mod R~^t Z^2: only the collision check refuses it
        matrix, digits, labels = original(pairs)
        labels[1] = labels[0] + matrix.transpose().mul_vec((1, 0))
        return matrix, digits, labels

    monkeypatch.setattr(builder, "tower_arrays", collide)
    with pytest.raises(PairVerificationFailed) as err:
        builder.build_blocks(system, K=3, blocks=3)
    assert err.value.block == 0 and str(err.value) == "block 0: label tower collided after reduction"


def test_cli_spectrum_fits_k_to_an_explicit_cap(capsys):
    code = main(["spectrum", fixture("sierpinski_3i.json"), "--levels", "1", "--cap", "100", "--json"])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 0
    assert report["block_size"] == 2 and report["certified_block_size"] == 3
    assert report["meets_certified_bound"] is False
    assert report["level_sizes"] == [9, 81]
    assert report["containment_checked"] == [False, False]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("spectrum", "--cap", "0"),
        ("verify-orth", "--cap", "0"),
        ("verify-complete", "--cap", "0"),
        ("render", "--cap", "0"),
        ("spectrum", "--block-size", "0"),
        ("verify-orth", "--block-size", "-2"),
        ("verify-complete", "--block-size", "0"),
        ("spectrum", "--levels", "-1"),
        ("verify-complete", "--levels", "-1"),
        ("verify-orth", "--level", "-1"),
        ("render", "--level", "0"),
        ("verify-complete", "--grid", "3"),
        ("verify-complete", "--depth", "0"),
        # the top level of --levels 2 at the certified K = 3 has product length 9
        ("verify-complete", "--depth", "8"),
        ("render", "--size", "0"),
        ("decide", "--horizon", "-1"),
        ("admissible", "--horizon", "0"),
        ("verify-complete", "--seed", "-1"),
        ("verify-complete", "--extra-points", "-1"),
        ("verify-complete", "--gap-tol", "-1"),
        ("verify-complete", "--gap-tol", "nan"),
    ],
)
def test_cli_rejects_sizes_below_their_least_value(command, flag, value, tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    argv = [command, fixture("sierpinski_3i.json"), flag, value, "--json"]
    code = main(argv + ["--out", str(out)] if command == "render" else argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"]["code"] == "params"
    assert doc["error"]["message"].startswith(f"{flag} must be at least")
    assert not out.exists()


def test_cli_accepts_the_least_sizes(capsys):
    argv = ["spectrum", fixture("sierpinski_3i.json"), "--levels", "0", "--block-size", "1", "--cap", "3", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["report"]["level_sizes"] == [3]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_shares_one_report_envelope(command, tmp_path, monkeypatch, capsys):
    # --timings adds only the timings entry, and the human report ends with the params line
    monkeypatch.chdir(tmp_path)
    argv = [command, fixture("sierpinski_3i.json"), *COMMANDS[command]]
    code = main([*argv, "--json"])
    plain = json.loads(capsys.readouterr().out)
    assert main([*argv, "--json", "--timings"]) == code
    timed = json.loads(capsys.readouterr().out)
    assert plain.pop("timings") is None and timed.pop("timings")["seconds"] >= 0
    assert timed == plain
    assert plain["command"] == command and plain["params"]["prime"] == 3
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"[{command}]"
    assert lines[-1].startswith("  params: {'dimension': 2, 'prime': 3,")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_load_failure_reports_an_error_without_params(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([command, fixture("invalid_det0.json"), *COMMANDS[command], "--json"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 3
    assert set(doc) == {"schema", "command", "error"}
    assert captured.err.startswith(f"error [{doc['error']['code']}]: ")
    assert not list(tmp_path.iterdir())

import hashlib
import json
import os
import subprocess
import sys
from math import isqrt

import pytest

import eisenfold
from eisenfold.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _assert_one_error_line(capsys, code):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_build(capsys):
    code, out = run(capsys, "build", "--beta", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "complex.v1"
    assert len(doc["faces"]) == 38


def test_color_fold_23(capsys):
    code, out = run(capsys, "color", "--beta", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "coloring.v1"
    assert doc["fold_count"] == 23
    assert doc["good"] is True


def test_color_domain_error(capsys):
    code, _ = run(capsys, "color", "--beta", "2,4")
    assert code == 1


@pytest.mark.parametrize("argv", [
    # 2 norm(delta) exceeds sys.maxsize: rejected before any allocation
    ("build", "--beta", "99999999999,1"),
    ("eta", "--beta", "99999999999,1"),
    ("color", "--beta", "99999999999,1"),
    # its tables would need about 10^14 bytes, beyond the address space, so
    # the first allocation fails at once
    ("build", "--beta", "3000000,1"),
])
def test_too_large_beta_is_one_error_line(capsys, argv):
    _assert_one_error_line(capsys, cli_main(list(argv)))


def test_round_trip_color_validate_eta(tmp_path, capsys):
    path = str(tmp_path / "coloring.json")
    code, _ = run(capsys, "color", "--beta", "1,2", "--out", path)
    assert code == 0
    code, out = run(capsys, "validate", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["good"] is True and doc["mod6"] is True
    assert doc["balance"] == {"black": 7, "white": 7}
    code, out = run(capsys, "eta", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["eta"] == [169, 14] and doc["fold_count"] == 13


def test_validate_all_black_is_bad(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    doc = {
        "schema": "coloring.v1",
        "complex_ref": {"beta": [1, 2]},
        "colors": "1" * 14,
        "fold_count": 0,
        "eta": [0, 14],
        "good": False,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out = run(capsys, "validate", "--in", path)
    assert code == 0
    assert json.loads(out)["good"] is False


def test_validate_rejects_non_binary_colors(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    doc = {
        "schema": "coloring.v1",
        "complex_ref": {"beta": [1, 2]},
        "colors": "0000111x110011",
        "fold_count": 13,
        "eta": [169, 14],
        "good": True,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out = run(capsys, "validate", "--in", path)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("doc", [
    {"schema": "coloring.v1"},
    {"schema": "coloring.v1", "complex_ref": {"beta": [1, "x"]}, "colors": "0" * 14},
    {"schema": "coloring.v1", "complex_ref": {"beta": [1.5, 2]}, "colors": "0" * 14},
    {"schema": "coloring.v1", "complex_ref": {"beta": "12"}, "colors": "0" * 14},
    {"schema": "coloring.v1", "complex_ref": {"beta": [True, 2]}, "colors": "0" * 14},
    {"schema": "coloring.v1", "complex_ref": [1, 2], "colors": "0" * 14},
    {"schema": "coloring.v1", "complex_ref": {"beta": [1, 2]}},
    {"schema": "coloring.v1", "complex_ref": {"beta": [0, 0]}, "colors": ""},
    {"schema": "coloring.v1", "complex_ref": {"beta": [10**6, 10**6]}, "colors": "01"},
])
def test_validate_malformed_coloring_is_one_error_line(tmp_path, capsys, doc):
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(doc))
    _assert_one_error_line(capsys, cli_main(["validate", "--in", str(path)]))


def test_validate_reads_a_beta_written_as_a_decimal_string(tmp_path, capsys):
    path = str(tmp_path / "coloring.json")
    assert run(capsys, "color", "--beta", "1,2", "--out", path)[0] == 0
    with open(path) as fh:
        doc = json.load(fh)
    doc["complex_ref"]["beta"] = ["1", "2"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out = run(capsys, "validate", "--in", path)
    assert code == 0 and json.loads(out)["good"] is True


def test_eta_limit_golden(capsys):
    code, out = run(capsys, "eta-limit", "--zeta", "golden")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["eta_surd"] == {"r": [9, 1], "s": [4, 1], "rad": 5}


def test_eta_limit_undetermined_exit_2(capsys):
    code, out = run(capsys, "eta-limit", "--zeta", "sqrt:7", "--depths", "40,60")
    assert code == 2
    assert json.loads(out)["status"] == "undetermined"


def test_eta_limit_json_is_pinned_for_golden_and_every_non_square_below_100(capsys):
    # one digest over "<zeta> <exit code>" and the stdout of each run,
    # recorded before eta_limit_numeric took its approximants from approximant
    h = hashlib.sha256()
    for z in ["golden"] + [f"sqrt:{n}" for n in range(2, 100) if isqrt(n) ** 2 != n]:
        code, out = run(capsys, "eta-limit", "--zeta", z)
        h.update(f"{z} {code}\n{out}".encode())
    assert h.hexdigest() == "d8f65ce678cc2a97be5c05bf762426a675e35521edf6a239dcbd58a84f390316"


def test_search_cli(capsys):
    code, out = run(capsys, "search", "--beta", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_fold"] == 13 and doc["status"] == "ProvedOptimal"
    assert "wall_time" not in doc


def test_search_budget_exit_2(capsys):
    code, out = run(capsys, "search", "--beta", "1,5", "--max-nodes", "500")
    assert code == 2
    assert json.loads(out)["status"] == "Incumbent"


@pytest.mark.parametrize("flags", [["--max-nodes", "0"], ["--max-nodes", "-5"],
                                   ["--max-seconds", "0"], ["--max-seconds", "-1"],
                                   ["--max-seconds", "nan"], ["--max-seconds", "inf"],
                                   ["--threads", "0"], ["--threads", "-2"]])
def test_search_rejects_reinterpreted_budgets(capsys, flags):
    _assert_one_error_line(capsys, cli_main(["search", "--beta", "1,2"] + flags))


# these flags belong to exact mode; anytime mode would ignore them
@pytest.mark.parametrize("flags", [["--threads", "4"], ["--checkpoint-out", "ck.json"],
                                   ["--resume", "missing.json"]])
def test_anytime_search_rejects_exact_only_flags(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    _assert_one_error_line(capsys, cli_main(["search", "--beta", "1,2", "--mode", "anytime"]
                                            + flags))
    assert list(tmp_path.iterdir()) == []


def test_sweep_ie_cli(capsys):
    code, out = run(capsys, "sweep-ie", "--betas", "1,2", "--b-max", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert doc["baselines"]["1,2"] == [169, 14]


def test_render_cli(tmp_path, capsys):
    path = str(tmp_path / "pic.svg")
    code, _ = run(capsys, "render", "--beta", "2,3", "--out", path)
    assert code == 0
    with open(path) as fh:
        svg = fh.read()
    assert svg.startswith("<svg") and svg.count('class="fold"') == 69


def test_render_flower_cli(capsys):
    code, out = run(capsys, "render", "--flower", "3/7")
    assert code == 0
    assert out.count('class="maximal-trapezoid"') == 12


@pytest.mark.parametrize("aspect", ["1/x", "1/0", "0/1", "3/2", "2/4", "1/2/3", "3"])
def test_render_malformed_flower_is_one_error_line(capsys, aspect):
    _assert_one_error_line(capsys, cli_main(["render", "--flower", aspect]))


@pytest.mark.parametrize(
    "argv",
    [
        ["--beta", "2,3", "--scale", "nan"],
        ["--beta", "2,3", "--scale", "inf"],
        ["--flower", "3/7", "--scale", "-5"],
        ["--flower", "3/7", "--scale", "inf"],
    ],
)
def test_render_bad_scale_is_one_error_line(capsys, argv):
    _assert_one_error_line(capsys, cli_main(["render"] + argv))


@pytest.mark.parametrize(
    "flags",
    [["--beta", "2,3", "--domains", "4"], ["--domains", "1"], ["--bare"],
     ["--no-rhombus"], ["--no-folds"]],
)
def test_render_flower_rejects_coloring_flags(capsys, flags):
    _assert_one_error_line(capsys, cli_main(["render", "--flower", "3/7"] + flags))


@pytest.mark.parametrize(
    "argv",
    [["search", "--beta", "1,2", "--resume"], ["validate", "--in"], ["eta", "--in"]],
)
def test_directory_as_input_is_one_error_line(tmp_path, capsys, argv):
    _assert_one_error_line(capsys, cli_main(argv + [str(tmp_path)]))


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 4


def test_selftest_names_the_failure(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("no limit today")

    monkeypatch.setattr("eisenfold.cli.eta_limit_numeric", broken)
    code, out = run(capsys, "selftest")
    assert code == 1
    assert "FAIL golden-eta-limit: RuntimeError: no limit today" in out.splitlines()
    assert out.count("PASS") == 3


def test_sweep_ie_json_is_pinned(capsys):
    # recorded while the sweep still took one gcd and one Euclid per pair
    code, out = run(capsys, "sweep-ie", "--betas", "1,2;2,3;3,5;1,3", "--b-max", "450")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "48da2e8052de759898691d9f6cc33b124c7c46516a3845f80f3bd1a2dc62c08d"
    )


def test_sweep_ie_malformed_betas(capsys):
    _assert_one_error_line(capsys, cli_main(["sweep-ie", "--betas", "1,x", "--b-max", "10"]))


@pytest.mark.parametrize("command", ["validate", "eta"])
def test_non_json_input_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "coloring.json"
    path.write_text("colors: 0101\n")
    _assert_one_error_line(capsys, cli_main([command, "--in", str(path)]))


def test_anytime_search_ends_at_its_node_budget():
    # the walk at (8,13) ends at its default budget of 300,000 nodes, well
    # before the deadline
    src = os.path.dirname(os.path.dirname(eisenfold.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "eisenfold.cli", "search", "--beta", "8,13",
         "--mode", "anytime", "--max-seconds", "3"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["status"], doc["nodes_explored"]) == ("Incumbent", 300_000)


def test_anytime_search_past_a_thousand_faces(capsys):
    # F = 1,766: deeper than the interpreter's recursion limit
    code, out = run(capsys, "search", "--beta", "13,21", "--mode", "anytime",
                    "--max-seconds", "2")
    assert code == 0
    assert json.loads(out)["status"] == "Incumbent"


def test_module_entry_point_without_runtime_warning():
    src = os.path.dirname(os.path.dirname(eisenfold.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "eisenfold.cli", "selftest"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 4


def _checkpoint_1_2(tmp_path, capsys):
    path = str(tmp_path / "ck.json")
    code, _ = run(capsys, "search", "--beta", "1,2", "--max-nodes", "40",
                  "--checkpoint-out", path)
    assert code == 2
    with open(path) as fh:
        return json.load(fh)


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# each turns a real (1,2) checkpoint into a malformed one
RESUME_DEFECTS = {
    "format only": lambda d: {"format": d["format"]},
    "no beta": lambda d: _without(d, "beta"),
    "no order": lambda d: _without(d, "order"),
    "no incumbent_fold": lambda d: _without(d, "incumbent_fold"),
    "no incumbent_colors": lambda d: _without(d, "incumbent_colors"),
    "no frontier": lambda d: _without(d, "frontier"),
    "beta of floats": lambda d: {**d, "beta": [1.0, 2.0]},
    "order not a list": lambda d: {**d, "order": "0123"},
    "fold a string": lambda d: {**d, "incumbent_fold": "13"},
    "fold a boolean": lambda d: {**d, "incumbent_fold": True},
    "fold null": lambda d: {**d, "incumbent_fold": None},
    "colors a list": lambda d: {**d, "incumbent_colors": [0, 1]},
    "colors not binary": lambda d: {**d, "incumbent_colors": "2" * 14},
    "colors too short": lambda d: {**d, "incumbent_colors": "01"},
    "fold below the colors": lambda d: {**d, "incumbent_fold": d["incumbent_fold"] - 2},
    "frontier a dict": lambda d: {**d, "frontier": {"prefix": "0"}},
    "entry without prefix": lambda d: {**d, "frontier": [{"bits": "0"}]},
    "prefix not a string": lambda d: {**d, "frontier": [{"prefix": 1}]},
    "prefix not binary": lambda d: {**d, "frontier": [{"prefix": "10x"}]},
    "prefix past the faces": lambda d: {**d, "frontier": [{"prefix": "1" * 15}]},
    "nodes negative": lambda d: {**d, "nodes_explored": -1},
}


@pytest.mark.parametrize("defect", sorted(RESUME_DEFECTS))
def test_search_resume_malformed_checkpoint_is_one_error_line(tmp_path, capsys, defect):
    doc = RESUME_DEFECTS[defect](_checkpoint_1_2(tmp_path, capsys))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _assert_one_error_line(capsys, cli_main(["search", "--beta", "1,2", "--resume", str(path)]))


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{}", b"[1, 2]"])
def test_search_resume_non_checkpoint_file_is_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    _assert_one_error_line(capsys, cli_main(["search", "--beta", "1,2", "--resume", str(path)]))


def test_search_resume_reads_its_own_checkpoint(tmp_path, capsys):
    doc = _checkpoint_1_2(tmp_path, capsys)
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "search", "--beta", "1,2", "--resume", str(path))
    assert code == 0 and json.loads(out)["status"] == "ProvedOptimal"


@pytest.mark.parametrize("argv", [
    ["--zeta", "golden", "--depths", "40,x"],
    ["--zeta", "golden", "--depths", "40"],
    ["--zeta", "golden", "--depths", "60,40;;"],
    ["--zeta", "golden", "--depths", ""],
    ["--zeta", "golden", "--depths", "0,0"],
    ["--zeta", "golden", "--depths", "40,60;150,-200"],
    ["--zeta", "sqrt:x"],
    ["--zeta", "sqrt:6", "--depths", "150,150"],
    ["--zeta", "golden", "--depths", "40,60;150,150"],
])
def test_eta_limit_malformed_arguments_are_one_error_line(capsys, argv):
    _assert_one_error_line(capsys, cli_main(["eta-limit"] + argv))


# int() would read each of these, silently: '_' separators, spaces, a '+'
# sign and non-ASCII digits
@pytest.mark.parametrize("argv", [
    ["eta-limit", "--zeta", "sqrt:1_3"],
    ["eta-limit", "--zeta", "sqrt: 13"],
    ["eta-limit", "--zeta", "sqrt:+13"],
    ["eta-limit", "--zeta", "sqrt:\u0661\u0663"],
    ["eta-limit", "--zeta", "golden", "--depths", "4_0,60"],
    ["eta-limit", "--zeta", "golden", "--depths", "40, 60"],
    ["build", "--beta", " 1_0, 2"],
    ["build", "--beta", "2,+3"],
    ["sweep-ie", "--betas", "1,2;2, 3", "--b-max", "20"],
    ["sweep-ie", "--betas", "1,2", "--b-max", "2_0"],
    ["render", "--flower", "3/ 7"],
    ["render", "--beta", "2,3", "--domains", "\u0662"],
    ["color", "--beta", "2,3", "--fill-phase", "+0"],
    ["search", "--beta", "1,2", "--max-nodes", " 50"],
    ["search", "--beta", "1,2", "--threads", "+1"],
])
def test_integers_are_read_strictly(capsys, argv):
    _assert_one_error_line(capsys, cli_main(argv))


# float() would read each of these as 40 or 10, silently
@pytest.mark.parametrize("argv", [
    ["render", "--beta", "1,2", "--scale", "4_0"],
    ["render", "--beta", "1,2", "--scale", " 40 "],
    ["render", "--beta", "1,2", "--scale", "\u0664\u0660"],
    ["render", "--flower", "3/7", "--scale", "+40"],
    ["render", "--flower", "3/7", "--scale", "40."],
    ["search", "--beta", "1,2", "--max-seconds", "1_0"],
    ["search", "--beta", "1,2", "--max-seconds", " 10"],
    ["search", "--beta", "1,2", "--max-seconds", "\u0661\u0660"],
])
def test_decimals_are_read_strictly(capsys, argv):
    _assert_one_error_line(capsys, cli_main(argv))


@pytest.mark.parametrize("scale", ["40", "40.0", "4e1", "400E-1"])
def test_decimal_scales_are_still_read(capsys, scale):
    code, out = run(capsys, "render", "--beta", "1,2", "--scale", scale)
    assert code == 0
    assert out == eisenfold.render_svg(eisenfold.RenderSpec(beta=eisenfold.EisensteinInt(1, 2)))


def test_negative_integers_are_still_read(capsys):
    code, out = run(capsys, "build", "--beta", "2,-3")
    assert code == 0 and json.loads(out)["beta"] == [1, 2]  # the orbit representative


# argparse's own usage errors exit 2 by default, the code of an exhausted
# budget or an undetermined limit; the CLI reports them as one error line
@pytest.mark.parametrize("argv", [
    ["search", "--beta", "2,3", "--max-nodes", "abc"],
    ["render"],
    ["build"],
])
def test_usage_errors_are_one_error_line(capsys, argv):
    _assert_one_error_line(capsys, cli_main(argv))


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out

from __future__ import annotations

import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from spg.boards import board_to_obj, build_path
from spg.cli import COMMANDS, main, parse_board_spec
from spg.complexes import (
    complex_to_obj, empty_face_complex, faces, facet_ideal, from_facets, sr_complex, void_complex,
)
from spg.engine import legal_complex
from spg.gametree import canonical_value, value_str
from spg.rulesets import col, domineering, snort

from conftest import run_spg_capped


AB_BC = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "L", "c": "R"})
P3 = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "R", "c": "L"})
K22 = from_facets(
    [["x1", "y1"], ["x1", "y2"], ["x2", "y1"], ["x2", "y2"]],
    {"x1": "L", "x2": "L", "y1": "R", "y2": "R"},
)
LSHAPE_BOARD = "grid-cells:[(0,0),(1,0),(2,0),(2,1)]"


@pytest.fixture
def run(capsys):
    def invoke(*args: str) -> tuple[int, str, str]:
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def write_complex(path, delta):
    path.write_text(json.dumps(complex_to_obj(delta)))
    return str(path)


def test_complex_nonfaces(run, tmp_path):
    p = write_complex(tmp_path / "c.json", AB_BC)
    code, out, _ = run("complex", "nonfaces", "--complex", p)
    assert code == 0
    assert "{a,c}" in out


def test_complex_info(run, tmp_path):
    p = write_complex(tmp_path / "c.json", AB_BC)
    code, out, _ = run("complex", "info", "--complex", p)
    assert code == 0
    assert "vertices: a(L) b(L) c(R)" in out
    assert "facets: ab, bc" in out and "dimension: 1" in out


def test_complex_dual_writes_ideal(run, tmp_path):
    p = write_complex(tmp_path / "c.json", AB_BC)
    out_path = tmp_path / "ideal.json"
    code, out, _ = run(
        "complex", "dual", "--complex", p, "--to", "sr-ideal", "--out", str(out_path)
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["generators"] == [["a", "c"]]
    assert obj["parts"] == {"a": "L", "b": "L", "c": "R"}


def test_game_complex_prints_both_ideals(run):
    code, out, _ = run(
        "game", "complex", "--ruleset", "domineering", "--board", LSHAPE_BOARD
    )
    assert code == 0
    assert "legal ideal: <x1y3, x2>" in out
    code, out, _ = run(
        "game", "complex", "--ruleset", "domineering", "--board", LSHAPE_BOARD, "--illegal"
    )
    assert code == 0
    assert "illegal ideal: <x1x2, x2y3, x3, y1, y2>" in out


def test_game_complex_out_file_shape(run, tmp_path):
    out_path = tmp_path / "game.json"
    code, _, _ = run(
        "game", "complex", "--ruleset", "snort", "--board", "path:2",
        "--legal", "--out", str(out_path),
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert set(obj) == {"kind", "complex", "ideal"}
    assert set(obj["ideal"]) == {"variables", "generators", "parts"}
    # the ideal keeps its parts through a later dual
    ideal_path, dual_path = tmp_path / "ideal.json", tmp_path / "dual.json"
    ideal_path.write_text(json.dumps(obj["ideal"]))
    code, _, _ = run(
        "complex", "dual", "--ideal", str(ideal_path), "--to", "facet-complex",
        "--out", str(dual_path),
    )
    assert code == 0
    parts = {v["id"]: v["part"] for v in json.loads(dual_path.read_text())["vertices"]}
    assert parts == {"x1": "L", "x2": "L", "y1": "R", "y2": "R"}


def test_game_value_and_outcome(run):
    code, out, _ = run("game", "value", "--ruleset", "domineering", "--board", LSHAPE_BOARD)
    assert code == 0 and "{0|1}" in out
    code, out, _ = run("game", "outcome", "--ruleset", "domineering", "--board", LSHAPE_BOARD)
    assert code == 0
    assert "outcome: L (Left wins regardless of who starts)" in out


def test_game_tree_formats(run, tmp_path):
    code, out, _ = run("game", "tree", "--ruleset", "snort", "--board", "path:2")
    assert code == 0 and "L -> " in out
    code, out, _ = run(
        "game", "tree", "--ruleset", "snort", "--board", "path:2", "--format", "dot"
    )
    assert code == 0 and out.startswith("digraph")
    dot = tmp_path / "tree.dot"
    code, written, _ = run(
        "game", "tree", "--ruleset", "snort", "--board", "path:2", "--format", "dot", "--out", str(dot)
    )
    assert code == 0 and written == f"wrote {dot}\n" and dot.read_text() == out


def test_complex_flag(run, tmp_path):
    hollow = from_facets([["a", "b"], ["b", "c"], ["a", "c"]], dict.fromkeys("abc", "L"))
    for delta, answer in ((AB_BC, "true"), (hollow, "false")):
        code, out, _ = run("complex", "flag", "--complex", write_complex(tmp_path / "c.json", delta))
        assert code == 0 and out == f"flag: {answer}\n"


def test_table_ruleset_specs_and_the_empty_board(run, tmp_path):
    """On its board of small cycles, the table-legal game of a complex has
    the complex's value, and the table-illegal game the value of the complex
    whose minimal nonfaces are its facets."""
    p3 = write_complex(tmp_path / "p3.json", P3)
    table = "union:(cycle:3,cycle:3,cycle:4)"
    for spec, delta in (("table-legal", P3), ("table-illegal", sr_complex(facet_ideal(P3)))):
        code, out, _ = run("game", "value", "--ruleset", f"{spec}:{p3}", "--board", table)
        assert code == 0 and out == f"value: {value_str(canonical_value(delta))}\n", spec
    code, out, _ = run("game", "value", "--ruleset", "snort", "--board", "empty")
    assert code == 0 and out == "value: 0\n"


def printed_tree(delta) -> list[str]:
    """``game tree``'s text print, from the faces: every move from a face in
    vertex order, then the tree after it, two spaces deeper."""
    face_set = faces(delta)
    lines = ["(root)"]

    def walk(face, depth):
        for v in delta.vertices:
            if v not in face and face | {v} in face_set:
                lines.append("  " * depth + f"{delta.part[v]} -> {v}")
                walk(face | {v}, depth + 1)

    walk(frozenset(), 1)
    return lines


@pytest.mark.parametrize(
    "ruleset, board",
    [(snort, "path:3"), (col, "path:4"), (col, "cycle:5"), (domineering, "grid:2x3")],
)
def test_game_tree_text_is_the_face_tree(run, ruleset, board):
    delta = legal_complex(ruleset(), parse_board_spec(board))
    lines = printed_tree(delta)
    depth = max(len(f) for f in delta.facets)
    code, out, _ = run("game", "tree", "--ruleset", ruleset.__name__, "--board", board)
    assert code == 0
    # each printed line but the root's is one node of the unfolded tree
    assert out.splitlines() == [f"game tree: {len(lines)} nodes, depth {depth}", *lines]


def test_game_tree_text_stops_above_500_nodes(run):
    code, out, _ = run("game", "tree", "--ruleset", "snort", "--board", "path:5")
    assert code == 0
    assert out.splitlines() == [
        "game tree: 927 nodes, depth 5",
        "tree too large to print; use --format dot with --out",
    ]


def test_verify_roundtrip_exit_codes(run, tmp_path):
    p3 = write_complex(tmp_path / "p3.json", P3)
    code, out, _ = run("verify", "illegal", "--complex", p3)
    assert code == 0 and out.startswith("PASS")

    k22 = write_complex(tmp_path / "k22.json", K22)
    code, out, _ = run("verify", "illegal", "--complex", k22)
    assert code == 3 and out.startswith("INCONCLUSIVE")
    assert "max_construction_vertices" in out


def test_verify_legal_budget_counts_every_vertex(run, tmp_path):
    cone = from_facets([["a", "b", "d", "e"], ["c", "d", "e"]],
                       {"a": "L", "b": "R", "c": "L", "d": "R", "e": "L"})
    p = write_complex(tmp_path / "cone.json", cone)
    code, out, err = run("verify", "legal", "--complex", p, "--max-n", "3")
    assert code == 3 and err == ""
    assert out.startswith("INCONCLUSIVE: the distance-game board needs 5 assemblies")
    code, out, _ = run("verify", "legal", "--complex", p, "--max-n", "5")
    assert code == 0 and out.startswith("PASS")


def test_verify_illegal_on_five_vertices(run, tmp_path):
    path5 = from_facets(
        [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]],
        {"a": "L", "b": "R", "c": "L", "d": "R", "e": "L"},
    )
    p = write_complex(tmp_path / "p5.json", path5)
    code, out, err = run("verify", "illegal", "--complex", p, "--max-n", "5")
    assert code == 0 and out.startswith("PASS") and "Traceback" not in err


@pytest.mark.parametrize(
    "ideal_obj",
    [
        {"variables": ["a", "b"], "generators": [["a", "b"]], "parts": ["L", "R"]},
        {"variables": "ab", "generators": [["a", "b"]]},
        {"variables": ["a", "b"], "generators": [["a", "b"]], "parts": {"A": "R", "b": "R"}},
    ],
    ids=["parts-list", "variables-string", "parts-key-not-a-variable"],
)
def test_complex_dual_rejects_malformed_ideal(run, tmp_path, ideal_obj):
    p = tmp_path / "ideal.json"
    p.write_text(json.dumps(ideal_obj))
    code, _, err = run("complex", "dual", "--ideal", str(p), "--to", "sr-complex")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_verify_invariance_fail_exit(run):
    code, out, _ = run(
        "verify", "invariance", "--ruleset", "domineering", "--board", LSHAPE_BOARD
    )
    assert code == 1 and out.startswith("FAIL")


def test_verify_condition_iv(run):
    code, out, _ = run("verify", "condition-iv", "--ruleset", "snort", "--board", "path:3")
    assert code == 0 and out.startswith("PASS")


def test_usage_errors_exit_2(run, tmp_path):
    code, _, err = run("game", "value", "--ruleset", "chess", "--board", "path:2")
    assert code == 2 and "chess" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run("complex", "info", "--complex", str(bad))
    assert code == 2 and "malformed JSON" in err


def test_board_too_large_exits_3(run):
    code, _, err = run("game", "complex", "--ruleset", "snort", "--board", "path:30")
    assert code == 3 and "INCONCLUSIVE" in err


def test_board_spec_union_and_file(run, tmp_path):
    code, out, _ = run("game", "outcome", "--ruleset", "snort", "--board", "union:(path:2,cycle:3)")
    assert code == 0

    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(board_to_obj(build_path(2))))
    code, out, _ = run("game", "outcome", "--ruleset", "col", "--board", f"file:{board_path}")
    assert code == 0


def test_gamma_spec_tokens(run, tmp_path):
    p3 = write_complex(tmp_path / "p3.json", P3)
    code, out, _ = run(
        "game", "complex", "--ruleset", f"gamma:{p3}", "--board", f"gamma:{p3}",
        "--illegal",
    )
    assert code == 0 and "illegal ideal:" in out


@pytest.mark.parametrize("label", ["1e400", "2.7", "true"])
def test_labeling_labels_must_be_json_integers(run, tmp_path, label):
    """A label that is not a JSON integer is bad input (exit 2): 1e400 used to
    end in an OverflowError, 2.7 was read as 2 and true as 1."""
    p3 = write_complex(tmp_path / "p3.json", P3)
    lab = tmp_path / "lab.json"
    lab.write_text(f'[{{"edge": ["a", "b"], "label": {label}}}, {{"edge": ["b", "c"], "label": 1}}]')
    spec = f"gamma:{p3}:{lab}"
    out_dir = tmp_path / "artifacts"
    for argv in (
        ("game", "value", "--ruleset", spec, "--board", "path:2"),
        ("game", "value", "--ruleset", "snort", "--board", spec),
        ("construct", "illegal", "--complex", p3, "--labeling", str(lab), "--out-dir", str(out_dir)),
    ):
        code, out, err = run(*argv)
        assert code == 2, argv
        assert "labelings are lists of" in err and out == "", argv
    assert not out_dir.exists()


@pytest.mark.parametrize("again", [["a", "b"], ["b", "a"]], ids=["same-order", "reversed"])
def test_labeling_with_a_repeated_edge_is_bad_input(run, tmp_path, again):
    """An edge listed twice, in either orientation, is bad input (exit 2):
    the last label used to win, so a contradictory file passed."""
    ab_bc = write_complex(tmp_path / "c.json", AB_BC)
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps([
        {"edge": ["a", "b"], "label": 2}, {"edge": ["b", "c"], "label": 1}, {"edge": again, "label": 1},
    ]))
    code, out, err = run("verify", "illegal", "--complex", ab_bc, "--labeling", str(lab))
    assert (code, out) == (2, "")
    assert err == f"error: {lab}: edge {again} is listed more than once\n"
    code, _, err = run("game", "value", "--ruleset", f"gamma:{ab_bc}:{lab}", "--board", "path:2")
    assert code == 2 and "is listed more than once" in err


def test_construct_illegal_with_a_labeling_file(run, tmp_path):
    p3 = write_complex(tmp_path / "p3.json", P3)
    lab = tmp_path / "lab.json"
    lab.write_text('[{"edge": ["a", "b"], "label": 2}, {"edge": ["b", "c"], "label": 1}]')
    out_dir = tmp_path / "artifacts"
    code, out, _ = run("construct", "illegal", "--complex", p3, "--labeling", str(lab), "--out-dir", str(out_dir))
    assert code == 0 and out.endswith("PASS: recovered complex matches; board has 415 vertices\n")
    assert json.loads((out_dir / "labeling.json").read_text()) == [
        {"edge": ["b", "c"], "label": 1}, {"edge": ["a", "b"], "label": 2},
    ]


@pytest.mark.parametrize("argv", [
    ("construct", "illegal", "--out-dir", "artifacts"),
    ("verify", "illegal"),
    ("verify", "roundtrip", "--kind", "illegal"),
], ids=["construct-illegal", "verify-illegal", "verify-roundtrip"])
def test_labeling_of_other_edges_is_bad_input(run, tmp_path, monkeypatch, argv):
    """A labeling whose edges are not the complex's is bad input (exit 2),
    as it is inside a ``gamma:complex.json:labeling.json`` spec, and nothing
    is built or written."""
    monkeypatch.chdir(tmp_path)
    ab_bc = write_complex(tmp_path / "c.json", AB_BC)
    lab = tmp_path / "lab.json"
    lab.write_text('[{"edge": ["a", "c"], "label": 1}, {"edge": ["a", "b"], "label": 2}]')
    code, out, err = run(*argv, "--complex", ab_bc, "--labeling", str(lab))
    assert (code, out) == (2, "")
    assert err == f"error: {lab}: labeling domain does not match the 1-dimensional faces\n"
    code, _, err = run("game", "value", "--ruleset", f"gamma:{ab_bc}:{lab}", "--board", "path:2")
    assert code == 2 and "labeling domain does not match" in err
    # a complex that no distance game realises stays a domain error (exit 1)
    single = write_complex(tmp_path / "s.json", from_facets([["a"], ["b", "c"]], dict.fromkeys("abc", "L")))
    lab.write_text('[{"edge": ["b", "c"], "label": 1}]')
    code, out, err = run(*argv, "--complex", single, "--labeling", str(lab))
    assert (code, out) == (1, "") and err.startswith("error: complex has singleton facet(s) ['a']")
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize("argv", [
    ("construct", "illegal", "--complex", "{c}", "--labeling", "{lab}", "--out-dir", "artifacts"),
    ("verify", "illegal", "--complex", "{c}", "--labeling", "{lab}"),
    ("verify", "roundtrip", "--kind", "illegal", "--complex", "{c}", "--labeling", "{lab}"),
    ("game", "value", "--ruleset", "snort", "--board", "gamma:{c}:{lab}"),
    ("game", "value", "--ruleset", "gamma:{c}:{lab}", "--board", "path:2"),
], ids=["construct-illegal", "verify-illegal", "verify-roundtrip", "gamma-board", "gamma-ruleset"])
def test_undecodable_labeling_file_is_bad_input(run, tmp_path, monkeypatch, argv):
    """A labeling file that is not text is bad input (exit 2) whose message
    names the file, read by the one reader of input files."""
    monkeypatch.chdir(tmp_path)
    lab = tmp_path / "lab.json"
    lab.write_bytes(b"\xff\xfe[]")
    paths = {"c": write_complex(tmp_path / "c.json", AB_BC), "lab": str(lab)}
    code, out, err = run(*(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {lab}")
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize("argv, code, fragment", [
    (("game", "value", "--ruleset", "snort", "--board", "grid:3"), 2, "grid spec needs RxC"),
    (("game", "value", "--ruleset", "snort", "--board", "union:path:3"), 2,
     "union spec needs parentheses"),
    (("game", "value", "--ruleset", "snort", "--board", "star:5"), 2, "unknown board spec 'star:5'"),
    (("game", "value", "--ruleset", "snort", "--board", "path"), 2, "unknown board spec 'path'"),
    (("game", "value", "--ruleset", "snort"), 2, "need --complex, or both --ruleset and --board"),
    (("game", "value", "--complex", "{ab_bc}", "--ruleset", "snort"), 2,
     "give either --complex or --ruleset/--board, not both"),
    (("complex", "dual", "--to", "sr-complex"), 2, "--to sr-complex needs --ideal"),
    (("verify", "roundtrip", "--kind", "legal", "--complex", "{ab_bc}", "--labeling", "{lab}"), 2,
     "--labeling only applies to the illegal round trip"),
    (("verify", "illegal", "--complex", "{ab_bc}", "--labeling", "{no_edge}"), 2,
     "labelings are lists of {'edge': [u, v], 'label': n} with integer n"),
    (("complex", "info", "--complex", "{void}"), 0, "void complex: no faces at all"),
    (("complex", "info", "--complex", "{empty}"), 0,
     "facets: (empty face only)\ndimension: -1 (only the empty face)"),
    (("complex", "nonfaces", "--complex", "{simplex}"), 0,
     "no minimal nonfaces: the complex is a simplex"),
    (("complex", "dual", "--to", "sr-ideal", "--complex", "{simplex}"), 0, "sr-ideal: <0>"),
    (("complex", "dual", "--to", "sr-ideal", "--complex", "{void}"), 0, "sr-ideal: <1>"),
    (("game", "complex", "--ruleset", "free", "--board", "empty", "--illegal"), 0,
     "illegal complex: facets (void)"),
    (("game", "tree", "--ruleset", "snort", "--board", "path:2", "--out", "tree.json"), 0,
     "wrote tree.json"),
    (("verify", "legal", "--complex", "{ab_bc}", "--time-cap", "5"), 0, "PASS"),
])
def test_error_and_degenerate_paths(run, tmp_path, monkeypatch, argv, code, fragment):
    """Bad specs and argument combinations exit 2 with their reason, and the
    degenerate complexes and results print their own lines."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.json").write_text('[{"edge": ["a", "b"], "label": 1}, {"edge": ["b", "c"], "label": 2}]')
    (tmp_path / "no_edge.json").write_text('[{"label": 1}]')
    paths = {
        "ab_bc": write_complex(tmp_path / "ab_bc.json", AB_BC),
        "void": write_complex(tmp_path / "void.json", void_complex()),
        "empty": write_complex(tmp_path / "empty.json", empty_face_complex()),
        "simplex": _simplex_file(tmp_path / "simplex.json", "LR"),
        "lab": "lab.json",
        "no_edge": "no_edge.json",
    }
    got, out, err = run(*(a.format(**paths) for a in argv))
    assert got == code and fragment in out + err, (got, out, err)


def test_skip_verify_writes_a_skipped_report(run, tmp_path):
    out_dir = tmp_path / "artifacts"
    p = write_complex(tmp_path / "c.json", AB_BC)
    code, out, _ = run("construct", "legal", "--complex", p, "--out-dir", str(out_dir), "--skip-verify")
    assert code == 0 and out.endswith("verification skipped\n")
    assert json.loads((out_dir / "report.json").read_text()) == {
        "status": "SKIPPED", "kind": "legal", "detail": "verification skipped by request",
    }
    assert (out_dir / "board.json").exists()


def test_dry_run_skips_work(run, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(
        "construct", "prop210", "--complex", write_complex(tmp_path / "c.json", AB_BC),
        "--out-dir", str(out_dir), "--dry-run",
    )
    assert code == 0
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_construct_prop210_artifacts(run, tmp_path):
    out_dir = tmp_path / "artifacts"
    p = write_complex(tmp_path / "c.json", AB_BC)
    code, out, _ = run("construct", "prop210", "--complex", p, "--out-dir", str(out_dir))
    assert code == 0
    for name in (
        "board.json",
        "board.dot",
        "ruleset-legal.json",
        "ruleset-illegal.json",
        "regions.json",
        "report.json",
    ):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    assert report["status"] == "PASS"


def test_construct_legal_deterministic(run, tmp_path):
    p = write_complex(tmp_path / "c.json", AB_BC)
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        code, _, _ = run("construct", "legal", "--complex", p, "--out-dir", str(d))
        assert code == 0
    for name in ("board.json", "regions.json", "ruleset.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_construct_invariant_reports_tree_and_value(run, tmp_path):
    out_dir = tmp_path / "inv"
    code, out, _ = run(
        "construct", "invariant", "--ruleset", "domineering", "--board", LSHAPE_BOARD,
        "--out-dir", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["trees_isomorphic"] is True
    assert report["values_equal"] is True


def test_construct_independence_error_names_facet(run):
    code, _, err = run(
        "construct", "independence", "--ruleset", "nogo", "--board", "path:3",
        "--out-dir", "/tmp/should-not-exist",
    )
    assert code == 1 and "x1x2x3" in err


def test_failing_construct_leaves_no_out_dir(run, tmp_path):
    out_dir = tmp_path / "D"
    code, _, err = run(
        "construct", "independence", "--ruleset", "nogo", "--board", "path:3",
        "--out-dir", str(out_dir),
    )
    assert code == 1 and err.startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("case", ["missing-parent", "directory", "out-dir-is-file"])
def test_unwritable_output_exits_2(run, tmp_path, case):
    p = write_complex(tmp_path / "c.json", AB_BC)
    if case == "out-dir-is-file":
        argv = ["construct", "prop210", "--complex", p, "--out-dir", p]
    else:
        out = tmp_path / "nonexistent" / "dir" / "x.json" if case == "missing-parent" else tmp_path
        argv = ["complex", "nonfaces", "--complex", p, "--out", str(out)]
    code, _, err = run(*argv)
    assert code == 2 and err.startswith("error: cannot write") and "Traceback" not in err


def _vertex(vid, part="L"):
    return {"id": vid, "part": part}


MALFORMED_COMPLEXES = {
    "vertex-without-part": {"vertices": [{"id": "a"}], "facets": [["a"]]},
    "vertex-int": {"vertices": [1], "facets": []},
    "vertices-string": {"vertices": "ab", "facets": []},
    "facet-int": {"vertices": [_vertex("a")], "facets": [1]},
    "id-list": {"vertices": [_vertex(["a"])], "facets": [["a"]]},
    "id-int": {"vertices": [_vertex(1), _vertex(2, "R")], "facets": [[1, 2]]},
    "facet-entry-list": {"vertices": [_vertex("a")], "facets": [[["a"]]]},
    "facets-string": {"vertices": [_vertex("a")], "facets": "a"},
    # "void" is a JSON boolean: a string is neither read as true nor as false
    "void-string-false": {"vertices": [_vertex("a")], "facets": [["a"]], "void": "false"},
    "void-string-no": {"vertices": [], "facets": [], "void": "no"},
}


@pytest.mark.parametrize("obj", MALFORMED_COMPLEXES.values(), ids=MALFORMED_COMPLEXES.keys())
def test_malformed_complex_exits_2(run, tmp_path, obj):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(obj))
    code, _, err = run("complex", "info", "--complex", str(p))
    assert code == 2 and "malformed complex object" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "board", ["file:BOARD", "grid-cells:[1,2]", "grid-cells:5"],
    ids=["coords-list", "cells-ints", "cells-int"],
)
def test_malformed_board_exits_2(run, tmp_path, board):
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]], "coords": []}))
    code, _, err = run(
        "game", "value", "--ruleset", "snort", "--board", board.replace("BOARD", str(board_path))
    )
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_board_coords_missing_an_edge_endpoint_exits_2(run, tmp_path):
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]], "coords": {"0": [0, 0]}}))
    code, _, err = run("game", "value", "--ruleset", "snort", "--board", f"file:{board_path}")
    assert code == 2 and err.startswith("error:") and "edge (0,1)" in err


NON_INTEGER_BOARDS = {  # a board spec, or the text of a board file
    "cells-overflow": "grid-cells:[(1e400,0)]",
    "cells-fractions": "grid-cells:[(0.5,0),(1.9,0)]",
    "file-overflow": '{"vertices": [1e400], "edges": []}',
    "file-bool-and-float": '{"vertices": [true, 2.7], "edges": []}',
    "file-float-edge": '{"vertices": [0, 1], "edges": [[0, 1.0]]}',
    "file-float-coords": '{"vertices": [0], "edges": [], "coords": {"0": [0.5, 0]}}',
}


@pytest.mark.parametrize("board", NON_INTEGER_BOARDS.values(), ids=NON_INTEGER_BOARDS.keys())
def test_non_integer_board_input_exits_2(run, tmp_path, board):
    if board.startswith("{"):
        board_path = tmp_path / "board.json"
        board_path.write_text(board)
        board = f"file:{board_path}"
    code, _, err = run("game", "value", "--ruleset", "snort", "--board", board)
    assert code == 2 and err.startswith("error:") and "expected an integer" in err
    assert "Traceback" not in err


def test_deeply_nested_union_spec_exits_2(run):
    deep = "union:(" * 600 + "path:2" + ")" * 600
    code, _, err = run("game", "value", "--ruleset", "snort", "--board", deep)
    assert code == 2 and err.startswith("error:") and "nest" in err
    # a union of one board, nested within the limit, is that board
    shallow = "union:(" * 50 + "path:2" + ")" * 50
    got = run("game", "value", "--ruleset", "snort", "--board", shallow)
    assert got[0] == 0 and got == run("game", "value", "--ruleset", "snort", "--board", "path:2")


@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_pieces_below_one_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "invariance", "--ruleset", "nogo", "--board", "path:3",
              "--max-pieces", value])
    assert exc.value.code == 2
    assert "--max-pieces: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "invariance", "--ruleset", "nogo", "--board", "path:3", "--samples", "0"],
        ["verify", "invariance", "--ruleset", "nogo", "--board", "path:3", "--cap", "-1"],
        ["verify", "illegal", "--complex", "COMPLEX", "--max-n", "0"],
    ],
    ids=["samples", "cap", "max-n"],
)
def test_counts_below_one_are_usage_errors(capsys, tmp_path, argv):
    argv = [write_complex(tmp_path / "p3.json", P3) if a == "COMPLEX" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be at least 1" in err and "Traceback" not in err


def _dry_run_argv(command, complex_path: str, board_path: str, out: str) -> list[str]:
    """Every flag a row needs, with a value; ``--complex?`` rows get --complex."""
    values = {
        "--complex": complex_path, "--ruleset": "snort", "--board": f"file:{board_path}",
        "--to": "sr-ideal", "--kind": "legal", "--out": f"{out}.json", "--out-dir": out,
    }
    argv = [command.group, command.name, "--dry-run"]
    for word in command.options.split():
        if word in values or word == "--complex?":
            argv += [word.rstrip("?"), values[word.rstrip("?")]]
    return argv


def _tree(root):
    return sorted(str(p) for p in root.rglob("*"))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: f"{c.group}-{c.name}")
def test_dry_run_on_every_subcommand(run, tmp_path, command):
    complex_path = write_complex(tmp_path / "p3.json", P3)
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(board_to_obj(build_path(2))))
    before = _tree(tmp_path)
    argv = _dry_run_argv(command, complex_path, str(board_path), str(tmp_path / "out"))
    code, out, _ = run(*argv)
    assert code == 0
    assert len(out.splitlines()) == 1 and out.startswith("dry run")
    assert _tree(tmp_path) == before

    missing = str(tmp_path / "missing.json")
    code, out, err = run(*_dry_run_argv(command, missing, missing, str(tmp_path / "out")))
    assert code == 2 and "cannot read" in err and out == ""


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_time_cap_must_be_positive_and_finite(capsys, tmp_path, value):
    argv = ["verify", "illegal", "--complex", write_complex(tmp_path / "p3.json", P3), "--time-cap", value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--time-cap: must be a positive finite number of seconds" in err and "Traceback" not in err


def test_python_dash_m_spg_runs(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "spg", "--help"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: spg")


def _simplex_file(path, parts: str) -> str:
    """One facet on ``len(parts)`` vertices, vertex i in part ``parts[i]``."""
    names = [f"v{i}" for i in range(len(parts))]
    return write_complex(path, from_facets([names], dict(zip(names, parts))))


def test_long_integer_game_prints_its_value(run, tmp_path):
    code, out, err = run("game", "value", "--complex", _simplex_file(tmp_path / "s.json", "L" * 1200))
    assert (code, out, err) == (0, "value: 1200\n", "")


def test_too_deep_game_is_inconclusive(run, tmp_path):
    code, out, err = run("game", "value", "--complex", _simplex_file(tmp_path / "s.json", "LR" * 600))
    assert code == 3 and out == ""
    assert err.startswith("INCONCLUSIVE: ") and len(err.splitlines()) == 1


def test_out_of_memory_is_inconclusive(tmp_path):
    # the boundary of a 30-vertex simplex is not flag, so its faces are
    # listed to be counted, and they do not fit in 400 MB of address space
    names = [f"v{i}" for i in range(30)]
    boundary = from_facets([[v for v in names if v != w] for w in names], dict.fromkeys(names, "L"))
    proc = run_spg_capped("complex", "info", "--complex",
                          write_complex(tmp_path / "b.json", boundary), cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("INCONCLUSIVE: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def _forty_vertex_files(tmp_path) -> tuple[str, str]:
    """A 40-vertex simplex, and two 39-vertex facets v00..v38 and v01..v39
    whose one minimal nonface is {v00,v39}."""
    names = [f"v{i:02d}" for i in range(40)]
    two = from_facets([names[:-1], names[1:]], dict.fromkeys(names, "L"))
    return _simplex_file(tmp_path / "simplex.json", "L" * 40), write_complex(tmp_path / "two.json", two)


def test_nonfaces_skip_the_vertices_in_every_facet(tmp_path):
    simplex, two = _forty_vertex_files(tmp_path)
    for path, nonfaces, ideal in ((simplex, "no minimal nonfaces: the complex is a simplex", "<0>"),
                                  (two, "{v00,v39}", "<v00v39>")):
        proc = run_spg_capped("complex", "nonfaces", "--complex", path, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, nonfaces + "\n", "")
        proc = run_spg_capped("complex", "dual", "--to", "sr-ideal", "--complex", path, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"sr-ideal: {ideal}\n", "")


def test_forty_vertex_simplex_is_counted_without_its_faces(tmp_path):
    # a flag complex's faces are counted from its conflict graph, so the
    # 2^40 faces are never listed
    simplex, _ = _forty_vertex_files(tmp_path)
    proc = run_spg_capped("complex", "info", "--complex", simplex, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout.splitlines()[2:] == [
        "dimension: 39", f"faces: {2 ** 40}", "pure: yes", "flag: yes", "simplex: yes",
    ]
    proc = run_spg_capped("game", "tree", "--complex", simplex, cwd=tmp_path)
    nodes = sum(factorial(40) // factorial(40 - k) for k in range(41))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == (f"game tree: {nodes} nodes, depth 40\n"
                           "tree too large to print; use --format dot with --out\n")


def test_round_trips_of_forty_vertices_stop_at_the_cap(tmp_path):
    # the table games and the nonfaces are built without listing 2^40 faces,
    # so the replay reaches the cap on basic positions and reports it; the
    # legal construction of the two facets needs one assembly per vertex
    simplex, two = _forty_vertex_files(tmp_path)
    for kind, path, more in (("both", simplex, ()), ("legal", simplex, ()),
                             ("legal", two, ("--max-n", "40"))):
        proc = run_spg_capped("verify", kind, "--complex", path, *more, cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout.startswith("INCONCLUSIVE: 40 basic positions exceed the cap of 24")
        assert proc.stderr == ""
    proc = run_spg_capped("verify", "legal", "--complex", two, cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.startswith("INCONCLUSIVE: the distance-game board needs 40 assemblies")


def test_cap_overrun_in_verify_is_a_status_line(run, tmp_path):
    p3 = write_complex(tmp_path / "p3.json", P3)
    code, out, err = run("verify", "both", "--complex", p3, "--cap", "2")
    assert code == 3 and err == ""
    assert out == "INCONCLUSIVE: 3 basic positions exceed the cap of 2; " \
        "raise the cap explicitly to analyse this board\n"


def test_cap_overrun_in_construct_writes_the_report(run, tmp_path):
    p3 = write_complex(tmp_path / "p3.json", P3)
    out_dir = tmp_path / "d"
    code, out, err = run("construct", "illegal", "--complex", p3, "--out-dir", str(out_dir),
                         "--cap", "2")
    assert code == 3 and err == "" and out.splitlines()[-1].startswith("INCONCLUSIVE: ")
    report = json.loads((out_dir / "report.json").read_text())
    assert report["status"] == "INCONCLUSIVE" and "exceed the cap of 2" in report["detail"]
    assert set(report) == {"status", "kind", "detail", "expected"}
    assert report["kind"] == "illegal" and report["expected"] == complex_to_obj(P3)


def test_verify_out_writes_the_kind_and_both_complexes(run, tmp_path):
    p3 = write_complex(tmp_path / "p3.json", P3)
    out = tmp_path / "pass.json"
    code, _, _ = run("verify", "both", "--complex", p3, "--out", str(out))
    report = json.loads(out.read_text())
    assert code == 0 and report["status"] == "PASS"
    assert set(report) == {"status", "kind", "detail", "expected", "computed"}
    assert report["kind"] == "both"
    assert report["expected"] == report["computed"] == complex_to_obj(P3)
    # a recovered complex is written only when the replay ran
    out = tmp_path / "budget.json"
    code, _, _ = run("verify", "roundtrip", "--kind", "legal", "--max-n", "2",
                     "--complex", p3, "--out", str(out))
    report = json.loads(out.read_text())
    assert code == 3 and report["status"] == "INCONCLUSIVE"
    assert set(report) == {"status", "kind", "detail", "expected"}
    assert report["kind"] == "legal" and report["expected"] == complex_to_obj(P3)

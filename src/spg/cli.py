"""Command-line front end.

Two-level subcommands over the library:

* ``complex``: inspect a complex file (info, nonfaces, dual, flag)
* ``game``: run the engine on a ruleset and board (complex, tree, outcome, value)
* ``construct``: build realizations and write their artifacts
* ``verify``: round-trip, downward-closure and invariance checks

Exit codes: 0 success or PASS, 1 failure or FAIL, 2 usage error, 3 budget
INCONCLUSIVE.  Every subcommand takes ``--dry-run`` to validate inputs
without computing anything.
"""
from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .boards import (
    Board,
    BudgetExceeded,
    board_from_obj,
    board_to_dot,
    board_to_obj,
    build_cycle,
    build_grid,
    build_path,
    disjoint_union,
    empty_board,
    gamma_board,
    grid_from_cells,
)
from .complexes import (
    LabeledComplex,
    SquareFreeIdeal,
    complex_from_obj,
    complex_to_obj,
    dimension,
    dumps,
    facet_complex,
    facet_ideal,
    faces,
    ideal,
    ideal_to_obj,
    is_flag,
    is_pure,
    is_simplex,
    minimal_nonfaces,
    sr_complex,
    sr_ideal,
)
from .construct import (
    Realization,
    VerifyReport,
    realize_both,
    realize_illegal,
    realize_legal,
    to_independence,
    to_invariant,
    verify_roundtrip,
)
from .engine import (
    DEFAULT_CAP,
    BoardTooLarge,
    analyze,
    check_condition_iv,
    check_invariance,
)
from .gametree import (
    GameTree,
    build_tree,
    canonical_value,
    outcome_of_value,
    tree_to_dot,
    trees_isomorphic,
    value_str,
)
from .rulesets import (
    Ruleset,
    col,
    domineering,
    free_placement,
    gamma_game,
    nogo,
    ruleset_descriptor,
    snort,
    table_game_illegal,
    table_game_legal,
)


class CliError(Exception):
    """Bad arguments or unreadable input files; exits with code 2."""


# ---------------------------------------------------------------------------
# Input parsing


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc


def load_complex(path: str) -> LabeledComplex:
    try:
        return complex_from_obj(_load_json(path))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _is_name_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_ideal(path: str) -> SquareFreeIdeal:
    """Read an ideal file; a variable with no entry in ``parts`` gets part L."""
    obj = _load_json(path)
    try:
        variables, generators = obj["variables"], obj["generators"]
    except (KeyError, TypeError) as exc:
        raise CliError(f"{path}: ideal files need 'variables' and 'generators'") from exc
    if not (_is_name_list(variables) and isinstance(generators, list)
            and all(_is_name_list(g) for g in generators)):
        raise CliError(f"{path}: 'variables' and each generator must be lists of names")
    parts = obj.get("parts", {})
    if not isinstance(parts, dict):
        raise CliError(f"{path}: 'parts' must map variable names to L or R")
    part = {v: parts.get(v, "L") for v in variables}
    try:
        return ideal(variables, part, generators)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_labeling(path: str) -> dict[frozenset[str], int]:
    obj = _load_json(path)
    out: dict[frozenset[str], int] = {}
    try:
        for entry in obj:
            u, v = entry["edge"]
            out[frozenset((u, v))] = int(entry["label"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(
            f"{path}: labelings are lists of {{'edge': [u, v], 'label': n}}"
        ) from exc
    return out


def labeling_to_obj(labeling: dict[frozenset[str], int]) -> list[dict]:
    return [{"edge": sorted(e), "label": lab} for e, lab in sorted(labeling.items(), key=lambda kv: kv[1])]


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside () or []; used by union specs."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


_BOARD_FORMS = (
    "path:N | cycle:N | grid:RxC | grid-cells:[(r,c),...] | "
    "union:(spec,spec,...) | empty | file:board.json | gamma:complex.json[:labeling.json]"
)


def parse_board_spec(spec: str) -> Board:
    spec = spec.strip()
    if spec == "empty":
        return empty_board()
    head, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise CliError(f"unknown board spec {spec!r} (expected {_BOARD_FORMS})")
    try:
        if head == "path":
            return build_path(int(rest))
        if head == "cycle":
            return build_cycle(int(rest))
        if head == "grid":
            rows, x, cols = rest.partition("x")
            if not x:
                raise CliError(f"grid spec needs RxC, got {rest!r}")
            return build_grid(int(rows), int(cols))
        if head == "grid-cells":
            cells = ast.literal_eval(rest)
            return grid_from_cells([tuple(c) for c in cells])
        if head == "union":
            if not (rest.startswith("(") and rest.endswith(")")):
                raise CliError(f"union spec needs parentheses, got {rest!r}")
            inner = _split_top_level(rest[1:-1])
            return disjoint_union(*(parse_board_spec(p) for p in inner))
        if head == "file":
            try:
                return board_from_obj(_load_json(rest))
            except ValueError as exc:
                raise CliError(f"{rest}: {exc}") from exc
        if head == "gamma":
            path, _, labeling_path = rest.partition(":")
            gamma = load_complex(path)
            labeling = load_labeling(labeling_path) if labeling_path else None
            return gamma_board(gamma, labeling) if labeling else gamma_board(gamma)
    except (ValueError, SyntaxError) as exc:
        raise CliError(f"bad board spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown board spec {spec!r} (expected {_BOARD_FORMS})")


_RULESET_FORMS = (
    "snort | col | nogo | domineering | free | table-legal:complex.json | "
    "table-illegal:complex.json | gamma:complex.json[:labeling.json]"
)

_PLAIN_RULESETS = {
    "snort": snort,
    "col": col,
    "nogo": nogo,
    "domineering": domineering,
    "free": free_placement,
}


def parse_ruleset_spec(spec: str) -> Ruleset:
    spec = spec.strip()
    if spec in _PLAIN_RULESETS:
        return _PLAIN_RULESETS[spec]()
    head, sep, rest = spec.partition(":")
    if sep and rest:
        if head == "table-legal":
            return table_game_legal(load_complex(rest))
        if head == "table-illegal":
            return table_game_illegal(load_complex(rest))
        if head == "gamma":
            path, _, labeling_path = rest.partition(":")
            gamma = load_complex(path)
            labeling = load_labeling(labeling_path) if labeling_path else None
            try:
                return gamma_game(gamma, labeling)
            except ValueError as exc:
                raise CliError(f"bad ruleset spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown ruleset {spec!r} (expected {_RULESET_FORMS})")


# ---------------------------------------------------------------------------
# Run configuration


@dataclass
class RunConfig:
    """Everything a subcommand run depends on; fixed config, fixed output."""

    subcommand: str
    complex_path: Optional[str] = None
    ideal_path: Optional[str] = None
    board_spec: Optional[str] = None
    ruleset_spec: Optional[str] = None
    labeling_path: Optional[str] = None
    out: Optional[str] = None
    out_dir: Optional[str] = None
    fmt: str = "text"
    seed: int = 0
    samples: int = 100
    time_cap_s: float = 600.0
    vertex_cap: int = DEFAULT_CAP
    max_construction_vertices: int = 3
    max_pieces: int = 3
    kind: Optional[str] = None
    to: Optional[str] = None
    side: str = "legal"
    dry_run: bool = False
    skip_verify: bool = False


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for f in dataclasses.fields(RunConfig):
        if f.name != "subcommand" and hasattr(args, f.name):
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg


# ---------------------------------------------------------------------------
# Output helpers


def _face_str(f) -> str:
    return "{" + ",".join(sorted(f)) + "}"


def _ideal_str(idl: SquareFreeIdeal) -> str:
    if idl.is_zero:
        return "<0>"
    if idl.is_unit:
        return "<1>"
    obj = ideal_to_obj(idl)
    return "<" + ", ".join("".join(g) for g in obj["generators"]) + ">"


def _facet_list(delta: LabeledComplex) -> str:
    if delta.is_void:
        return "(void)"
    obj = complex_to_obj(delta)
    if not obj["facets"]:
        return "(empty face only)"
    return ", ".join("".join(f) for f in obj["facets"])


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_json(path: str, obj) -> None:
    _write_text(path, dumps(obj))


def _report_obj(rep: VerifyReport) -> dict:
    obj: dict = {"status": rep.status, "kind": rep.kind, "detail": rep.detail}
    if rep.expected is not None:
        obj["expected"] = complex_to_obj(rep.expected)
    if rep.computed is not None:
        obj["computed"] = complex_to_obj(rep.computed)
    return obj


_STATUS_EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}


def _finish_status(status: str, detail: str) -> int:
    print(f"{status}: {detail}")
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# complex subcommands


def _cmd_complex_info(cfg: RunConfig) -> int:
    delta = load_complex(cfg.complex_path)
    if cfg.dry_run:
        print(f"dry run: {cfg.complex_path} parses as a labeled complex")
        return 0
    if delta.is_void:
        print("void complex: no faces at all")
        return 0
    print("vertices: " + " ".join(f"{v}({delta.part[v]})" for v in delta.vertices))
    print("facets: " + _facet_list(delta))
    if delta.is_empty:
        print("dimension: -1 (only the empty face)")
    else:
        print(f"dimension: {dimension(delta)}")
        print(f"faces: {len(faces(delta))}")
        print(f"pure: {'yes' if is_pure(delta) else 'no'}")
        print(f"flag: {'yes' if is_flag(delta) else 'no'}")
        print(f"simplex: {'yes' if is_simplex(delta) else 'no'}")
    return 0


def _cmd_complex_nonfaces(cfg: RunConfig) -> int:
    delta = load_complex(cfg.complex_path)
    if cfg.dry_run:
        print(f"dry run: would list minimal nonfaces of {cfg.complex_path}")
        return 0
    nf = minimal_nonfaces(delta)
    ordered = sorted(sorted(f) for f in nf)
    if not nf:
        print("no minimal nonfaces: the complex is a simplex")
    for f in ordered:
        print(_face_str(f))
    if cfg.out:
        _write_json(cfg.out, {"nonfaces": ordered})
    return 0


_DUALS = {
    "facet-ideal": ("complex", facet_ideal),
    "sr-ideal": ("complex", sr_ideal),
    "facet-complex": ("ideal", facet_complex),
    "sr-complex": ("ideal", sr_complex),
}


def _cmd_complex_dual(cfg: RunConfig) -> int:
    source_kind, op = _DUALS[cfg.to]
    if source_kind == "complex":
        if not cfg.complex_path:
            raise CliError(f"--to {cfg.to} needs --complex")
        source = load_complex(cfg.complex_path)
    else:
        if not cfg.ideal_path:
            raise CliError(f"--to {cfg.to} needs --ideal")
        source = load_ideal(cfg.ideal_path)
    if cfg.dry_run:
        print(f"dry run: would compute the {cfg.to} of the input {source_kind}")
        return 0
    result = op(source)
    if isinstance(result, SquareFreeIdeal):
        print(f"{cfg.to}: {_ideal_str(result)}")
        obj = ideal_to_obj(result)
        obj["parts"] = {v: result.part[v] for v in result.variables}
    else:
        print(f"{cfg.to}: facets " + _facet_list(result))
        obj = complex_to_obj(result)
    if cfg.out:
        _write_json(cfg.out, obj)
    return 0


def _cmd_complex_flag(cfg: RunConfig) -> int:
    delta = load_complex(cfg.complex_path)
    if cfg.dry_run:
        print(f"dry run: would test {cfg.complex_path} for flagness")
        return 0
    print(f"flag: {'true' if is_flag(delta) else 'false'}")
    return 0


# ---------------------------------------------------------------------------
# game subcommands


def _cmd_game_complex(cfg: RunConfig) -> int:
    game = parse_ruleset_spec(cfg.ruleset_spec)
    brd = parse_board_spec(cfg.board_spec)
    if cfg.dry_run:
        print(
            f"dry run: would extract the {cfg.side} complex of {game.name} "
            f"on a {len(brd.vertices)}-vertex board"
        )
        return 0
    a = analyze(game, brd, cap=cfg.vertex_cap)
    if cfg.side == "legal":
        delta, idl = a.legal_complex(), a.legal_ideal()
    else:
        delta, idl = a.illegal_complex(), a.illegal_ideal()
    print(f"{cfg.side} complex: facets " + _facet_list(delta))
    print(f"{cfg.side} ideal: {_ideal_str(idl)}")
    if cfg.out:
        _write_json(
            cfg.out,
            {"kind": cfg.side, "complex": complex_to_obj(delta), "ideal": ideal_to_obj(idl)},
        )
    return 0


def _complex_for_game(cfg: RunConfig) -> LabeledComplex:
    has_file = cfg.complex_path is not None
    has_game = cfg.ruleset_spec is not None or cfg.board_spec is not None
    if has_file and has_game:
        raise CliError("give either --complex or --ruleset/--board, not both")
    if has_file:
        return load_complex(cfg.complex_path)
    if cfg.ruleset_spec is None or cfg.board_spec is None:
        raise CliError("need --complex, or both --ruleset and --board")
    game = parse_ruleset_spec(cfg.ruleset_spec)
    brd = parse_board_spec(cfg.board_spec)
    return analyze(game, brd, cap=cfg.vertex_cap).legal_complex()


_TREE_PRINT_LIMIT = 500


def _render_tree(t: GameTree, lines: list[str], depth: int) -> None:
    for player, vertex, child in t.children:
        lines.append("  " * depth + f"{player} -> {vertex}")
        _render_tree(child, lines, depth + 1)


def _cmd_game_tree(cfg: RunConfig) -> int:
    if cfg.dry_run:
        _dry_run_game_inputs(cfg, "build the game tree")
        return 0
    delta = _complex_for_game(cfg)
    tree = build_tree(delta)
    depth = max((len(f) for f in faces(delta)), default=0)
    if cfg.fmt == "dot":
        text = tree_to_dot(tree)
        if cfg.out:
            _write_text(cfg.out, text)
        else:
            print(text, end="")
        return 0
    print(f"game tree: {tree.node_count} nodes, depth {depth}")
    if tree.node_count <= _TREE_PRINT_LIMIT:
        lines: list[str] = ["(root)"]
        _render_tree(tree, lines, 1)
        print("\n".join(lines))
    else:
        print("tree too large to print; use --format dot with --out")
    if cfg.out and cfg.fmt != "dot":
        _write_json(cfg.out, {"nodes": tree.node_count, "depth": depth})
    return 0


def _dry_run_game_inputs(cfg: RunConfig, action: str) -> None:
    if cfg.complex_path is not None:
        load_complex(cfg.complex_path)
        print(f"dry run: would {action} from {cfg.complex_path}")
        return
    if cfg.ruleset_spec is None or cfg.board_spec is None:
        raise CliError("need --complex, or both --ruleset and --board")
    parse_ruleset_spec(cfg.ruleset_spec)
    parse_board_spec(cfg.board_spec)
    print(f"dry run: would {action} from the engine-extracted legal complex")


_OUTCOME_GLOSS = {
    "P": "second player to move wins",
    "N": "first player to move wins",
    "L": "Left wins regardless of who starts",
    "R": "Right wins regardless of who starts",
}


def _cmd_game_outcome(cfg: RunConfig) -> int:
    if cfg.dry_run:
        _dry_run_game_inputs(cfg, "compute the outcome")
        return 0
    delta = _complex_for_game(cfg)
    o = outcome_of_value(canonical_value(delta))
    print(f"outcome: {o} ({_OUTCOME_GLOSS[o]})")
    return 0


def _cmd_game_value(cfg: RunConfig) -> int:
    if cfg.dry_run:
        _dry_run_game_inputs(cfg, "compute the canonical value")
        return 0
    delta = _complex_for_game(cfg)
    print(f"value: {value_str(canonical_value(delta))}")
    return 0


# ---------------------------------------------------------------------------
# construct subcommands


def _ensure_out_dir(cfg: RunConfig) -> str:
    if not cfg.out_dir:
        raise CliError("--out-dir is required")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_realization(out_dir: str, r: Realization) -> None:
    _write_json(os.path.join(out_dir, "board.json"), board_to_obj(r.board))
    _write_text(os.path.join(out_dir, "board.dot"), board_to_dot(r.board))
    _write_json(os.path.join(out_dir, "ruleset.json"), ruleset_descriptor(r.game))
    if r.regions:
        regions = {v: sorted(ids) for v, ids in sorted(r.regions.items())}
        _write_json(os.path.join(out_dir, "regions.json"), regions)
    if r.edge_labeling:
        _write_json(os.path.join(out_dir, "labeling.json"), labeling_to_obj(r.edge_labeling))


def _verify(
    cfg: RunConfig,
    kind: str,
    cx: LabeledComplex,
    labeling: Optional[dict[frozenset[str], int]] = None,
) -> VerifyReport:
    return verify_roundtrip(
        kind,
        cx,
        edge_labeling=labeling,
        max_construction_vertices=cfg.max_construction_vertices,
        time_cap_s=cfg.time_cap_s,
        cap=cfg.vertex_cap,
    )


def _skip_report(out_dir: str, kind: str) -> int:
    _write_json(
        os.path.join(out_dir, "report.json"),
        {"status": "SKIPPED", "kind": kind, "detail": "verification skipped by request"},
    )
    print("verification skipped")
    return 0


def _cmd_construct_prop210(cfg: RunConfig) -> int:
    delta = load_complex(cfg.complex_path)
    if cfg.dry_run:
        print(f"dry run: would build both table games for {cfg.complex_path}")
        return 0
    out_dir = _ensure_out_dir(cfg)
    legal_r, illegal_r = realize_both(delta)
    _write_json(os.path.join(out_dir, "board.json"), board_to_obj(legal_r.board))
    _write_text(os.path.join(out_dir, "board.dot"), board_to_dot(legal_r.board))
    _write_json(os.path.join(out_dir, "ruleset-legal.json"), ruleset_descriptor(legal_r.game))
    _write_json(os.path.join(out_dir, "ruleset-illegal.json"), ruleset_descriptor(illegal_r.game))
    if legal_r.regions:
        regions = {v: sorted(ids) for v, ids in sorted(legal_r.regions.items())}
        _write_json(os.path.join(out_dir, "regions.json"), regions)
    if cfg.skip_verify:
        return _skip_report(out_dir, "both")
    rep = _verify(cfg, "both", delta)
    _write_json(os.path.join(out_dir, "report.json"), _report_obj(rep))
    return _finish_status(rep.status, rep.detail)


def _construct_one_sided(cfg: RunConfig, kind: str) -> int:
    cx = load_complex(cfg.complex_path)
    labeling = load_labeling(cfg.labeling_path) if cfg.labeling_path else None
    if cfg.dry_run:
        print(f"dry run: would build the {kind}-complex realization for {cfg.complex_path}")
        return 0
    out_dir = _ensure_out_dir(cfg)
    if kind == "illegal":
        r = realize_illegal(cx, labeling)
    else:
        if labeling is not None:
            raise CliError("--labeling only applies to construct illegal")
        r = realize_legal(cx)
    print(f"construction: {r.provenance}; board has {len(r.board.vertices)} vertices")
    _write_realization(out_dir, r)
    if cfg.skip_verify:
        return _skip_report(out_dir, kind)
    rep = _verify(cfg, kind, cx, labeling)
    _write_json(os.path.join(out_dir, "report.json"), _report_obj(rep))
    return _finish_status(rep.status, rep.detail)


def _cmd_construct_illegal(cfg: RunConfig) -> int:
    return _construct_one_sided(cfg, "illegal")


def _cmd_construct_legal(cfg: RunConfig) -> int:
    return _construct_one_sided(cfg, "legal")


def _cmd_construct_invariant(cfg: RunConfig) -> int:
    game = parse_ruleset_spec(cfg.ruleset_spec)
    brd = parse_board_spec(cfg.board_spec)
    if cfg.dry_run:
        print(
            f"dry run: would re-realize {game.name} on a {len(brd.vertices)}-vertex "
            "board as an invariant game"
        )
        return 0
    out_dir = _ensure_out_dir(cfg)
    r = to_invariant(game, brd, cap=cfg.vertex_cap)
    delta = r.source
    print(f"construction: {r.provenance}; board has {len(r.board.vertices)} vertices")
    _write_json(os.path.join(out_dir, "complex.json"), complex_to_obj(delta))
    _write_realization(out_dir, r)
    if cfg.skip_verify:
        return _skip_report(out_dir, "legal")
    rep = _verify(cfg, "legal", delta)
    obj = _report_obj(rep)
    if rep.passed:
        original, rebuilt = build_tree(delta), build_tree(rep.computed)
        obj["trees_isomorphic"] = trees_isomorphic(original, rebuilt)
        obj["value"] = value_str(canonical_value(delta))
        obj["values_equal"] = canonical_value(rep.computed) is canonical_value(delta)
        print(
            f"trees isomorphic: {obj['trees_isomorphic']}; "
            f"value {obj['value']} preserved: {obj['values_equal']}"
        )
    _write_json(os.path.join(out_dir, "report.json"), obj)
    if rep.passed and not (obj["trees_isomorphic"] and obj["values_equal"]):
        return _finish_status("FAIL", "recovered complex matches but tree or value differs")
    return _finish_status(rep.status, rep.detail)


def _cmd_construct_independence(cfg: RunConfig) -> int:
    game = parse_ruleset_spec(cfg.ruleset_spec)
    brd = parse_board_spec(cfg.board_spec)
    if cfg.dry_run:
        print(
            f"dry run: would re-realize {game.name} on a {len(brd.vertices)}-vertex "
            "board as an independence game"
        )
        return 0
    out_dir = _ensure_out_dir(cfg)
    r = to_independence(game, brd, cap=cfg.vertex_cap)
    delta = r.source
    print(f"construction: {r.provenance}; board has {len(r.board.vertices)} vertices")
    _write_json(os.path.join(out_dir, "complex.json"), complex_to_obj(delta))
    _write_realization(out_dir, r)
    if cfg.skip_verify:
        return _skip_report(out_dir, "legal")
    rep = _verify(cfg, "legal", delta)
    _write_json(os.path.join(out_dir, "report.json"), _report_obj(rep))
    return _finish_status(rep.status, rep.detail)


# ---------------------------------------------------------------------------
# verify subcommands


def _cmd_verify_roundtrip(cfg: RunConfig) -> int:
    cx = load_complex(cfg.complex_path)
    labeling = load_labeling(cfg.labeling_path) if cfg.labeling_path else None
    if labeling is not None and cfg.kind != "illegal":
        raise CliError("--labeling only applies to the illegal round trip")
    if cfg.dry_run:
        print(f"dry run: would round-trip {cfg.complex_path} as a {cfg.kind} complex")
        return 0
    rep = _verify(cfg, cfg.kind, cx, labeling)
    if cfg.out:
        _write_json(cfg.out, _report_obj(rep))
    return _finish_status(rep.status, rep.detail)


def _cmd_verify_condition_iv(cfg: RunConfig) -> int:
    game = parse_ruleset_spec(cfg.ruleset_spec)
    brd = parse_board_spec(cfg.board_spec)
    if cfg.dry_run:
        print(f"dry run: would check downward closure of {game.name}")
        return 0
    rep = check_condition_iv(game, brd, cap=cfg.vertex_cap)
    return _finish_status("PASS" if rep.passed else "FAIL", rep.detail)


def _cmd_verify_invariance(cfg: RunConfig) -> int:
    game = parse_ruleset_spec(cfg.ruleset_spec)
    brd = parse_board_spec(cfg.board_spec)
    if cfg.dry_run:
        print(f"dry run: would sample {cfg.samples} invariance checks of {game.name}")
        return 0
    rep = check_invariance(
        game,
        brd,
        samples=cfg.samples,
        seed=cfg.seed,
        cap=cfg.vertex_cap,
        max_pieces=cfg.max_pieces,
    )
    return _finish_status(rep.status, rep.detail)


# ---------------------------------------------------------------------------
# argument parser


def _add_complex(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--complex", dest="complex_path", required=required, metavar="FILE",
                   help="labeled complex JSON file")


def _add_ruleset_board(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--ruleset", dest="ruleset_spec", required=required, metavar="SPEC",
                   help=_RULESET_FORMS)
    p.add_argument("--board", dest="board_spec", required=required, metavar="SPEC",
                   help=_BOARD_FORMS)


def _add_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap", dest="vertex_cap", type=int, default=DEFAULT_CAP, metavar="N",
                   help="refuse boards with more than N basic positions")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", dest="max_construction_vertices", type=int, default=3,
                   metavar="N", help="largest distance-game vertex count to verify")
    p.add_argument("--time-cap", dest="time_cap_s", type=float, default=600.0,
                   metavar="SECONDS", help="verification time budget")


def _add_construct_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", dest="out_dir", required=True, metavar="DIR")
    p.add_argument("--skip-verify", dest="skip_verify", action="store_true")
    _add_budget(p)
    _add_cap(p)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="also write the result as a file")


def _add_labeling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--labeling", dest="labeling_path", metavar="FILE",
                   help="edge labeling JSON (defaults to the canonical labeling)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spg", description="strong placement games on graph boards"
    )
    top = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    def leaf(sub, group: str, name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, description=help_)
        p.set_defaults(subcommand=f"{group} {name}")
        p.add_argument("--dry-run", dest="dry_run", action="store_true",
                       help="validate inputs without computing")
        return p

    cx = top.add_parser("complex", help="inspect complex files").add_subparsers(
        dest="cmd", required=True, metavar="CMD"
    )
    p = leaf(cx, "complex", "info", "summarize a complex: vertices, facets, properties")
    _add_complex(p)
    p = leaf(cx, "complex", "nonfaces", "list the minimal nonfaces")
    _add_complex(p)
    _add_out(p)
    p = leaf(cx, "complex", "dual", "apply a facet or Stanley-Reisner correspondence")
    p.add_argument("--to", required=True, choices=sorted(_DUALS))
    _add_complex(p, required=False)
    p.add_argument("--ideal", dest="ideal_path", metavar="FILE",
                   help="square-free ideal JSON file")
    _add_out(p)
    p = leaf(cx, "complex", "flag", "report whether the complex is flag")
    _add_complex(p)

    gm = top.add_parser("game", help="run the engine on a ruleset and board").add_subparsers(
        dest="cmd", required=True, metavar="CMD"
    )
    p = leaf(gm, "game", "complex", "extract the legal or illegal complex and ideal")
    _add_ruleset_board(p)
    side = p.add_mutually_exclusive_group()
    side.add_argument("--legal", dest="side", action="store_const", const="legal",
                      default="legal", help="legal complex (default)")
    side.add_argument("--illegal", dest="side", action="store_const", const="illegal",
                      help="illegal complex")
    _add_cap(p)
    _add_out(p)
    for name, help_ in (
        ("tree", "build the game tree"),
        ("outcome", "compute the outcome class"),
        ("value", "compute the canonical value"),
    ):
        p = leaf(gm, "game", name, help_)
        _add_complex(p, required=False)
        _add_ruleset_board(p, required=False)
        _add_cap(p)
        if name == "tree":
            p.add_argument("--format", dest="fmt", choices=["text", "dot"], default="text")
            _add_out(p)

    ct = top.add_parser("construct", help="build realizations and artifacts").add_subparsers(
        dest="cmd", required=True, metavar="CMD"
    )
    p = leaf(ct, "construct", "prop210", "table games realizing a complex both ways")
    _add_complex(p)
    _add_construct_options(p)
    p = leaf(ct, "construct", "illegal", "distance game with the complex illegal")
    _add_complex(p)
    _add_labeling(p)
    _add_construct_options(p)
    p = leaf(ct, "construct", "legal", "invariant game with the complex legal")
    _add_complex(p)
    _add_construct_options(p)
    for name, help_ in (
        ("invariant", "re-realize a game invariantly, preserving its tree"),
        ("independence", "re-realize a game whose minimal illegal positions are pairs"),
    ):
        p = leaf(ct, "construct", name, help_)
        _add_ruleset_board(p)
        _add_construct_options(p)

    vf = top.add_parser("verify", help="round-trip and ruleset checks").add_subparsers(
        dest="cmd", required=True, metavar="CMD"
    )
    p = leaf(vf, "verify", "roundtrip", "construct from a complex and replay the engine")
    p.add_argument("--kind", required=True, choices=["legal", "illegal", "both"])
    _add_complex(p)
    _add_labeling(p)
    _add_budget(p)
    _add_cap(p)
    _add_out(p)
    for kind in ("legal", "illegal", "both"):
        p = leaf(vf, "verify", kind, f"shorthand for roundtrip --kind {kind}")
        p.set_defaults(kind=kind, subcommand="verify roundtrip")
        _add_complex(p)
        if kind == "illegal":
            _add_labeling(p)
        _add_budget(p)
        _add_cap(p)
        _add_out(p)
    p = leaf(vf, "verify", "condition-iv", "check the predicate is downward closed")
    _add_ruleset_board(p)
    _add_cap(p)
    p = leaf(vf, "verify", "invariance", "sampled placement-invariance check")
    _add_ruleset_board(p)
    p.add_argument("--samples", type=int, default=100, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--max-pieces", dest="max_pieces", type=int, default=3, metavar="N")
    _add_cap(p)

    return parser


_HANDLERS = {
    "complex info": _cmd_complex_info,
    "complex nonfaces": _cmd_complex_nonfaces,
    "complex dual": _cmd_complex_dual,
    "complex flag": _cmd_complex_flag,
    "game complex": _cmd_game_complex,
    "game tree": _cmd_game_tree,
    "game outcome": _cmd_game_outcome,
    "game value": _cmd_game_value,
    "construct prop210": _cmd_construct_prop210,
    "construct illegal": _cmd_construct_illegal,
    "construct legal": _cmd_construct_legal,
    "construct invariant": _cmd_construct_invariant,
    "construct independence": _cmd_construct_independence,
    "verify roundtrip": _cmd_verify_roundtrip,
    "verify condition-iv": _cmd_verify_condition_iv,
    "verify invariance": _cmd_verify_invariance,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from(args)
    try:
        return _HANDLERS[cfg.subcommand](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoardTooLarge, BudgetExceeded) as exc:
        print(f"INCONCLUSIVE: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

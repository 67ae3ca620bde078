"""Command-line front end.

Two-level subcommands over the library:

* ``complex``: inspect a complex file (info, nonfaces, dual, flag)
* ``game``: run the engine on a ruleset and board (complex, tree, outcome, value)
* ``construct``: build realizations and write their artifacts
* ``verify``: round-trip, downward-closure and invariance checks

Every subcommand is one row of ``COMMANDS``: its group, name and help; the
flags it takes, each declared once in ``_OPTIONS``; fixed argument values
(the ``verify legal|illegal|both`` shorthands fix ``kind``); the loaders of
its inputs; and the action that runs on the loaded inputs.  ``main`` is the
one place that loads and validates the inputs, stops there under
``--dry-run`` with one ``dry run:`` line, runs the action and maps
exceptions to exit codes.

Exit codes: 0 success or PASS, 1 failure or FAIL, 2 usage error (bad
arguments, unreadable input, unwritable output), 3 INCONCLUSIVE: over
budget, a computation nested past Python's recursion limit, or one that ran
out of memory.
"""
from __future__ import annotations

import argparse
import ast
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from .boards import (
    Board, BudgetExceeded, board_from_obj, board_to_dot, board_to_obj, build_cycle, build_grid,
    build_path, disjoint_union, empty_board, gamma_board, grid_from_cells, labeling_from_obj,
    labeling_to_obj, skeleton_labeling,
)
from .complexes import (
    LabeledComplex, SquareFreeIdeal, complex_from_obj, complex_to_obj, dimension, dumps,
    facet_complex, facet_ideal, ideal_from_obj, ideal_to_obj, is_flag, is_pure, is_simplex,
    minimal_nonfaces, sr_complex, sr_ideal,
)
from .construct import (
    Realization, VerifyReport, realize_both, realize_illegal, realize_legal, to_independence,
    to_invariant, verify_roundtrip,
)
from .engine import DEFAULT_CAP, analyze, check_condition_iv, check_invariance
from .gametree import (
    Move, canonical_value, fold, outcome_of_value, tree_to_dot, trees_isomorphic, value_str,
)
from .rulesets import (
    Ruleset, col, domineering, free_placement, gamma_game, nogo, ruleset_descriptor, snort,
    table_game_illegal, table_game_legal,
)

Labeling = dict[frozenset[str], int]


class CliError(Exception):
    """Bad arguments or unreadable input files; exits with code 2."""


# ---------------------------------------------------------------------------
# Input parsing


def _load(path: str, from_obj: Callable):
    """``from_obj`` of the JSON file at ``path``: the one reader of input
    files, whose every complaint names the file."""
    try:
        with open(path) as fh:
            return from_obj(json.load(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


_MAX_NESTING = 100


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside () or []; used by union
    specs.  Union specs are read one nesting level per call, so brackets
    nested deeper than ``_MAX_NESTING`` are a usage error."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
            if depth > _MAX_NESTING:
                raise CliError(f"board spec nests brackets more than {_MAX_NESTING} deep")
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _gamma_spec(rest: str) -> tuple[LabeledComplex, Optional[Labeling]]:
    """The complex and the optional edge labeling of a ``complex.json[:labeling.json]``
    spec, shared by the ``gamma:`` board and ruleset forms."""
    path, _, labeling_path = rest.partition(":")
    delta = _load(path, complex_from_obj)
    return delta, (_load(labeling_path, labeling_from_obj) if labeling_path else None)


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
            return _load(rest, board_from_obj)
        if head == "gamma":
            return gamma_board(*_gamma_spec(rest))
    except (ValueError, TypeError, SyntaxError) as exc:
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
            return table_game_legal(_load(rest, complex_from_obj))
        if head == "table-illegal":
            return table_game_illegal(_load(rest, complex_from_obj))
        if head == "gamma":
            try:
                return gamma_game(*_gamma_spec(rest))
            except ValueError as exc:
                raise CliError(f"bad ruleset spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown ruleset {spec!r} (expected {_RULESET_FORMS})")


# ---------------------------------------------------------------------------
# Input loaders: each reads the arguments of one kind of input and fails
# with CliError before any computation starts.

Args = argparse.Namespace


def _complex_input(args: Args) -> LabeledComplex:
    return _load(args.complex, complex_from_obj)


def _game_input(args: Args) -> tuple[Ruleset, Board]:
    if args.ruleset is None or args.board is None:
        raise CliError("need --complex, or both --ruleset and --board")
    return parse_ruleset_spec(args.ruleset), parse_board_spec(args.board)


def _complex_or_game_input(args: Args) -> LabeledComplex | tuple[Ruleset, Board]:
    """A complex file, or a ruleset and board whose legal complex the action extracts."""
    if args.complex is None:
        return _game_input(args)
    if args.ruleset is not None or args.board is not None:
        raise CliError("give either --complex or --ruleset/--board, not both")
    return _complex_input(args)


# --to target: (flag naming the source, its reader, the correspondence)
_DUALS = {
    "facet-ideal": ("complex", complex_from_obj, facet_ideal),
    "sr-ideal": ("complex", complex_from_obj, sr_ideal),
    "facet-complex": ("ideal", ideal_from_obj, facet_complex),
    "sr-complex": ("ideal", ideal_from_obj, sr_complex),
}


def _dual_input(args: Args) -> LabeledComplex | SquareFreeIdeal:
    flag, from_obj, _ = _DUALS[args.to]
    path = getattr(args, flag)
    if not path:
        raise CliError(f"--to {args.to} needs --{flag}")
    return _load(path, from_obj)


def _labeling_input(args: Args) -> Optional[Labeling]:
    """The ``--labeling`` file, checked against the edges of the ``--complex``
    file, so a labeling of other edges is bad input like any other; a
    complex that no distance game realises is left to the action."""
    if not args.labeling:
        return None
    labeling = _load(args.labeling, labeling_from_obj)
    if args.kind != "illegal":
        raise CliError("--labeling only applies to the illegal round trip")
    try:
        skeleton_labeling(_complex_input(args), labeling)
    except ValueError as exc:
        raise CliError(f"{args.labeling}: {exc}") from exc
    return labeling


# ---------------------------------------------------------------------------
# Output helpers


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


_STATUS_EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}


def _finish_status(status: str, detail: str) -> int:
    print(f"{status}: {detail}")
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# complex actions


def _complex_info(args: Args, delta: LabeledComplex) -> int:
    if delta.is_void:
        print("void complex: no faces at all")
        return 0
    # every line is computed before any is printed, so a run that fails prints none
    lines = ["vertices: " + " ".join(f"{v}({delta.part[v]})" for v in delta.vertices)]
    lines.append("facets: " + _facet_list(delta))
    if delta.is_empty:
        lines.append("dimension: -1 (only the empty face)")
    else:
        lines += [f"dimension: {dimension(delta)}", f"faces: {sum(delta.f_vector)}"]
        for name, test in (("pure", is_pure), ("flag", is_flag), ("simplex", is_simplex)):
            lines.append(f"{name}: {'yes' if test(delta) else 'no'}")
    print("\n".join(lines))
    return 0


def _complex_nonfaces(args: Args, delta: LabeledComplex) -> int:
    nf = minimal_nonfaces(delta)
    ordered = sorted(sorted(f) for f in nf)
    if not nf:
        print("no minimal nonfaces: the complex is a simplex")
    for f in ordered:
        print("{" + ",".join(f) + "}")
    if args.out:
        _write_json(args.out, {"nonfaces": ordered})
    return 0


def _complex_dual(args: Args, source: LabeledComplex | SquareFreeIdeal) -> int:
    result = _DUALS[args.to][2](source)
    if isinstance(result, SquareFreeIdeal):
        print(f"{args.to}: {_ideal_str(result)}")
        obj = ideal_to_obj(result)
    else:
        print(f"{args.to}: facets " + _facet_list(result))
        obj = complex_to_obj(result)
    if args.out:
        _write_json(args.out, obj)
    return 0


def _complex_flag(args: Args, delta: LabeledComplex) -> int:
    print(f"flag: {'true' if is_flag(delta) else 'false'}")
    return 0


# ---------------------------------------------------------------------------
# game actions


def _game_complex(args: Args, source: tuple[Ruleset, Board]) -> int:
    a = analyze(*source, cap=args.cap)
    if args.side == "legal":
        delta, idl = a.legal_complex(), a.legal_ideal()
    else:
        delta, idl = a.illegal_complex(), a.illegal_ideal()
    print(f"{args.side} complex: facets " + _facet_list(delta))
    print(f"{args.side} ideal: {_ideal_str(idl)}")
    if args.out:
        obj = {"kind": args.side, "complex": complex_to_obj(delta), "ideal": ideal_to_obj(idl)}
        _write_json(args.out, obj)
    return 0


def _legal_complex(args: Args, source: LabeledComplex | tuple[Ruleset, Board]) -> LabeledComplex:
    if isinstance(source, LabeledComplex):
        return source
    return analyze(*source, cap=args.cap).legal_complex()


_TREE_PRINT_LIMIT = 500


def _printed_subtree(_: int, moves: list[Move]) -> list[str]:
    """A fold combine: each move's line, then the subtree after it, indented."""
    return [
        line
        for player, vertex, sub in moves
        for line in [f"{player} -> {vertex}", *("  " + s for s in sub)]
    ]


def _game_tree(args: Args, source) -> int:
    delta = _legal_complex(args, source)
    if args.format == "dot":
        text = tree_to_dot(delta)
        if args.out:
            _write_text(args.out, text)
        else:
            print(text, end="")
        return 0
    depth = max(map(int.bit_count, delta.facet_masks), default=0)
    print(f"game tree: {delta.node_count} nodes, depth {depth}")
    if delta.node_count <= _TREE_PRINT_LIMIT:
        print("\n".join(["(root)", *("  " + line for line in fold(delta, _printed_subtree))]))
    else:
        print("tree too large to print; use --format dot with --out")
    if args.out:
        _write_json(args.out, {"nodes": delta.node_count, "depth": depth})
    return 0


_OUTCOME_GLOSS = {
    "P": "second player to move wins",
    "N": "first player to move wins",
    "L": "Left wins regardless of who starts",
    "R": "Right wins regardless of who starts",
}


def _game_outcome(args: Args, source) -> int:
    o = outcome_of_value(canonical_value(_legal_complex(args, source)))
    print(f"outcome: {o} ({_OUTCOME_GLOSS[o]})")
    return 0


def _game_value(args: Args, source) -> int:
    print(f"value: {value_str(canonical_value(_legal_complex(args, source)))}")
    return 0


# ---------------------------------------------------------------------------
# construct and verify actions


def _verified(args: Args, delta: LabeledComplex, labeling: Optional[Labeling],
              report_path: Optional[str], check: Optional[Callable] = None) -> int:
    """Round-trip ``delta`` as ``args.kind``, write the report if a path is
    given, and print the status.  ``check`` runs on a passing report and may
    overrule it."""
    rep = verify_roundtrip(args.kind, delta, edge_labeling=labeling, cap=args.cap,
                           max_construction_vertices=args.max_n, time_cap_s=args.time_cap)
    obj: dict = {"status": rep.status, "kind": rep.kind, "detail": rep.detail}
    if rep.expected is not None:
        obj["expected"] = complex_to_obj(rep.expected)
    if rep.computed is not None:
        obj["computed"] = complex_to_obj(rep.computed)
    status, detail = rep.status, rep.detail
    if check is not None and rep.passed:
        status, detail = check(delta, rep, obj)
    if report_path:
        _write_json(report_path, obj)
    return _finish_status(status, detail)


Files = list[tuple[str, object]]


def _realization_files(r: Realization, rulesets: Optional[dict[str, Ruleset]] = None) -> Files:
    """The artifacts of a realization as (file name, text or JSON object)."""
    files: Files = [("board.json", board_to_obj(r.board)), ("board.dot", board_to_dot(r.board))]
    for name, game in (rulesets or {"ruleset.json": r.game}).items():
        files.append((name, ruleset_descriptor(game)))
    if r.regions:
        files.append(("regions.json", {v: sorted(ids) for v, ids in sorted(r.regions.items())}))
    if r.edge_labeling:
        files.append(("labeling.json", labeling_to_obj(r.edge_labeling)))
    return files


def _announced(r: Realization) -> Files:
    print(f"construction: {r.provenance}; board has {len(r.board.vertices)} vertices")
    return _realization_files(r)


def _construct(args: Args, delta: LabeledComplex, files: Files,
               labeling: Optional[Labeling] = None, check: Optional[Callable] = None) -> int:
    """Write the artifacts into --out-dir, then verify the construction of
    ``delta`` by replay unless --skip-verify.  The directory is made here,
    after the construction succeeded, so a failing one leaves nothing."""
    os.makedirs(args.out_dir, exist_ok=True)
    for name, content in files:
        text = content if isinstance(content, str) else dumps(content)
        _write_text(os.path.join(args.out_dir, name), text)
    report_path = os.path.join(args.out_dir, "report.json")
    if not args.skip_verify:
        return _verified(args, delta, labeling, report_path, check)
    skipped = {"status": "SKIPPED", "kind": args.kind, "detail": "verification skipped by request"}
    _write_json(report_path, skipped)
    print("verification skipped")
    return 0


def _same_tree_and_value(delta: LabeledComplex, rep: VerifyReport, obj: dict) -> tuple[str, str]:
    """The rebuilt game must have the original's game tree and value."""
    obj["trees_isomorphic"] = trees_isomorphic(delta, rep.computed)
    value = canonical_value(delta)
    obj["value"] = value_str(value)
    obj["values_equal"] = canonical_value(rep.computed) is value
    print(
        f"trees isomorphic: {obj['trees_isomorphic']}; "
        f"value {obj['value']} preserved: {obj['values_equal']}"
    )
    if obj["trees_isomorphic"] and obj["values_equal"]:
        return rep.status, rep.detail
    return "FAIL", "recovered complex matches but tree or value differs"


def _construct_prop210(args: Args, delta: LabeledComplex) -> int:
    legal_r, illegal_r = realize_both(delta)
    rulesets = {"ruleset-legal.json": legal_r.game, "ruleset-illegal.json": illegal_r.game}
    return _construct(args, delta, _realization_files(legal_r, rulesets))


def _construct_illegal(args: Args, gamma: LabeledComplex, labeling) -> int:
    return _construct(args, gamma, _announced(realize_illegal(gamma, labeling)), labeling)


def _construct_legal(args: Args, delta: LabeledComplex) -> int:
    return _construct(args, delta, _announced(realize_legal(delta)))


def _rerealized(args: Args, r: Realization, check: Optional[Callable] = None) -> int:
    files = [("complex.json", complex_to_obj(r.source)), *_announced(r)]
    return _construct(args, r.source, files, check=check)


def _construct_invariant(args: Args, source: tuple[Ruleset, Board]) -> int:
    return _rerealized(args, to_invariant(*source, cap=args.cap), _same_tree_and_value)


def _construct_independence(args: Args, source: tuple[Ruleset, Board]) -> int:
    return _rerealized(args, to_independence(*source, cap=args.cap))


def _verify_roundtrip(args: Args, delta: LabeledComplex, labeling=None) -> int:
    return _verified(args, delta, labeling, args.out)


def _verify_condition_iv(args: Args, source: tuple[Ruleset, Board]) -> int:
    rep = check_condition_iv(*source, cap=args.cap)
    return _finish_status("PASS" if rep.passed else "FAIL", rep.detail)


def _verify_invariance(args: Args, source: tuple[Ruleset, Board]) -> int:
    rep = check_invariance(
        *source, samples=args.samples, seed=args.seed, cap=args.cap, max_pieces=args.max_pieces
    )
    return _finish_status(rep.status, rep.detail)


# ---------------------------------------------------------------------------
# The subcommand table


def positive_int(text: str) -> int:
    """argparse type of counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_seconds(text: str) -> float:
    """argparse type of time budgets: a finite number of seconds above 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number of seconds, got {text}")
    return value


# Every flag's argparse keyword arguments; the destination is the flag's name.
_OPTIONS: dict[str, dict] = {
    "--complex": dict(required=True, metavar="FILE", help="labeled complex JSON file"),
    "--ruleset": dict(required=True, metavar="SPEC", help=_RULESET_FORMS),
    "--board": dict(required=True, metavar="SPEC", help=_BOARD_FORMS),
    "--to": dict(required=True, choices=sorted(_DUALS)),
    "--ideal": dict(metavar="FILE", help="square-free ideal JSON file"),
    "--legal": dict(dest="side", action="store_const", const="legal", default="legal",
                    help="legal complex (default)"),
    "--illegal": dict(dest="side", action="store_const", const="illegal", help="illegal complex"),
    "--kind": dict(required=True, choices=["legal", "illegal", "both"]),
    "--labeling": dict(metavar="FILE",
                       help="edge labeling JSON (defaults to the canonical labeling)"),
    "--format": dict(choices=["text", "dot"], default="text"),
    "--out": dict(metavar="FILE", help="also write the result as a file"),
    "--out-dir": dict(required=True, metavar="DIR"),
    "--skip-verify": dict(action="store_true"),
    "--max-n": dict(type=positive_int, default=3, metavar="N",
                    help="largest distance-game vertex count to verify"),
    "--time-cap": dict(type=positive_seconds, default=600.0, metavar="SECONDS",
                       help="verification time budget"),
    "--cap": dict(type=positive_int, default=DEFAULT_CAP, metavar="N",
                  help="refuse boards with more than N basic positions"),
    "--samples": dict(type=positive_int, default=100, metavar="N"),
    "--seed": dict(type=int, default=0, metavar="N"),
    "--max-pieces": dict(type=positive_int, default=3, metavar="N"),
}


class Command(NamedTuple):
    """One subcommand.  ``options`` lists flags of ``_OPTIONS`` in help order:
    ``FLAG?`` drops a required flag's ``required``, and ``A|B`` makes A and B
    mutually exclusive.  ``fixed`` holds argument values the subcommand
    sets; ``action(args, *inputs)`` runs on what the ``inputs`` loaders return."""

    group: str
    name: str
    help: str
    options: str
    fixed: dict
    inputs: tuple[Callable[[Args], object], ...]
    action: Callable[..., int]


_GROUPS = {
    "complex": "inspect complex files",
    "game": "run the engine on a ruleset and board",
    "construct": "build realizations and artifacts",
    "verify": "round-trip and ruleset checks",
}

_BUILD = "--out-dir --skip-verify --max-n --time-cap --cap"
_ROUNDTRIP = "--max-n --time-cap --cap --out"
_SOURCE = "--complex? --ruleset? --board? --cap"
_COMPLEX = (_complex_input,)
_GAME = (_game_input,)
_EITHER = (_complex_or_game_input,)
_LABELED = (_complex_input, _labeling_input)

COMMANDS = (
    Command("complex", "info", "summarize a complex: vertices, facets, properties",
            "--complex", {}, _COMPLEX, _complex_info),
    Command("complex", "nonfaces", "list the minimal nonfaces",
            "--complex --out", {}, _COMPLEX, _complex_nonfaces),
    Command("complex", "dual", "apply a facet or Stanley-Reisner correspondence",
            "--to --complex? --ideal --out", {}, (_dual_input,), _complex_dual),
    Command("complex", "flag", "report whether the complex is flag",
            "--complex", {}, _COMPLEX, _complex_flag),
    Command("game", "complex", "extract the legal or illegal complex and ideal",
            "--ruleset --board --legal|--illegal --cap --out", {}, _GAME, _game_complex),
    Command("game", "tree", "build the game tree",
            f"{_SOURCE} --format --out", {}, _EITHER, _game_tree),
    Command("game", "outcome", "compute the outcome class", _SOURCE, {}, _EITHER, _game_outcome),
    Command("game", "value", "compute the canonical value", _SOURCE, {}, _EITHER, _game_value),
    Command("construct", "prop210", "table games realizing a complex both ways",
            f"--complex {_BUILD}", {"kind": "both"}, _COMPLEX, _construct_prop210),
    Command("construct", "illegal", "distance game with the complex illegal",
            f"--complex --labeling {_BUILD}", {"kind": "illegal"}, _LABELED, _construct_illegal),
    Command("construct", "legal", "invariant game with the complex legal",
            f"--complex {_BUILD}", {"kind": "legal"}, _COMPLEX, _construct_legal),
    Command("construct", "invariant", "re-realize a game invariantly, preserving its tree",
            f"--ruleset --board {_BUILD}", {"kind": "legal"}, _GAME, _construct_invariant),
    Command("construct", "independence",
            "re-realize a game whose minimal illegal positions are pairs",
            f"--ruleset --board {_BUILD}", {"kind": "legal"}, _GAME, _construct_independence),
    Command("verify", "roundtrip", "construct from a complex and replay the engine",
            f"--kind --complex --labeling {_ROUNDTRIP}", {}, _LABELED, _verify_roundtrip),
    Command("verify", "legal", "shorthand for roundtrip --kind legal",
            f"--complex {_ROUNDTRIP}", {"kind": "legal"}, _COMPLEX, _verify_roundtrip),
    Command("verify", "illegal", "shorthand for roundtrip --kind illegal",
            f"--complex --labeling {_ROUNDTRIP}", {"kind": "illegal"}, _LABELED,
            _verify_roundtrip),
    Command("verify", "both", "shorthand for roundtrip --kind both",
            f"--complex {_ROUNDTRIP}", {"kind": "both"}, _COMPLEX, _verify_roundtrip),
    Command("verify", "condition-iv", "check the predicate is downward closed",
            "--ruleset --board --cap", {}, _GAME, _verify_condition_iv),
    Command("verify", "invariance", "sampled placement-invariance check",
            "--ruleset --board --samples --seed --max-pieces --cap", {}, _GAME,
            _verify_invariance),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spg",
                                     description="strong placement games on graph boards")
    top = parser.add_subparsers(dest="group", required=True, metavar="GROUP")
    groups = {
        name: top.add_parser(name, help=help_).add_subparsers(
            dest="cmd", required=True, metavar="CMD"
        )
        for name, help_ in _GROUPS.items()
    }
    for command in COMMANDS:
        p = groups[command.group].add_parser(command.name, help=command.help,
                                             description=command.help)
        p.set_defaults(command=command, **command.fixed)
        p.add_argument("--dry-run", action="store_true", help="validate inputs without computing")
        for word in command.options.split():
            flags = word.split("|")
            target = p.add_mutually_exclusive_group() if len(flags) > 1 else p
            for flag in flags:
                kwargs = dict(_OPTIONS[flag.rstrip("?")])
                if flag.endswith("?"):
                    kwargs.pop("required")
                target.add_argument(flag.rstrip("?"), **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command: Command = args.command
    try:
        inputs = [load(args) for load in command.inputs]
        if args.dry_run:
            print(f"dry run: spg {command.group} {command.name}: inputs valid; nothing computed")
            return 0
        return command.action(args, *inputs)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"INCONCLUSIVE: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("INCONCLUSIVE: the computation nested past Python's recursion limit", file=sys.stderr)
        return 3
    except MemoryError:
        print("INCONCLUSIVE: the computation ran out of memory", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

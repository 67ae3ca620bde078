"""Realize labelled complexes as legal or illegal complexes of actual games.

Three constructions are provided.  Table games put one small cycle on the
board per complex vertex (3-cycles for L, 4-cycles for R) and decide legality
by looking the covered cycles up in the complex; they realise any complex as
either a legal or an illegal complex, but are not invariant.  The distance
game puts one large cycle assembly per vertex, with connection paths whose
lengths encode which assemblies form a forbidden pattern; it realises any
complex without isolated vertices as the illegal complex of an invariant
game.  Legal complexes are realised by running the distance game on the
complex of minimal nonfaces, plus one free assembly per vertex that lies in
every facet (such a vertex is never part of a forbidden pattern).

``verify_roundtrip`` replays a construction through the position-enumeration
engine and compares the recovered complex with the input, using the exact
intended piece regions rather than isomorphism search.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .boards import (
    Board,
    BudgetExceeded,
    assembly_board,
    assembly_regions,
    build_cycle,
    check_edge_labeling,
    default_edge_labeling,
    disjoint_union,
    empty_board,
    gamma_board,
)
from .complexes import (
    LabeledComplex,
    facet_complex,
    is_simplex,
    relabel,
    sr_ideal,
)
from .engine import (
    DEFAULT_CAP,
    BasicPositionIndex,
    analyze,
    basic_positions,
    check_condition_iv,
    legal_complex,
)
from .rulesets import (
    Ruleset,
    cycle_placement_game,
    gamma_game,
    table_game_illegal,
    table_game_legal,
)


@dataclass
class Realization:
    """A game and board engineered so the engine recovers a target complex.

    ``regions`` maps each complex vertex to the board ids its piece must
    cover; verification requires every enumerated placement to coincide with
    exactly one region.  ``index`` is filled in by verification.
    """

    game: Ruleset
    board: Board
    provenance: str
    source: Optional[LabeledComplex] = None
    regions: dict[str, frozenset[int]] = field(default_factory=dict)
    edge_labeling: Optional[dict[frozenset[str], int]] = None
    index: Optional[BasicPositionIndex] = None


def _cycle_table_board(delta: LabeledComplex) -> tuple[Board, dict[str, frozenset[int]]]:
    """One 3-cycle per L-vertex and one 4-cycle per R-vertex, in canonical
    vertex order, with the id range of each component recorded per vertex."""
    parts = [build_cycle(3 if delta.part[v] == "L" else 4) for v in delta.vertices]
    combined = disjoint_union(*parts) if parts else empty_board()
    regions: dict[str, frozenset[int]] = {}
    offset = 0
    for v, piece_board in zip(delta.vertices, parts):
        size = len(piece_board.vertices)
        regions[v] = frozenset(range(offset, offset + size))
        offset += size
    return combined, regions


def realize_both(delta: LabeledComplex) -> tuple[Realization, Realization]:
    """Two table games on a shared cycle board: the first has ``delta`` as its
    legal complex (positions must name faces), the second as its illegal
    complex (positions must avoid facets)."""
    table, regions = _cycle_table_board(delta)
    legal = Realization(
        table_game_legal(delta), table, "table-game-legal", source=delta, regions=dict(regions)
    )
    illegal = Realization(
        table_game_illegal(delta), table, "table-game-illegal", source=delta, regions=dict(regions)
    )
    return legal, illegal


def realize_illegal(
    gamma: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
) -> Realization:
    """The distance game whose illegal complex is ``gamma``.

    The game and board are built from one shared edge labeling: the board
    spaces assemblies at label+1 steps, and the game forbids exactly those
    distance patterns.  An empty complex yields free placement on an empty
    board.  Isolated vertices are rejected: a single always-illegal placement
    cannot be expressed through piece patterns alone.
    """
    if gamma.is_empty:
        return Realization(gamma_game(gamma), empty_board(), "distance-game", source=gamma)
    labeling = (
        default_edge_labeling(gamma)
        if edge_labeling is None
        else check_edge_labeling(gamma, edge_labeling)
    )
    board = gamma_board(gamma, labeling)
    game = gamma_game(gamma, labeling)
    return Realization(
        game,
        board,
        "distance-game",
        source=gamma,
        regions=assembly_regions(board),
        edge_labeling=labeling,
    )


def realize_legal(delta: LabeledComplex) -> Realization:
    """A game whose legal complex is ``delta``, invariant by construction.

    A simplex needs no restrictions: pieces are plain 3- and 4-cycles on a
    matching cycle board and every disjoint placement is allowed.  Otherwise
    the forbidden patterns are the minimal nonfaces of ``delta``; the distance
    game realises them, and vertices lying in every facet (absent from every
    minimal nonface) each get a free assembly component of their own.
    """
    if is_simplex(delta):
        table, regions = _cycle_table_board(delta)
        return Realization(
            cycle_placement_game(delta), table, "cycle-placement", source=delta, regions=regions
        )
    gamma = facet_complex(sr_ideal(delta))
    inner = realize_illegal(gamma)
    always = [v for v in delta.vertices if v not in set(gamma.vertices)]
    if not always:
        return Realization(
            inner.game,
            inner.board,
            "distance-game",
            source=delta,
            regions=inner.regions,
            edge_labeling=inner.edge_labeling,
        )
    n = len(gamma.vertices)
    extras = [assembly_board(v, delta.part[v], n) for v in always]
    combined = disjoint_union(inner.board, *extras)
    return Realization(
        inner.game,
        combined,
        "distance-game+free-components",
        source=delta,
        regions=assembly_regions(combined),
        edge_labeling=inner.edge_labeling,
    )


def to_invariant(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> Realization:
    """Re-realize an arbitrary game invariantly, preserving its game tree.

    The legal complex is extracted and handed to :func:`realize_legal`; the
    resulting game's legality depends only on piece patterns.  Order
    dependence in the input predicate is rejected up front since the legal
    complex would then be meaningless.
    """
    report = check_condition_iv(game, board, cap=cap)
    if not report.passed:
        raise ValueError(f"legality is not downward closed on this board: {report.detail}")
    delta = legal_complex(game, board, cap=cap)
    return realize_legal(delta)


def to_independence(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> Realization:
    """Re-realize a game whose minimal illegal positions are pairs.

    Requires the illegal complex to be a nonempty graph: every facet of size
    at most 2 and at least one edge.  The produced game then forbids only
    two-piece patterns, and the legal complex is the independence complex of
    the illegal one.
    """
    a = analyze(game, board, cap=cap)
    gamma = a.illegal_complex()
    big = sorted((f for f in gamma.facets if len(f) > 2), key=lambda f: sorted(f))
    if big:
        name = "".join(sorted(big[0]))
        raise ValueError(
            f"minimal illegal position {name} has {len(big[0])} pieces; an "
            "independence game can only forbid pairs"
        )
    if not any(len(f) == 2 for f in gamma.facets):
        raise ValueError(
            "the illegal complex has no two-piece minimal position: nothing "
            "for an independence game to forbid"
        )
    out = realize_legal(a.legal_complex())
    out.provenance = f"independence/{out.provenance}"
    return out


# ---------------------------------------------------------------------------
# Round-trip verification


@dataclass
class VerifyReport:
    status: str  # PASS, FAIL or INCONCLUSIVE
    kind: str
    detail: str
    expected: Optional[LabeledComplex] = None
    computed: Optional[LabeledComplex] = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _recovered_complex(
    realization: Realization,
    which: str,
    cap: int,
    deadline: float | None,
) -> tuple[Optional[LabeledComplex], str]:
    """Run the engine on a realization and relabel the result through the
    intended regions.  Returns (complex, "") or (None, failure detail)."""
    idx = basic_positions(realization.game, realization.board, deadline=deadline)
    realization.index = idx
    regions = realization.regions
    by_ids = {ids: name for name, ids in regions.items()}
    mapping: dict[str, str] = {}
    seen: dict[str, str] = {}
    for var, pl in idx.entries:
        target = by_ids.get(pl.occupied)
        if target is None:
            return None, (
                f"placement {var} covers {len(pl.occupied)} vertices outside "
                "any intended region"
            )
        if target in seen:
            return None, f"placements {seen[target]} and {var} both cover region {target}"
        expected_part = realization.source.part[target] if realization.source else pl.player
        if pl.player != expected_part:
            return None, f"region {target} was covered by a {pl.player} piece"
        seen[target] = var
        mapping[var] = target
    missing = sorted(set(regions) - set(seen))
    if missing:
        return None, f"no placement covers region(s) {', '.join(missing)}"
    a = analyze(realization.game, realization.board, cap=cap, index=idx)
    raw = a.legal_complex() if which == "legal" else a.illegal_complex()
    return relabel(raw, mapping), ""


def _compare(
    kind: str,
    expected: LabeledComplex,
    computed: LabeledComplex,
    extra: str,
) -> VerifyReport:
    if expected.is_empty:
        # a game always has the empty position and nothing else on an empty
        # board, so zero-vertex targets are compared by emptiness
        if computed.is_empty:
            return VerifyReport("PASS", kind, f"both complexes empty; {extra}", expected, computed)
        return VerifyReport(
            "FAIL", kind, f"expected an empty complex, recovered {computed!r}", expected, computed
        )
    if computed == expected:
        return VerifyReport("PASS", kind, f"recovered complex matches; {extra}", expected, computed)
    miss = sorted(
        "".join(sorted(f)) for f in expected.facets.symmetric_difference(computed.facets)
    )
    return VerifyReport(
        "FAIL",
        kind,
        f"facet mismatch on {', '.join(miss) if miss else 'vertex parts'}",
        expected,
        computed,
    )


def verify_roundtrip(
    kind: str,
    complex_: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
    max_construction_vertices: int = 3,
    time_cap_s: float = 600.0,
    cap: int = DEFAULT_CAP,
) -> VerifyReport:
    """Build the ``kind`` construction for a complex and replay it through the
    engine, demanding exact recovery.

    kind "legal" uses the invariant legal-complex construction, "illegal" the
    distance game, and "both" the two table games.  Distance-game inputs
    beyond ``max_construction_vertices`` or the time cap come back
    INCONCLUSIVE: boards grow as the fourth power of the vertex count.
    """
    if kind not in ("legal", "illegal", "both"):
        raise ValueError(f"unknown round-trip kind {kind!r}")
    deadline = time.monotonic() + time_cap_s

    def needs_budget(n: int, what: str) -> Optional[VerifyReport]:
        if n > max_construction_vertices:
            return VerifyReport(
                "INCONCLUSIVE",
                kind,
                f"{what} needs {n} assemblies, over the budget of "
                f"{max_construction_vertices}; raise max_construction_vertices to run it",
                complex_,
                None,
            )
        return None

    try:
        if kind == "both":
            legal_r, illegal_r = realize_both(complex_)
            got_legal, err = _recovered_complex(legal_r, "legal", cap, deadline)
            if got_legal is None:
                return VerifyReport("FAIL", kind, f"face-membership game: {err}", complex_, None)
            rep = _compare(kind, complex_, got_legal, "face-membership game")
            if not rep.passed:
                return rep
            got_illegal, err = _recovered_complex(illegal_r, "illegal", cap, deadline)
            if got_illegal is None:
                return VerifyReport("FAIL", kind, f"facet-avoidance game: {err}", complex_, None)
            rep2 = _compare(kind, complex_, got_illegal, "facet-avoidance game")
            if not rep2.passed:
                return rep2
            return VerifyReport(
                "PASS",
                kind,
                f"legal and illegal recovery both exact on {len(complex_.vertices)} cycles",
                complex_,
                got_legal,
            )
        if kind == "illegal":
            over = needs_budget(len(complex_.vertices), "the distance-game board")
            if over:
                return over
            r = realize_illegal(complex_, edge_labeling)
            got, err = _recovered_complex(r, "illegal", cap, deadline)
            if got is None:
                return VerifyReport("FAIL", kind, err, complex_, None)
            return _compare(
                kind, complex_, got, f"board has {len(r.board.vertices)} vertices"
            )
        # kind == "legal"
        if not is_simplex(complex_):
            gamma = facet_complex(sr_ideal(complex_))
            over = needs_budget(len(gamma.vertices), "the minimal-nonface distance board")
            if over:
                return over
        r = realize_legal(complex_)
        got, err = _recovered_complex(r, "legal", cap, deadline)
        if got is None:
            return VerifyReport("FAIL", kind, err, complex_, None)
        return _compare(kind, complex_, got, f"construction {r.provenance}")
    except BudgetExceeded as exc:
        return VerifyReport("INCONCLUSIVE", kind, f"time budget exhausted: {exc}", complex_, None)

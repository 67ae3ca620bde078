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
from typing import Iterable, Mapping, Optional, Sequence

from .boards import (
    Board,
    BudgetExceeded,
    assembly_board,
    build_cycle,
    disjoint_union,
    distance_labeling,
    empty_board,
    gamma_board,
    gamma_piece,
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
    Verdict,
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
    exactly one region.  Every construction lays its regions out as
    consecutive id ranges.
    """

    game: Ruleset
    board: Board
    provenance: str
    source: Optional[LabeledComplex] = None
    regions: dict[str, frozenset[int]] = field(default_factory=dict)
    edge_labeling: Optional[dict[frozenset[str], int]] = None


def _ranges(names: Sequence[str], sizes: Iterable[int], start: int = 0) -> dict[str, frozenset[int]]:
    """Consecutive id ranges of the given sizes from ``start``, one per name."""
    out: dict[str, frozenset[int]] = {}
    for name, size in zip(names, sizes):
        out[name] = frozenset(range(start, start + size))
        start += size
    return out


def _cycle_table_board(delta: LabeledComplex) -> tuple[Board, dict[str, frozenset[int]]]:
    """One 3-cycle per L-vertex and one 4-cycle per R-vertex, in canonical
    vertex order, with the id range of each component recorded per vertex."""
    parts = [build_cycle(3 if delta.part[v] == "L" else 4) for v in delta.vertices]
    return disjoint_union(*parts), _ranges(delta.vertices, (len(p.vertices) for p in parts))


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
    distance patterns.  The region of each vertex is its assembly, the id
    range of its piece's size in vertex order.  An empty complex yields free
    placement on an empty board.  Isolated vertices are rejected: a single
    always-illegal placement cannot be expressed through piece patterns
    alone.
    """
    if gamma.is_empty:
        return Realization(gamma_game(gamma), empty_board(), "distance-game", source=gamma)
    labeling = distance_labeling(gamma, edge_labeling)
    n = len(gamma.vertices)
    sizes = (len(gamma_piece(n, gamma.part[v]).vertices) for v in gamma.vertices)
    return Realization(
        gamma_game(gamma, labeling),
        gamma_board(gamma, labeling),
        "distance-game",
        source=gamma,
        regions=_ranges(gamma.vertices, sizes),
        edge_labeling=labeling,
    )


def realize_legal(delta: LabeledComplex) -> Realization:
    """A game whose legal complex is ``delta``, invariant by construction.

    A simplex needs no restrictions: pieces are plain 3- and 4-cycles on a
    matching cycle board and every disjoint placement is allowed.  Otherwise
    the forbidden patterns are the minimal nonfaces of ``delta``; the distance
    game realises them, and vertices lying in every facet (absent from every
    minimal nonface) each get a free assembly component of their own, after
    the distance game's board.
    """
    if is_simplex(delta):
        table, regions = _cycle_table_board(delta)
        out = Realization(cycle_placement_game(), table, "cycle-placement", regions=regions)
    else:
        out = realize_illegal(facet_complex(sr_ideal(delta)))
        always = [v for v in delta.vertices if v not in out.regions]
        if always:
            extras = [assembly_board(delta.part[v], len(out.regions)) for v in always]
            out.regions.update(
                _ranges(always, (len(b.vertices) for b in extras), len(out.board.vertices))
            )
            out.board = disjoint_union(out.board, *extras)
            out.provenance += "+free-components"
    out.source = delta
    return out


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


def _recovered_complex(
    realization: Realization,
    which: str,
    cap: int,
    deadline: float | None,
) -> tuple[Optional[LabeledComplex], str]:
    """Run the engine on a realization and relabel the result through the
    intended regions.  Returns (complex, "") or (None, failure detail)."""
    idx = basic_positions(realization.game, realization.board, deadline=deadline)
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
    # the board keeps the index just made, so the analysis reads it back
    a = analyze(realization.game, realization.board, cap=cap)
    raw = a.legal_complex() if which == "legal" else a.illegal_complex()
    return relabel(raw, mapping), ""


def _mismatch(expected: LabeledComplex, computed: LabeledComplex) -> str:
    """Why the recovered complex differs from the expected one ("" when it
    does not)."""
    if expected.is_empty:
        # a game always has the empty position and nothing else on an empty
        # board, so zero-vertex targets are compared by emptiness
        return "" if computed.is_empty else f"expected an empty complex, recovered {computed!r}"
    if computed == expected:
        return ""
    miss = sorted(
        "".join(sorted(f)) for f in expected.facets.symmetric_difference(computed.facets)
    )
    return f"facet mismatch on {', '.join(miss) if miss else 'vertex parts'}"


def verify_roundtrip(
    kind: str,
    complex_: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
    max_construction_vertices: int = 3,
    time_cap_s: float = 600.0,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Build the ``kind`` construction for a complex and replay it through the
    engine, demanding exact recovery.

    kind "legal" uses the invariant legal-complex construction, "illegal" the
    distance game, and "both" the two table games.  Every budget ends in one
    INCONCLUSIVE verdict that names it: a distance game beyond
    ``max_construction_vertices`` assemblies (boards grow as the fourth power
    of the vertex count), a replay past ``time_cap_s`` or a board with more
    than ``cap`` basic positions.
    """
    if kind not in ("legal", "illegal", "both"):
        raise ValueError(f"unknown round-trip kind {kind!r}")
    deadline = time.monotonic() + time_cap_s
    try:
        if kind != "both":
            # one assembly per vertex: "legal" runs the distance game on the
            # minimal nonfaces and gives each vertex in every facet a free
            # one, save on a simplex, which lives on a cycle table
            simplex = kind == "legal" and is_simplex(complex_)
            assemblies = 0 if simplex else len(complex_.vertices)
            if assemblies > max_construction_vertices:
                raise BudgetExceeded(
                    f"the distance-game board needs {assemblies} assemblies, over the budget of "
                    f"{max_construction_vertices}; raise max_construction_vertices to run it"
                )
        if kind == "both":
            legal_r, illegal_r = realize_both(complex_)
            runs = [
                (legal_r, "legal", "face-membership game"),
                (illegal_r, "illegal", "facet-avoidance game"),
            ]
        elif kind == "illegal":
            r = realize_illegal(complex_, edge_labeling)
            runs = [(r, "illegal", f"board has {len(r.board.vertices)} vertices")]
        else:
            r = realize_legal(complex_)
            runs = [(r, "legal", f"construction {r.provenance}")]
        recovered = []
        for r, side, what in runs:
            got, err = _recovered_complex(r, side, cap, deadline)
            wrong = err or _mismatch(complex_, got)
            if wrong:
                return Verdict("FAIL", f"{what}: {wrong}", computed=got)
            recovered.append(got)
    except BudgetExceeded as exc:
        return Verdict("INCONCLUSIVE", str(exc))
    done = "; ".join(what for _, _, what in runs)
    return Verdict("PASS", f"recovered complex matches; {done}", computed=recovered[0])

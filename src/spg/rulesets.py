"""Rulesets: one piece shape per player plus a legality predicate.

A position is a set of basic positions, held as an int mask.  A ruleset's
``legal`` compiles a predicate once per analysis: ``legal(board, placements)``
returns a ``mask -> bool`` function in which bit i stands for
``placements[i]``.  The masks it is asked about never hold two placements
whose occupied sets overlap (the engine classifies those illegal without
consulting it, as pieces are placed on empty spaces), but they need not be
reachable.  The empty mask must be legal.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Sequence

from . import boards
from .complexes import LabeledComplex, _by_bytes, _byte_tables, bits
from .boards import Board, Piece, Placement, components, distance

Predicate = Callable[[int], bool]


@dataclass(frozen=True)
class Ruleset:
    """One piece per player (``pieces["L"]``, ``pieces["R"]``) and a legality
    predicate.

    ``legal(board, placements)`` compiles the predicate for one analysis (see
    the module docstring).  ``pairwise`` declares that a position is legal
    exactly when each of its placements and each pair of them is legal on
    every board, so that the legal complex is the flag complex of its edges;
    the engine then consults the predicate on singletons and pairs only.
    ``closed`` declares that the predicate is downward closed on every board:
    a position it accepts has only accepted subpositions.  The engine then
    consults it only on positions whose one-smaller subpositions are all
    legal, and does not check the promise.
    """

    name: str
    pieces: Mapping[str, Piece]
    legal: Callable[[Board, Sequence[Placement]], Predicate]
    claims_invariant: bool = False
    pairwise: bool = False
    closed: bool = False

    def __repr__(self) -> str:
        return f"Ruleset({self.name!r})"


# The built-in rulesets share one piece per shape and player: pieces are
# immutable, and each finds its automorphisms on its first placement search.
_VERTEX_PIECES = {"L": boards.vertex_piece("L"), "R": boards.vertex_piece("R")}
_DOMINO_PIECES = {"L": boards.domino_piece("L"), "R": boards.domino_piece("R")}
_TABLE_PIECES = {"L": boards.cycle_piece(3, "L"), "R": boards.cycle_piece(4, "R")}


def _anything(b: Board, placements: Sequence[Placement]) -> Predicate:
    return lambda mask: True


def free_placement() -> Ruleset:
    """Single-vertex pieces, every position legal."""
    return Ruleset(
        "free", dict(_VERTEX_PIECES), _anything, claims_invariant=True, pairwise=True
    )


def _no_touching(same: bool) -> Callable[[Board, Sequence[Placement]], Predicate]:
    """Legal when no placement occupies a neighbour of a vertex of a
    placement of the same player (``same``) or of the other player."""

    def legal(b: Board, placements: Sequence[Placement]) -> Predicate:
        at: dict[int, int] = {}  # vertex -> the placements occupying it
        by_player: dict[str, int] = {}
        for i, p in enumerate(placements):
            for v in p.occupied:
                at[v] = at.get(v, 0) | 1 << i
            by_player[p.player] = by_player.get(p.player, 0) | 1 << i
        touching = []
        for p in placements:
            near = 0
            for v in p.occupied:
                for w in b.neighbors(v):
                    near |= at.get(w, 0)
            own = by_player[p.player]
            touching.append(near & own if same else near & ~own)
        return lambda mask: not any(touching[i] & mask for i in bits(mask))

    return legal


def snort() -> Ruleset:
    """No piece may be orthogonally adjacent to an opposing piece."""
    return Ruleset(
        "snort", dict(_VERTEX_PIECES), _no_touching(False), claims_invariant=True, pairwise=True
    )


def col() -> Ruleset:
    """No piece may be adjacent to a piece of the same player."""
    return Ruleset(
        "col", dict(_VERTEX_PIECES), _no_touching(True), claims_invariant=True, pairwise=True
    )


def nogo() -> Ruleset:
    """Every maximal same-player connected group needs an adjacent empty vertex."""

    def legal(b: Board, placements: Sequence[Placement]) -> Predicate:
        n = len(b.vertices)
        dense = {v: 1 << i for i, v in enumerate(b.vertices)}
        # two lanes of n bits: Left's stones, then Right's shifted past them
        stones_of = _byte_tables([
            sum(dense[v] for v in p.occupied) << n * (p.player == "R") for p in placements
        ])
        nbrs = [sum(dense[w] for w in b.neighbors(v)) for v in b.vertices]
        near = _byte_tables(nbrs + [m << n for m in nbrs])
        everything = (1 << n) - 1

        def predicate(mask: int) -> bool:
            stones = _by_bytes(stones_of, mask)
            empty = everything & ~(stones | stones >> n)
            # a stone breathes when a neighbour is empty or a breathing own stone
            air = stones & _by_bytes(near, empty | empty << n)
            while air != stones:
                more = air | stones & _by_bytes(near, air)
                if more == air:
                    return False
                air = more
            return True

        return predicate

    # removing a stone never takes a liberty away: the emptied vertex is a
    # liberty of every group it touched, so the predicate is downward closed
    return Ruleset("nogo", dict(_VERTEX_PIECES), legal, claims_invariant=False, closed=True)


def domineering() -> Ruleset:
    """Left places vertical dominoes, Right horizontal ones, on a grid board."""

    def oriented(b: Board, p: Placement) -> bool:
        if len(p.occupied) != 2:
            return False
        (r1, c1), (r2, c2) = sorted(b.coords[v] for v in p.occupied)
        if p.player == "L":
            return c1 == c2 and r2 - r1 == 1
        return r1 == r2 and c2 - c1 == 1

    def legal(b: Board, placements: Sequence[Placement]) -> Predicate:
        if placements and b.coords is None:
            raise ValueError("domineering needs a board with grid coordinates")
        wrong = sum(1 << i for i, p in enumerate(placements) if not oriented(b, p))
        return lambda mask: not mask & wrong

    return Ruleset(
        "domineering", dict(_DOMINO_PIECES), legal, claims_invariant=False, pairwise=True
    )


# ---------------------------------------------------------------------------
# Table games: legality looked up in a fixed complex on a board of small cycles


def _covered_names(b: Board, placements: Sequence[Placement], delta: LabeledComplex) -> list[str | None]:
    """Per placement, the complex vertex it names, or None when it does not
    exactly cover a labelled cycle.  Components that are triangles name
    L-vertices, 4-cycles name R-vertices, in canonical order; components
    beyond the needed counts stay unlabelled."""
    cycles = [c for c in components(b) if all(b.degree(v) == 2 for v in c)]
    names = dict(zip([c for c in cycles if len(c) == 3], delta.left))
    names.update(zip([c for c in cycles if len(c) == 4], delta.right))
    return [names.get(p.occupied) for p in placements]


def _table_game(name: str, delta: LabeledComplex, accepts: Callable[[set], bool]) -> Ruleset:
    """A position is legal when it is empty or ``accepts`` the set of complex
    vertices its placements name (None for a placement that names none)."""

    def legal(b: Board, placements: Sequence[Placement]) -> Predicate:
        names = _covered_names(b, placements, delta)
        return lambda mask: not mask or accepts({names[i] for i in bits(mask)})

    return Ruleset(name, dict(_TABLE_PIECES), legal, claims_invariant=False)


def table_game_legal(delta: LabeledComplex) -> Ruleset:
    """Legal exactly when the covered cycles lie in a facet of ``delta``."""
    return _table_game("table-legal", delta, lambda covered: any(covered <= f for f in delta.facets))


def table_game_illegal(delta: LabeledComplex) -> Ruleset:
    """Legal exactly when the covered cycles contain no facet of ``delta``."""
    return _table_game(
        "table-illegal", delta,
        lambda covered: None not in covered and not any(f <= covered for f in delta.facets),
    )


def cycle_placement_game() -> Ruleset:
    """Left plays 3-cycles, Right plays 4-cycles, with no further restrictions.

    Realises a simplex as a legal complex on the matching board of small
    cycles: every disjoint collection of covered cycles is allowed.
    """
    return Ruleset(
        "cycle-placement", dict(_TABLE_PIECES), _anything, claims_invariant=True,
        pairwise=True,
    )


# ---------------------------------------------------------------------------
# The distance game built from an illegal complex


def id_sets(
    gamma: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
) -> tuple[tuple[frozenset[str], frozenset[int]], ...]:
    """One ``(facet, id-set)`` pair per facet: the id-set holds the labels of
    the facet's edges, each plus one.  The labeling is a bijection onto
    1..k (``distance_labeling`` checks it), so a facet of size f has an
    id-set of C(f, 2) distances."""
    labeling = boards.distance_labeling(gamma, edge_labeling)
    index = {v: i for i, v in enumerate(gamma.vertices)}
    return tuple(
        (f, frozenset(labeling[frozenset(pair)] + 1 for pair in combinations(sorted(f), 2)))
        for f in sorted(gamma.facets, key=lambda f: tuple(sorted(index[v] for v in f)))
    )


def gamma_game(
    gamma: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
) -> Ruleset:
    """The distance game realising ``gamma`` as an illegal complex.

    A position is illegal exactly when some f of its placements, for a facet
    of size f, have pairwise distances forming precisely that facet's id-set.
    Distances are measured on the bare board graph, ignoring occupancy.  The
    empty complex degrades to free placement.
    """
    if gamma.is_empty:
        return free_placement()
    by_size: dict[int, set[frozenset[int]]] = {}
    for facet, distances in id_sets(gamma, edge_labeling):
        by_size.setdefault(len(facet), set()).add(distances)
    n = len(gamma.vertices)
    pieces = {"L": boards.gamma_piece(n, "L"), "R": boards.gamma_piece(n, "R")}

    def legal(b: Board, placements: Sequence[Placement]) -> Predicate:
        memo: dict[tuple[int, int], int | float] = {}

        def dist(i: int, j: int) -> int | float:
            if (i, j) not in memo:
                memo[i, j] = distance(b, placements[i].occupied, placements[j].occupied)
            return memo[i, j]

        def predicate(mask: int) -> bool:
            ps = list(bits(mask))
            for size, forbidden in by_size.items():
                if size > len(ps):
                    continue
                for combo in combinations(ps, size):
                    if frozenset(dist(i, j) for i, j in combinations(combo, 2)) in forbidden:
                        return False
            return True

        return predicate

    return Ruleset("gamma", pieces, legal, claims_invariant=True)


def ruleset_descriptor(rs: Ruleset) -> dict:
    """A JSON-friendly summary of a ruleset's shape; each player's piece is
    written as a one-element list."""
    return {
        "name": rs.name,
        "claims_invariant": rs.claims_invariant,
        "pieces": {
            player: [{"vertices": list(p.vertices), "edges": [list(e) for e in sorted(p.edges)]}]
            for player, p in sorted(rs.pieces.items())
        },
    }

"""Rulesets: piece shapes per player plus a legality predicate.

A :class:`Position` is a set of placements with pairwise disjoint occupied
sets; double occupation is impossible to express here, mirroring the fact
that pieces are placed on empty spaces.  Predicates must accept arbitrary
positions, not just reachable ones, and must treat the empty position as
legal.  Monomial-level sets of basic positions with overlapping supports are
handled upstream by the engine, which classifies them illegal without ever
consulting the predicate.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping

from . import boards
from .complexes import LabeledComplex, faces
from .boards import Board, Piece, Placement, distance


@dataclass(frozen=True, eq=False)
class Position:
    placements: frozenset[Placement]

    def __post_init__(self) -> None:
        occupied: set[int] = set()
        for p in self.placements:
            if occupied & p.occupied:
                raise ValueError("placements overlap")
            occupied |= p.occupied

    def occupied_by(self, player: str) -> frozenset[int]:
        out: set[int] = set()
        for p in self.placements:
            if p.player == player:
                out |= p.occupied
        return frozenset(out)

    @property
    def all_occupied(self) -> frozenset[int]:
        return frozenset().union(*(p.occupied for p in self.placements)) if self.placements else frozenset()

    def __len__(self) -> int:
        return len(self.placements)

    def __iter__(self):
        return iter(sorted(self.placements))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Position):
            return NotImplemented
        return self.placements == other.placements

    def __hash__(self) -> int:
        return hash(self.placements)


def position(*placements: Placement) -> Position:
    return Position(frozenset(placements))

EMPTY_POSITION = position()


@dataclass(frozen=True)
class Ruleset:
    """Named piece shapes for both players and a legality predicate.

    ``pairwise`` declares that a position is legal exactly when each of its
    placements and each pair of them is legal on every board, so that the
    legal complex is the flag complex of its edges; the engine then consults
    the predicate on singletons and pairs only.
    """

    name: str
    pieces: Mapping[str, tuple[Piece, ...]]
    legal: Callable[[Board, Position], bool]
    claims_invariant: bool = False
    pairwise: bool = False

    def __repr__(self) -> str:
        return f"Ruleset({self.name!r})"


# The built-in rulesets share one piece per shape and player: pieces are
# immutable, and each finds its automorphisms on its first placement search.
_VERTEX_PIECES = {"L": (boards.vertex_piece("L"),), "R": (boards.vertex_piece("R"),)}
_DOMINO_PIECES = {"L": (boards.domino_piece("L"),), "R": (boards.domino_piece("R"),)}
_TABLE_PIECES = {"L": (boards.cycle_piece(3, "L"),), "R": (boards.cycle_piece(4, "R"),)}


def _single_vertex_pieces() -> dict[str, tuple[Piece, ...]]:
    return dict(_VERTEX_PIECES)


def free_placement() -> Ruleset:
    """Single-vertex pieces, every position legal."""
    return Ruleset(
        "free", _single_vertex_pieces(), lambda b, pos: True, claims_invariant=True, pairwise=True
    )


def snort() -> Ruleset:
    """No piece may be orthogonally adjacent to an opposing piece."""

    def legal(b: Board, pos: Position) -> bool:
        left = pos.occupied_by("L")
        right = pos.occupied_by("R")
        return not any(w in right for v in left for w in b.neighbors(v))

    return Ruleset("snort", _single_vertex_pieces(), legal, claims_invariant=True, pairwise=True)


def col() -> Ruleset:
    """No piece may be adjacent to a piece of the same player."""

    def legal(b: Board, pos: Position) -> bool:
        for player in ("L", "R"):
            own = pos.occupied_by(player)
            if any(w in own for v in own for w in b.neighbors(v) if w > v):
                return False
        return True

    return Ruleset("col", _single_vertex_pieces(), legal, claims_invariant=True, pairwise=True)


def nogo() -> Ruleset:
    """Every maximal same-player connected group needs an adjacent empty vertex."""

    def legal(b: Board, pos: Position) -> bool:
        occupied = pos.all_occupied
        for player in ("L", "R"):
            own = pos.occupied_by(player)
            # a group breathes when one of its stones does: flood out from those
            reached = {v for v in own if any(w not in occupied for w in b.neighbors(v))}
            stack = list(reached)
            while stack:
                for w in b.neighbors(stack.pop()):
                    if w in own and w not in reached:
                        reached.add(w)
                        stack.append(w)
            if len(reached) != len(own):
                return False
        return True

    return Ruleset("nogo", _single_vertex_pieces(), legal, claims_invariant=False)


def domineering() -> Ruleset:
    """Left places vertical dominoes, Right horizontal ones, on a grid board."""

    def oriented(b: Board, occ: frozenset[int], player: str) -> bool:
        if b.coords is None:
            raise ValueError("domineering needs a board with grid coordinates")
        if len(occ) != 2:
            return False
        (r1, c1), (r2, c2) = sorted(b.coords[v] for v in occ)
        if player == "L":
            return c1 == c2 and r2 - r1 == 1
        return r1 == r2 and c2 - c1 == 1

    def legal(b: Board, pos: Position) -> bool:
        return all(oriented(b, p.occupied, p.player) for p in pos)

    return Ruleset(
        "domineering", dict(_DOMINO_PIECES), legal, claims_invariant=False, pairwise=True
    )


# ---------------------------------------------------------------------------
# Table games: legality looked up in a fixed complex on a board of small cycles


def _cycle_vertex_map(b: Board, delta: LabeledComplex) -> dict[frozenset[int], str]:
    """Components that are triangles name L-vertices, 4-cycles name R-vertices,
    in canonical order.  Components beyond the needed counts stay unlabelled."""
    cycles = b._cycle_components
    out = dict(zip(cycles.get(3, ()), delta.left))
    out.update(zip(cycles.get(4, ()), delta.right))
    return out


def _covered_names(b: Board, pos: Position, delta: LabeledComplex) -> set[str] | None:
    """The complex vertices named by a position's exactly-covered cycles, or
    None when some placement does not exactly cover a labelled cycle."""
    mapping = _cycle_vertex_map(b, delta)
    names: set[str] = set()
    for p in pos:
        name = mapping.get(p.occupied)
        if name is None:
            return None
        names.add(name)
    return names


def _table_pieces() -> dict[str, tuple[Piece, ...]]:
    return dict(_TABLE_PIECES)


def table_game_legal(delta: LabeledComplex) -> Ruleset:
    """Legal exactly when the set of covered cycles names a face of ``delta``."""
    face_set = faces(delta)

    def legal(b: Board, pos: Position) -> bool:
        if not len(pos):
            return True
        names = _covered_names(b, pos, delta)
        return names is not None and frozenset(names) in face_set

    return Ruleset("table-legal", _table_pieces(), legal, claims_invariant=False)


def table_game_illegal(delta: LabeledComplex) -> Ruleset:
    """Legal exactly when the covered cycles contain no facet of ``delta``."""

    def legal(b: Board, pos: Position) -> bool:
        if not len(pos):
            return True
        names = _covered_names(b, pos, delta)
        if names is None:
            return False
        return not any(f <= names for f in delta.facets)

    return Ruleset("table-illegal", _table_pieces(), legal, claims_invariant=False)


def cycle_placement_game(delta: LabeledComplex) -> Ruleset:
    """Left plays 3-cycles, Right plays 4-cycles, with no further restrictions.

    Realises a simplex as a legal complex on the matching board of small
    cycles: every disjoint collection of covered cycles is allowed.
    """
    return Ruleset(
        "cycle-placement", _table_pieces(), lambda b, pos: True, claims_invariant=True,
        pairwise=True,
    )


# ---------------------------------------------------------------------------
# The distance game built from an illegal complex


@dataclass(frozen=True)
class IdSet:
    """A facet together with the pairwise distances that realise it."""

    facet: frozenset[str]
    distances: frozenset[int]

    def __post_init__(self) -> None:
        f = len(self.facet)
        if len(self.distances) != f * (f - 1) // 2:
            raise ValueError("id-set size must be C(|facet|, 2)")


def id_sets(
    gamma: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
) -> tuple[IdSet, ...]:
    """One id-set per facet: the labels of the facet's edges, each plus one."""
    labeling = boards.distance_labeling(gamma, edge_labeling)
    index = {v: i for i, v in enumerate(gamma.vertices)}
    out = []
    for f in sorted(gamma.facets, key=lambda f: tuple(sorted(index[v] for v in f))):
        dists = frozenset(
            labeling[frozenset(pair)] + 1 for pair in combinations(sorted(f), 2)
        )
        out.append(IdSet(f, dists))
    return tuple(out)


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
    ids = id_sets(gamma, edge_labeling)
    by_size: dict[int, set[frozenset[int]]] = {}
    for i in ids:
        by_size.setdefault(len(i.facet), set()).add(i.distances)
    n = len(gamma.vertices)
    pieces = {"L": (boards.gamma_piece(n, "L"),), "R": (boards.gamma_piece(n, "R"),)}

    def legal(b: Board, pos: Position) -> bool:
        ps = list(pos)
        for size, forbidden in by_size.items():
            if size > len(ps):
                continue
            for combo in combinations(ps, size):
                dists = frozenset(
                    distance(b, p.occupied, q.occupied) for p, q in combinations(combo, 2)
                )
                if dists in forbidden:
                    return False
        return True

    return Ruleset("gamma", pieces, legal, claims_invariant=True)


def ruleset_descriptor(rs: Ruleset) -> dict:
    """A JSON-friendly summary of a ruleset's shape."""
    return {
        "name": rs.name,
        "claims_invariant": rs.claims_invariant,
        "pieces": {
            player: [
                {
                    "vertices": list(p.vertices),
                    "edges": [list(e) for e in sorted(p.edges)],
                }
                for p in rs.pieces[player]
            ]
            for player in sorted(rs.pieces)
        },
    }

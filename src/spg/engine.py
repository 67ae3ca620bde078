"""Extraction of legal and illegal complexes from a ruleset on a board.

Basic positions are the single-placement positions, indexed x1..xm for Left
and y1..yn for Right in canonical occupied-set order.  A set of basic
positions is treated at the monomial level: supports that overlap make the
set illegal outright (pieces are placed on empty spaces), otherwise legality
is the ruleset predicate plus reachability, i.e. every one-smaller subset
must be legal as well.  The legal sets form a downward-closed family, so
they are fixed by their maximal members, the facets of the legal complex.
A breadth-first closure from the empty position walks the legal sets one
level of equal-size sets at a time and keeps only the current level: it
returns the maximal legal sets and the minimal illegal sets, found among
one-placement extensions of legal sets.

The closure works on ints: basic position i is bit i, a set of basic
positions is the int of its bits, and names are produced only when an
analysis is read.  Each analysis and verifier compiles the ruleset's
predicate once, over the index's placements, and asks it about masks.  A
ruleset that declares ``pairwise`` promises that a position is legal exactly
when each of its placements and each pair of them is legal.  Its legal
complex is then a flag complex (the independence complex of its conflict
graph), so :func:`analyze` consults the predicate once per basic position
and once per disjoint pair, and lists the facets as the maximal independent
sets of the conflict graph without consulting it again.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import boards
from .boards import Board, BudgetExceeded, Placement, piece_placements
from .complexes import (
    LabeledComplex, SquareFreeIdeal, bits, faces, from_facets, ideal, independent_sets,
    maximal_independent_sets,
)
from .rulesets import Predicate, Ruleset


class DownwardClosureError(ValueError):
    """The predicate accepted a position with an illegal subposition."""

    def __init__(self, witness: tuple[str, ...], missing: tuple[str, ...]):
        self.witness = witness
        self.missing = missing
        super().__init__(
            f"position {{{','.join(witness)}}} satisfies the predicate but its "
            f"subposition {{{','.join(missing)}}} is illegal; legality must be "
            "independent of move order"
        )


DEFAULT_CAP = 24


@dataclass(frozen=True)
class BasicPositionIndex:
    """Ordered basic positions: the x-block (Left) then the y-block (Right)."""

    entries: tuple[tuple[str, Placement], ...]

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @cached_property
    def by_name(self) -> dict[str, Placement]:
        return dict(self.entries)

    @cached_property
    def parts(self) -> Mapping[str, str]:
        """The player of each basic position, by name."""
        return MappingProxyType({name: p.player for name, p in self.entries})

    @cached_property
    def placements(self) -> tuple[Placement, ...]:
        return tuple(p for _, p in self.entries)

    @cached_property
    def overlaps(self) -> tuple[int, ...]:
        """Per basic position, the set of basic positions whose supports meet
        its own (itself included).  Supports are masks over a dense index of
        the occupied vertices, so large vertex ids cost nothing."""
        dense: dict[int, int] = {}
        for p in self.placements:
            for v in p.occupied:
                dense.setdefault(v, len(dense))
        supports = [sum(1 << dense[v] for v in p.occupied) for p in self.placements]
        return tuple(
            sum(1 << j for j, other in enumerate(supports) if sup & other) for sup in supports
        )

    def names_of(self, mask: int) -> tuple[str, ...]:
        """The names of the basic positions in ``mask``, in index order."""
        names = self.names
        return tuple(names[i] for i in bits(mask))

    def __len__(self) -> int:
        return len(self.entries)


def basic_positions(game: Ruleset, board: Board, deadline: float | None = None) -> BasicPositionIndex:
    """Enumerate single-placement positions via the embedding search.

    The index depends on the board and the game's two pieces alone, so the
    board keeps the last one it made: a ruleset with the same piece objects
    gets that very index, with its overlaps, whatever the deadline, since no
    search runs.  Other pieces replace it, and a call that raises stores
    nothing.
    """
    key = (game.pieces["L"], game.pieces["R"])
    last = board._positions
    if last is not None and last[0] == key:
        return last[1]
    entries: list[tuple[str, Placement]] = []
    for piece, prefix in zip(key, "xy"):
        placements = piece_placements(board, piece, deadline=deadline)
        entries.extend((f"{prefix}{i}", pl) for i, pl in enumerate(placements, start=1))
    index = BasicPositionIndex(tuple(entries))
    object.__setattr__(board, "_positions", (key, index))
    return index


@dataclass
class GameAnalysis:
    """The maximal legal sets of a game on a board, its minimal illegal sets,
    and the complexes and ideals they generate.

    The legal sets are downward closed, so the maximal ones (the facets of
    the legal complex) fix them all; no analysis holds every legal set.
    Sets of basic positions are kept as ints (bit i is basic position i);
    ``legal`` and ``minimal_illegal`` name them when read, ``legal`` by
    expanding the facets.  The complex and ideal methods name the sets they
    need without caching the names, so an analysis kept on a board holds
    masks until ``legal`` or ``minimal_illegal`` is read.
    """

    index: BasicPositionIndex
    maximal_masks: frozenset[int]
    minimal_masks: frozenset[int]

    def _named(self, masks: frozenset[int]) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(self.index.names_of(s)) for s in masks)

    @cached_property
    def legal(self) -> frozenset[frozenset[str]]:
        return faces(self.legal_complex())

    @cached_property
    def minimal_illegal(self) -> frozenset[frozenset[str]]:
        return self._named(self.minimal_masks)

    def legal_complex(self) -> LabeledComplex:
        """Faces are the legal positions.  Always contains the empty position."""
        return from_facets(self._named(self.maximal_masks), self.index.parts)

    def legal_ideal(self) -> SquareFreeIdeal:
        """Generated by the maximal legal positions, over all basic positions."""
        return ideal(self.index.names, self.index.parts, self._named(self.maximal_masks))

    def illegal_complex(self) -> LabeledComplex:
        """Facets are the minimal illegal positions; void when nothing is illegal."""
        return from_facets(self._named(self.minimal_masks), self.index.parts)

    def illegal_ideal(self) -> SquareFreeIdeal:
        """Generated by the minimal illegal positions, over all basic positions."""
        return ideal(self.index.names, self.index.parts, self._named(self.minimal_masks))


def _compiled(game: Ruleset, board: Board, cap: int) -> tuple[BasicPositionIndex, Predicate]:
    """The basic positions and the predicate compiled over them;
    :class:`BudgetExceeded` when they number more than ``cap``."""
    index = basic_positions(game, board)
    if len(index) > cap:
        raise BudgetExceeded(
            f"{len(index)} basic positions exceed the cap of {cap}; "
            "raise the cap explicitly to analyse this board"
        )
    return index, game.legal(board, index.placements)


def analyze(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> GameAnalysis:
    """Maximal legal positions plus the minimal illegal sets.

    Raises :class:`BudgetExceeded` past ``cap`` basic positions, and
    :class:`DownwardClosureError` when a position satisfies the predicate
    while one of its one-smaller subpositions is illegal.  A ``pairwise``
    ruleset is taken at its word and never raises the latter.

    The board keeps its last analysis: a call for the same ruleset object
    and cap returns that very analysis.  A different game object or cap
    replaces it, and a call that raises stores nothing.
    """
    last = board._analysis
    if last is not None and last[0] is game and last[1] == cap:
        return last[2]
    index, predicate = _compiled(game, board, cap)
    closure = _pairwise_closure if game.pairwise else _closure
    maximal, minimal = closure(index, predicate)
    result = GameAnalysis(index, frozenset(maximal), frozenset(minimal))
    object.__setattr__(board, "_analysis", (game, cap, result))
    return result


def _closure(index: BasicPositionIndex, predicate: Predicate) -> tuple[list[int], list[int]]:
    """Breadth-first closure, one level of equal-size legal sets at a time,
    returning the maximal legal sets and the minimal illegal sets.

    Each disjoint one-element extension of a legal set gets one predicate
    call, then a lookup of its other one-smaller subsets in the current
    level.  A legal set none of whose extensions is legal is maximal, since
    the legal sets are downward closed; an extension already tried from
    another set is legal when the next level holds it.  A level's sets are
    walked in the order they were found, and the extensions of a set in
    index order.
    """
    m, names, over = len(index), index.names, index.overlaps
    full = (1 << m) - 1
    maximal: list[int] = []
    minimal: list[int] = []
    level = {0: 0}  # legal set -> the basic positions it blocks
    while level:
        nxt: dict[int, int] = {}
        tried: set[int] = set()
        for s, blocked in level.items():
            free = full & ~blocked
            extended = False
            while free:
                low = free & -free
                free ^= low
                t = s | low
                if t in tried:
                    extended = extended or t in nxt
                    continue
                tried.add(t)
                accepted = predicate(t)
                rest = s  # members whose removal from t is still to be looked up
                while rest:
                    c = rest & -rest
                    if t ^ c not in level:
                        break
                    rest ^= c
                if rest:
                    if accepted:
                        raise _closure_error(t, level, names)
                elif accepted:
                    nxt[t] = blocked | over[low.bit_length() - 1]
                    extended = True
                else:
                    minimal.append(t)
            if not extended:
                maximal.append(s)
        level = nxt
    singles = 0
    for s in maximal:
        singles |= s
    return maximal, minimal + _conflicting_pairs(over, singles)


def _closure_error(t: int, level: Mapping[int, int], names: tuple[str, ...]) -> DownwardClosureError:
    """The error for ``t``, accepted with a one-smaller subset missing from
    ``level``, the legal sets of that size."""
    members = sorted(bits(t), key=names.__getitem__)
    missing = next(i for i in members if t ^ 1 << i not in level)
    return DownwardClosureError(
        tuple(names[i] for i in members), tuple(names[i] for i in members if i != missing)
    )


def _pairwise_closure(index: BasicPositionIndex, predicate: Predicate) -> tuple[list[int], list[int]]:
    """The closure of a ``pairwise`` ruleset: one predicate call per basic
    position and per disjoint pair of legal ones gives a conflict mask per
    basic position.  The maximal legal sets are the maximal independent sets
    of that conflict graph, listed by Bron–Kerbosch; the minimal illegal sets
    are the illegal singles and the conflicting pairs."""
    m = len(index)
    singles = sum(1 << i for i in range(m) if predicate(1 << i))
    conflict = list(index.overlaps)
    for i in bits(singles):
        for j in bits(singles & ~conflict[i] & ~((2 << i) - 1)):
            if not predicate(1 << i | 1 << j):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    maximal = list(maximal_independent_sets(conflict, singles))
    minimal = [1 << i for i in range(m) if not singles >> i & 1]
    return maximal, minimal + _conflicting_pairs(conflict, singles)


def _conflicting_pairs(conflict: Sequence[int], singles: int) -> list[int]:
    """The conflicting pairs of basic positions in ``singles``, which are
    minimal illegal because each member is legal alone."""
    return [
        1 << i | 1 << j
        for i in bits(singles)
        for j in bits(conflict[i] & singles & ~((2 << i) - 1))
    ]


def legal_complex(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> LabeledComplex:
    """Shorthand for ``analyze(game, board, cap=cap).legal_complex()``."""
    return analyze(game, board, cap=cap).legal_complex()


def illegal_complex(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> LabeledComplex:
    """Shorthand for ``analyze(game, board, cap=cap).illegal_complex()``."""
    return analyze(game, board, cap=cap).illegal_complex()


# ---------------------------------------------------------------------------
# Verifiers


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    witness: Optional[tuple[tuple[str, ...], tuple[str, ...]]]
    detail: str


def check_condition_iv(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> ConditionReport:
    """Check that the predicate is downward closed over every position with
    pairwise disjoint supports, one removal at a time.

    This is stronger than walking the reachable closure: a predicate that
    accepts some pair while rejecting its singletons never exposes the pair
    through legal play, but it still violates order independence.
    """
    index, predicate = _compiled(game, board, cap)
    if not predicate(0):
        return ConditionReport(False, ((), ()), "the empty position must be legal")

    # Every disjoint-support set in canonical order, legal or not.  The walk
    # reaches each one-smaller subset of a set before the set itself, so one
    # predicate call per set suffices.
    accepted = {0}
    for t in independent_sets(index.overlaps, (1 << len(index)) - 1):
        if predicate(t):
            accepted.add(t)
            for i in bits(t):
                if t ^ 1 << i not in accepted:
                    good, bad = index.names_of(t), index.names_of(t ^ 1 << i)
                    return ConditionReport(
                        False,
                        (good, bad),
                        f"{{{','.join(good)}}} satisfies the predicate but "
                        f"{{{','.join(bad)}}} does not",
                    )
    return ConditionReport(True, None, "predicate is downward closed on this board")


@dataclass(frozen=True)
class InvarianceReport:
    status: str  # PASS, FAIL or INCONCLUSIVE
    detail: str
    witness: Optional[tuple] = None
    samples_run: int = 0


def check_invariance(
    game: Ruleset,
    board: Board,
    samples: int = 100,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
    max_pieces: int = 3,
) -> InvarianceReport:
    """Sampled necessary conditions for pattern-only legality.

    Part (a): every basic position must be legal (exact).  Part (b): for
    random positions, transporting the placements along another induced
    embedding of the occupied pattern must preserve the predicate's verdict.
    A full invariance proof would quantify over all boards; this verifier can
    only refute.
    """
    index, predicate = _compiled(game, board, cap)
    by_name = index.by_name
    for i, (name, pl) in enumerate(index.entries):
        if not predicate(1 << i):
            return InvarianceReport(
                "FAIL",
                f"basic position {name} (vertices {sorted(pl.occupied)}) is illegal",
                witness=(name,),
            )
    if not index.entries:
        return InvarianceReport("INCONCLUSIVE", "board admits no placements at all")

    rng = random.Random(seed)
    names = list(index.names)
    # a transported placement is a placement of the same piece: a basic position
    bit = {(p.player, p.occupied): 1 << i for i, p in enumerate(index.placements)}
    run = 0
    for _ in range(samples):
        k = rng.randint(1, max_pieces)
        chosen: list[str] = []
        occupied: set[int] = set()
        for _attempt in range(8 * k):
            b = rng.choice(names)
            if b in chosen or by_name[b].occupied & occupied:
                continue
            chosen.append(b)
            occupied |= by_name[b].occupied
            if len(chosen) == k:
                break
        sub_vertices = sorted(occupied)
        sub_edges = [e for e in board.edges if set(e) <= occupied]
        embeddings = boards.induced_embeddings(board, sub_vertices, sub_edges, limit=24)
        alternatives = [e for e in embeddings if any(e[v] != v for v in sub_vertices)]
        if not alternatives:
            continue
        phi = alternatives[rng.randrange(len(alternatives))]
        pos = moved = 0
        for c in chosen:
            pl = by_name[c]
            pos |= bit[pl.player, pl.occupied]
            moved |= bit[pl.player, frozenset(phi[v] for v in pl.occupied)]
        run += 1
        verdict, verdict_moved = predicate(pos), predicate(moved)
        if verdict != verdict_moved:
            return InvarianceReport(
                "FAIL",
                f"position {{{','.join(sorted(chosen))}}} is "
                f"{'legal' if verdict else 'illegal'} but its transported image is not",
                witness=(tuple(sorted(chosen)), tuple(sorted(phi.items()))),
                samples_run=run,
            )
    if run == 0:
        return InvarianceReport(
            "INCONCLUSIVE",
            "no sampled pattern admitted an alternative embedding",
            samples_run=0,
        )
    return InvarianceReport("PASS", f"{run} transported samples agreed", samples_run=run)

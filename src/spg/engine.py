"""Extraction of legal and illegal complexes from a ruleset on a board.

Basic positions are the single-placement positions, indexed x1..xm for Left
and y1..yn for Right in canonical occupied-set order.  A set of basic
positions is treated at the monomial level: supports that overlap make the
set illegal outright (pieces are placed on empty spaces), otherwise legality
is the ruleset predicate plus reachability, i.e. every one-smaller subset
must be legal as well.  The legal sets form a downward-closed family, so
they are fixed by their maximal members, the facets of the legal complex.
A breadth-first closure from the empty position walks the legal sets one
level of equal-size sets at a time: it returns the maximal legal sets, the
minimal illegal sets, found among one-placement extensions of legal sets,
and every legal set it walked, which the legal complex takes as its faces.

The closure works on ints: basic position i is bit i, a set of basic
positions is the int of its bits, and names are produced only when an
analysis is read.  Each analysis and verifier compiles the ruleset's
predicate once, over the index's placements, and asks it about masks.  A
ruleset that declares ``pairwise`` promises that a position is legal exactly
when each of its placements and each pair of them is legal.  Its legal
complex is then a flag complex (the independence complex of its conflict
graph), so :func:`analyze` consults the predicate once per basic position
and once per disjoint pair, and lists the facets as the maximal independent
sets of the conflict graph without consulting it again; the legal complex
takes that graph as its flag conflicts.  A ruleset that declares
``closed`` promises that its predicate is downward closed: the closure then
makes each candidate once, from its prefix, and consults the predicate only
on candidates whose one-smaller subsets are all legal.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import boards
from .boards import Board, BudgetExceeded, Placement, piece_placements
from .complexes import (
    LabeledComplex, SquareFreeIdeal, bits, faces, from_masks, independent_sets,
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
    the legal complex) fix them all.  Sets of basic positions are kept as
    ints (bit i is basic position i).  The general closure also keeps every
    legal set it walked (``legal_masks``), and the pairwise one its conflict
    mask per basic position (``conflict``); the legal complex is handed
    them, so it neither expands its facets nor reruns the flag test.  Both
    are left out of comparisons, which read the facets and minimal sets.
    ``legal`` and ``minimal_illegal`` name the sets when read, from the
    legal complex's faces and the illegal complex's facets.  The complexes
    and ideals hold the masks as they are, so an analysis kept on a board
    holds masks until ``legal`` or ``minimal_illegal`` is read.
    """

    index: BasicPositionIndex
    maximal_masks: frozenset[int]
    minimal_masks: frozenset[int]
    legal_masks: Optional[frozenset[int]] = field(default=None, compare=False, repr=False)
    conflict: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)

    @cached_property
    def legal(self) -> frozenset[frozenset[str]]:
        return faces(self.legal_complex())

    @cached_property
    def minimal_illegal(self) -> frozenset[frozenset[str]]:
        return self.illegal_complex().facets

    def legal_complex(self) -> LabeledComplex:
        """Faces are the legal positions.  Always contains the empty position."""
        return from_masks(self.index.names, self.index.parts, self.maximal_masks,
                          faces=self.legal_masks, conflict=self.conflict)

    def legal_ideal(self) -> SquareFreeIdeal:
        """Generated by the maximal legal positions, over all basic positions."""
        return SquareFreeIdeal(self.index.names, self.index.parts, self.maximal_masks)

    def illegal_complex(self) -> LabeledComplex:
        """Facets are the minimal illegal positions; void when nothing is illegal."""
        return from_masks(self.index.names, self.index.parts, self.minimal_masks)

    def illegal_ideal(self) -> SquareFreeIdeal:
        """Generated by the minimal illegal positions, over all basic positions."""
        return SquareFreeIdeal(self.index.names, self.index.parts, self.minimal_masks)


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
    or ``closed`` ruleset is taken at its word and never raises the latter.

    The board keeps its last analysis: a call for the same ruleset object
    and cap returns that very analysis.  A different game object or cap
    replaces it, and a call that raises stores nothing.
    """
    last = board._analysis
    if last is not None and last[0] is game and last[1] == cap:
        return last[2]
    index, predicate = _compiled(game, board, cap)
    result = (_pairwise_closure(index, predicate) if game.pairwise
              else _closure(index, predicate, game.closed))
    object.__setattr__(board, "_analysis", (game, cap, result))
    return result


def _closure(index: BasicPositionIndex, predicate: Predicate, closed: bool) -> GameAnalysis:
    """Breadth-first closure, one level of equal-size legal sets at a time,
    returning the maximal legal sets, the minimal illegal sets and every
    legal set it walked.

    A candidate is a disjoint one-element extension of a legal set.  Its
    other one-smaller subsets are looked up in the current level, then the
    predicate is asked about it once.  A candidate with a subset missing
    from the level is illegal; accepted, it raises
    :class:`DownwardClosureError`.  A ``closed`` predicate is taken at its
    word: such a candidate is skipped without a call, and a legal set is
    extended only by basic positions above its highest, so that each
    candidate is made once, from its prefix (Apriori's scheme).  Otherwise
    a legal set is extended by every free basic position and a candidate
    already made from another set is skipped.  A level's sets are walked in
    the order they were found, and the extensions of a set in index order.
    A legal set is maximal when none of its extensions is in the next
    level, since the legal sets are downward closed.
    """
    m, names, over = len(index), index.names, index.overlaps
    full = (1 << m) - 1
    maximal: list[int] = []
    minimal: list[int] = []
    legal = [0]
    level = {0: 0}  # legal set -> the basic positions it blocks
    while level:
        nxt: dict[int, int] = {}
        tried: set[int] = set()
        for s, blocked in level.items():
            free = full & ~blocked
            if closed:
                free &= -(1 << s.bit_length())
            while free:
                low = free & -free
                free ^= low
                t = s | low
                if not closed:
                    if t in tried:
                        continue
                    tried.add(t)
                rest = s  # members whose removal from t is still to be looked up
                while rest:
                    c = rest & -rest
                    if t ^ c not in level:
                        break
                    rest ^= c
                if rest:
                    if not closed and predicate(t):
                        raise _closure_error(t, level, names)
                elif predicate(t):
                    nxt[t] = blocked | over[low.bit_length() - 1]
                else:
                    minimal.append(t)
        for s, blocked in level.items():
            free = full & ~blocked if nxt else 0
            while free and s | free & -free not in nxt:
                free &= free - 1
            if not free:
                maximal.append(s)
        legal += nxt
        level = nxt
    minimal += _conflicting_pairs(over, reduce(or_, maximal, 0))
    return GameAnalysis(index, frozenset(maximal), frozenset(minimal), frozenset(legal))


def _closure_error(t: int, level: Mapping[int, int], names: tuple[str, ...]) -> DownwardClosureError:
    """The error for ``t``, accepted with a one-smaller subset missing from
    ``level``, the legal sets of that size."""
    members = sorted(bits(t), key=names.__getitem__)
    missing = next(i for i in members if t ^ 1 << i not in level)
    return DownwardClosureError(
        tuple(names[i] for i in members), tuple(names[i] for i in members if i != missing)
    )


def _pairwise_closure(index: BasicPositionIndex, predicate: Predicate) -> GameAnalysis:
    """The closure of a ``pairwise`` ruleset: one predicate call per basic
    position and per disjoint pair of legal ones gives a conflict mask per
    basic position, holding its own bit.  The maximal legal sets are the
    maximal independent sets of that conflict graph, listed by Bron–Kerbosch;
    the minimal illegal sets are the illegal singles and the conflicting
    pairs.  The analysis keeps the conflict masks too."""
    m = len(index)
    singles = sum(1 << i for i in range(m) if predicate(1 << i))
    conflict = list(index.overlaps)
    for i in bits(singles):
        for j in bits(singles & ~conflict[i] & ~((2 << i) - 1)):
            if not predicate(1 << i | 1 << j):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    maximal = frozenset(maximal_independent_sets(conflict, singles))
    minimal = [1 << i for i in range(m) if not singles >> i & 1]
    minimal += _conflicting_pairs(conflict, singles)
    return GameAnalysis(index, maximal, frozenset(minimal), conflict=tuple(conflict))


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

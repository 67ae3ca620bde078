"""Extraction of legal and illegal complexes from a ruleset on a board.

Basic positions are the single-placement positions, indexed x1..xm for Left
and y1..yn for Right in canonical occupied-set order.  A set of basic
positions is treated at the monomial level: supports that overlap make the
set illegal outright (pieces are placed on empty spaces), otherwise legality
is the ruleset predicate plus reachability, i.e. every one-smaller subset
must be legal as well.  The legal sets form a downward-closed family computed
by breadth-first closure from the empty position; the minimal illegal sets
are found among one-placement extensions of legal sets.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import boards
from .boards import Board, Placement, piece_placements
from .complexes import LabeledComplex, SquareFreeIdeal, from_facets, ideal
from .rulesets import Ruleset, position


class BoardTooLarge(ValueError):
    """The board produced more basic positions than the configured cap."""


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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def left_names(self) -> tuple[str, ...]:
        return tuple(n for n, p in self.entries if p.player == "L")

    @property
    def right_names(self) -> tuple[str, ...]:
        return tuple(n for n, p in self.entries if p.player == "R")

    @cached_property
    def by_name(self) -> dict[str, Placement]:
        return dict(self.entries)

    def placement(self, name: str) -> Placement:
        return self.by_name[name]

    def part_map(self) -> dict[str, str]:
        return {name: p.player for name, p in self.entries}

    def __len__(self) -> int:
        return len(self.entries)


def basic_positions(game: Ruleset, board: Board, deadline: float | None = None) -> BasicPositionIndex:
    """Enumerate single-placement positions via the embedding search."""
    entries: list[tuple[str, Placement]] = []
    for player, prefix in (("L", "x"), ("R", "y")):
        seen: set[frozenset[int]] = set()
        ordered: list[Placement] = []
        for piece in game.pieces.get(player, ()):
            for pl in piece_placements(board, piece, deadline=deadline):
                if pl.occupied not in seen:
                    seen.add(pl.occupied)
                    ordered.append(pl)
        ordered.sort()
        entries.extend((f"{prefix}{i}", pl) for i, pl in enumerate(ordered, start=1))
    return BasicPositionIndex(tuple(entries))


@dataclass
class GameAnalysis:
    """The legal sets of a game on a board, its minimal illegal sets, and the
    complexes and ideals they generate."""

    index: BasicPositionIndex
    legal: frozenset[frozenset[str]]
    minimal_illegal: frozenset[frozenset[str]]

    @cached_property
    def maximal_legal(self) -> frozenset[frozenset[str]]:
        """Legal sets that no one more placement keeps legal.  Checking the
        one-element extensions suffices because ``legal`` is downward closed."""
        names = self.index.names
        return frozenset(
            s for s in self.legal if not any(s | {b} in self.legal for b in names if b not in s)
        )

    def legal_complex(self) -> LabeledComplex:
        """Faces are the legal positions.  Always contains the empty position."""
        return from_facets(self.maximal_legal, self.index.part_map())

    def legal_ideal(self) -> SquareFreeIdeal:
        """Generated by the maximal legal positions, over all basic positions."""
        return ideal(self.index.names, self.index.part_map(), self.maximal_legal)

    def illegal_complex(self) -> LabeledComplex:
        """Facets are the minimal illegal positions; void when nothing is illegal."""
        return from_facets(self.minimal_illegal, self.index.part_map())

    def illegal_ideal(self) -> SquareFreeIdeal:
        """Generated by the minimal illegal positions, over all basic positions."""
        return ideal(self.index.names, self.index.part_map(), self.minimal_illegal)


def _check_cap(index: BasicPositionIndex, cap: int) -> None:
    if len(index) > cap:
        raise BoardTooLarge(
            f"{len(index)} basic positions exceed the cap of {cap}; "
            "raise the cap explicitly to analyse this board"
        )


def analyze(
    game: Ruleset,
    board: Board,
    cap: int = DEFAULT_CAP,
    deadline: float | None = None,
    index: BasicPositionIndex | None = None,
) -> GameAnalysis:
    """Closure of legal positions plus the minimal illegal sets.

    Raises :class:`DownwardClosureError` when a position satisfies the
    predicate while one of its one-smaller subpositions is illegal.
    """
    if index is None:
        index = basic_positions(game, board, deadline=deadline)
    _check_cap(index, cap)
    support = {name: pl.occupied for name, pl in index.entries}
    by_name = index.by_name
    names = index.names

    def disjoint_extension(s: frozenset[str], b: str) -> bool:
        return not any(support[b] & support[c] for c in s)

    def predicate(s: frozenset[str]) -> bool:
        return game.legal(board, position(*(by_name[c] for c in s)))

    legal: set[frozenset[str]] = {frozenset()}
    frontier: list[frozenset[str]] = [frozenset()]
    candidates: set[frozenset[str]] = set()
    while frontier:
        nxt: set[frozenset[str]] = set()
        for s in frontier:
            for b in names:
                if b in s:
                    continue
                t = s | {b}
                if t in legal or t in nxt or t in candidates:
                    continue
                if not disjoint_extension(s, b) or not predicate(t):
                    candidates.add(t)
                    continue
                subs_legal = [t - {c} in legal for c in sorted(t)]
                if all(subs_legal):
                    nxt.add(t)
                else:
                    missing = [c for c, ok in zip(sorted(t), subs_legal) if not ok][0]
                    raise DownwardClosureError(tuple(sorted(t)), tuple(sorted(t - {missing})))
        legal |= nxt
        frontier = sorted(nxt, key=sorted)
    minimal = frozenset(
        t for t in candidates if all(t - {c} in legal for c in t)
    )
    return GameAnalysis(index, frozenset(legal), minimal)


def legal_complex(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> LabeledComplex:
    """Shorthand for ``analyze(game, board, cap=cap).legal_complex()``."""
    return analyze(game, board, cap=cap).legal_complex()


def legal_ideal(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> SquareFreeIdeal:
    """Shorthand for ``analyze(game, board, cap=cap).legal_ideal()``."""
    return analyze(game, board, cap=cap).legal_ideal()


def illegal_complex(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> LabeledComplex:
    """Shorthand for ``analyze(game, board, cap=cap).illegal_complex()``."""
    return analyze(game, board, cap=cap).illegal_complex()


def illegal_ideal(game: Ruleset, board: Board, cap: int = DEFAULT_CAP) -> SquareFreeIdeal:
    """Shorthand for ``analyze(game, board, cap=cap).illegal_ideal()``."""
    return analyze(game, board, cap=cap).illegal_ideal()


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
    index = basic_positions(game, board)
    _check_cap(index, cap)
    support = {name: pl.occupied for name, pl in index.entries}
    by_name = index.by_name
    names = index.names

    def predicate(s: tuple[str, ...]) -> bool:
        return game.legal(board, position(*(by_name[c] for c in s)))

    if not predicate(()):
        return ConditionReport(False, ((), ()), "the empty position must be legal")

    # depth-first enumeration of disjoint-support subsets in canonical order
    stack: list[tuple[tuple[str, ...], frozenset[int], int]] = [((), frozenset(), 0)]
    while stack:
        chosen, occupied, start = stack.pop()
        for i in range(start, len(names)):
            b = names[i]
            if support[b] & occupied:
                continue
            t = chosen + (b,)
            if predicate(t):
                for drop in range(len(t)):
                    sub = t[:drop] + t[drop + 1 :]
                    if not predicate(sub):
                        return ConditionReport(
                            False,
                            (t, sub),
                            f"{{{','.join(t)}}} satisfies the predicate but "
                            f"{{{','.join(sub)}}} does not",
                        )
            stack.append((t, occupied | support[b], i + 1))
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
    index = basic_positions(game, board)
    _check_cap(index, cap)
    by_name = index.by_name
    for name, pl in index.entries:
        if not game.legal(board, position(pl)):
            return InvarianceReport(
                "FAIL",
                f"basic position {name} (vertices {sorted(pl.occupied)}) is illegal",
                witness=(name,),
            )
    if not index.entries:
        return InvarianceReport("INCONCLUSIVE", "board admits no placements at all")

    rng = random.Random(seed)
    names = list(index.names)
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
        if not chosen:
            continue
        sub_vertices = sorted(occupied)
        sub_edges = [e for e in board.edges if set(e) <= occupied]
        embeddings = boards.induced_embeddings(board, sub_vertices, sub_edges, limit=24)
        alternatives = [e for e in embeddings if any(e[v] != v for v in sub_vertices)]
        if not alternatives:
            continue
        phi = alternatives[rng.randrange(len(alternatives))]
        pos = position(*(by_name[c] for c in chosen))
        moved = position(
            *(
                boards.placement(by_name[c].player, {phi[v] for v in by_name[c].occupied})
                for c in chosen
            )
        )
        run += 1
        verdict, verdict_moved = game.legal(board, pos), game.legal(board, moved)
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

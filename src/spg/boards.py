"""Game boards (finite simple graphs), pieces, placements, and embeddings.

Boards carry integer vertex ids and optional grid coordinates.  ``Board``
is the one graph type: its constructor is the one place an adjacency is
built and a graph validated, and pieces and induced patterns are built as
boards too.  Each board also keeps the memos computed from it (its runs of
degree-2 vertices, and the last game analysis and basic-position index the
``engine`` made on it), so they are freed with the board.  Pieces are
connected graphs owned by one player; a placement is the vertex image of an
embedding of a piece into a board.

Embeddings are not-necessarily-induced subgraph embeddings found by one
iterative backtracking search, which serves piece placements, piece
automorphisms and the induced, possibly disconnected, patterns of
:func:`induced_embeddings` (the embeddings whose images span no extra
edge) alike: an explicit stack of candidate lists drawn from the board's
sorted neighbour tuples, and no recursion, so pattern size is not bounded
by Python's recursion limit.  What the search needs to know about its
pattern is a ``_SearchPlan``, made once per pattern and memoised on the
piece.  Its look-ahead rule (the run rule), its forced moves and its walks
a run slice at a time are stated once, in the docstrings of ``_SearchPlan``
and ``_search``.

For placements the search is symmetry-broken: the piece's automorphisms
(found by embedding the piece into itself) give Grochow-Kellis conditions
``image[a] < image[b]`` that keep one embedding per automorphism class, and
the occupied sets are then deduplicated.  The static order puts a vertex
that shares a condition with a mapped one next as soon as it is adjacent to
a mapped one, so a branch that breaks a condition ends early; a condition
holds of the whole map whichever position checks it, so this changes when
a branch ends, not which embeddings survive.  The distance-game pieces are
shared per ``(n, player)``, so their automorphisms and plans are found once
per process.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, filterfalse, islice, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .complexes import LabeledComplex


class BudgetExceeded(RuntimeError):
    """The one over-budget exception, for the time cap, the basic-position
    cap and the construction size alike; its message names the budget."""


Edge = tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True, eq=False)
class Board:
    """A finite simple graph.  The constructor validates it (distinct vertex
    ids, no loop, known endpoints, coordinates one grid step apart along
    every edge) and builds its adjacency once: ``_adj``, each vertex's
    neighbours as a sorted tuple, whose order fixes the order of the
    embedding search's yields, and ``_nbrs``, the same as sets for
    membership tests.  A vertex's degree is the length of its tuple.  The
    one graph memo is ``_runs``, the run table the embedding search reads,
    built when a search first needs it."""

    vertices: tuple[int, ...]
    edges: frozenset[Edge]
    coords: Optional[Mapping[int, tuple[int, int]]] = None
    _adj: dict = field(init=False, repr=False)
    _nbrs: dict = field(init=False, repr=False)
    # engine-owned memos, one entry each: the last analysis made on this
    # board (game, cap, analysis), and its last basic-position index (the
    # two pieces, index), shared by every ruleset with those pieces
    _analysis: Optional[tuple] = field(init=False, repr=False)
    _positions: Optional[tuple] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a},{b}) uses unknown vertices")
            if a == b:
                raise ValueError(f"loop edge at vertex {a}")
            adj[a].add(b)
            adj[b].add(a)
        if self.coords is not None:
            vals = list(self.coords.values())
            if len(set(vals)) != len(vals):
                raise ValueError("coords are not injective")
            for a, b in self.edges:
                if a not in self.coords or b not in self.coords:
                    raise ValueError(f"edge ({a},{b}) has an endpoint without coords")
                (ra, ca), (rb, cb) = self.coords[a], self.coords[b]
                if abs(ra - rb) + abs(ca - cb) != 1:
                    raise ValueError(f"edge ({a},{b}) is not orthogonally adjacent in coords")
        object.__setattr__(self, "_adj", {v: tuple(sorted(n)) for v, n in adj.items()})
        object.__setattr__(self, "_nbrs", adj)
        object.__setattr__(self, "_analysis", None)
        object.__setattr__(self, "_positions", None)
        object.__setattr__(self, "_hash", hash((self.vertices, self.edges)))

    @cached_property
    def _runs(self) -> dict[int, tuple[tuple[int, ...], int]]:
        """For each vertex of degree 2: its maximal run of degree-2 vertices,
        and its index there.  A run's tuple is framed by its end neighbours,
        the vertices the run leads to at both ends, which have another
        degree (both ends may be one vertex).  A cycle component has no end:
        its tuple holds the cycle three times over, and the index points into
        the middle copy, so a walk of fewer steps than the cycle is long
        stays inside the tuple.  Each run is walked once: O(V).

        The embedding search reads a run's landing vertex and end vertex
        from the tuple, and slices a forced walk from it."""
        adj = self._adj
        out: dict[int, tuple[tuple[int, ...], int]] = {}
        for v in self.vertices:
            if len(adj[v]) != 2 or v in out:
                continue
            sides = []
            for first in adj[v]:
                prev, cur, path = v, first, []
                while len(adj[cur]) == 2 and cur != v:
                    path.append(cur)
                    a, b = adj[cur]
                    prev, cur = cur, b if a == prev else a
                if cur == v:  # round a cycle component
                    cycle = (v, *path)
                    seq = cycle * 3
                    out.update(zip(cycle, zip(repeat(seq), range(len(cycle), 2 * len(cycle)))))
                    break
                sides.append([*path, cur])
            else:
                left, right = sides
                seq = (*reversed(left), v, *right)
                out.update(zip(seq[1:-1], zip(repeat(seq), range(1, len(seq) - 1))))
        return out

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Board):
            return NotImplemented
        mine = dict(self.coords) if self.coords is not None else None
        theirs = dict(other.coords) if other.coords is not None else None
        return self.vertices == other.vertices and self.edges == other.edges and mine == theirs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Board(n={len(self.vertices)}, m={len(self.edges)})"


def board(
    vertices: Iterable[int],
    edges: Iterable[tuple[int, int]],
    coords: Mapping[int, tuple[int, int]] | None = None,
) -> Board:
    verts = tuple(sorted(set(vertices)))
    es = frozenset(_norm_edge(a, b) for a, b in edges)
    return Board(verts, es, dict(coords) if coords else None)


def empty_board() -> Board:
    return board([], [])


def build_path(n: int) -> Board:
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return board(range(n), [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Board:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return board(range(n), [(i, (i + 1) % n) for i in range(n)])


def build_grid(rows: int, cols: int) -> Board:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    return grid_from_cells(cells)


def _integer(x: object) -> int:
    """``x`` itself when it is an int (bools are not), else a ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def grid_from_cells(cells: Sequence[tuple[int, int]]) -> Board:
    """A grid board over an arbitrary cell set, ids assigned in sorted cell order."""
    uniq = sorted(set((_integer(r), _integer(c)) for r, c in cells))
    if len(uniq) != len(cells):
        raise ValueError("duplicate cells")
    index = {cell: i for i, cell in enumerate(uniq)}
    edges = []
    for (r, c), i in index.items():
        for nb in ((r + 1, c), (r, c + 1)):
            if nb in index:
                edges.append((i, index[nb]))
    return board(range(len(uniq)), edges, coords={i: cell for cell, i in index.items()})


def disjoint_union(*boards: Board) -> Board:
    """Relabel the boards to consecutive id ranges, in argument order and
    each in vertex order.  Coordinates are dropped."""
    verts: list[int] = []
    edges: list[Edge] = []
    offset = 0
    for b in boards:
        remap = {v: offset + i for i, v in enumerate(b.vertices)}
        verts.extend(remap[v] for v in b.vertices)
        edges.extend((remap[a], remap[x]) for a, x in b.edges)
        offset += len(b.vertices)
    return board(verts, edges)


# ---------------------------------------------------------------------------
# Pieces and placements


@dataclass(frozen=True, eq=False)
class Piece:
    """A connected graph shape owned by one player.  The shape is validated
    by building it as a ``Board``, whose adjacency the piece keeps (not the
    board: a shared piece would hold the board's memos for good).  It
    memoises the plan of its placement search, which holds its
    symmetry-breaking conditions."""

    player: str
    vertices: tuple[int, ...]
    edges: frozenset[Edge]
    _adj: dict = field(init=False, repr=False)
    _plan: Optional[_SearchPlan] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.player not in ("L", "R"):
            raise ValueError(f"unknown player {self.player!r}")
        if not self.vertices:
            raise ValueError("a piece needs at least one vertex")
        shape = Board(self.vertices, self.edges)
        if len(components(shape)) != 1:
            raise ValueError("piece graph is not connected")
        object.__setattr__(self, "_adj", shape._adj)

    def __repr__(self) -> str:
        return f"Piece({self.player}, n={len(self.vertices)}, m={len(self.edges)})"


def vertex_piece(player: str) -> Piece:
    return Piece(player, (0,), frozenset())


def domino_piece(player: str) -> Piece:
    return Piece(player, (0, 1), frozenset({(0, 1)}))


def cycle_piece(n: int, player: str) -> Piece:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Piece(player, tuple(range(n)), frozenset(_norm_edge(i, (i + 1) % n) for i in range(n)))


def _ringed_cycle(outer_len: int, inner_len: int, attach: Iterable[int]) -> tuple[int, list[Edge]]:
    """Raw graph data for a cycle on ids 0..outer_len-1 with an inner
    ``inner_len``-cycle joined (by vertex identification) to each outer
    vertex in ``attach``; the other ring vertices follow, ring by ring.
    Returns (number of vertices, edges)."""
    edges = [_norm_edge(i, (i + 1) % outer_len) for i in range(outer_len)]
    nxt = outer_len
    for a in attach:
        ring = [a, *range(nxt, nxt + inner_len - 1)]
        nxt += inner_len - 1
        edges.extend(_norm_edge(ring[i], ring[(i + 1) % inner_len]) for i in range(inner_len))
    return nxt, edges


@dataclass(frozen=True, order=True)
class Placement:
    """One piece placed on a board: the owning player plus the occupied set."""

    player: str
    occupied: frozenset[int] = field(compare=False)
    sort_key: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort_key", tuple(sorted(self.occupied)))


def placement(player: str, occupied: Iterable[int]) -> Placement:
    occ = frozenset(occupied)
    if not occ:
        raise ValueError("a placement must occupy at least one vertex")
    return Placement(player, occ)


# ---------------------------------------------------------------------------
# Subgraph embedding search


def _search_order(
    vertices: Sequence[int],
    adj: Mapping[int, tuple[int, ...]],
    conditions: Iterable[tuple[int, int]] = (),
) -> list[int]:
    """Static vertex order: start at a maximum-degree vertex, then repeatedly
    take the vertex with the most already-ordered neighbours, ties going to
    the higher degree and then the smaller id.  A vertex that shares a
    symmetry condition with an ordered vertex and has an ordered neighbour
    goes first (the same keys ranking such vertices), so that its condition
    is checked as early as adjacency lets the search reach it: a ring's flip
    condition at the ring's second vertex, not after the ring is walked.
    Without conditions the order is the plain one.  A lazy heap keyed on
    (not moved up, ordered neighbours, degree, id) makes this
    O((V + E + C) log V) for C conditions."""
    partners: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in conditions:
        partners[a].append(b)
        partners[b].append(a)
    count = dict.fromkeys(vertices, 0)
    paired: set[int] = set()  # vertices sharing a condition with an ordered one

    def key(v: int) -> tuple[bool, int, int, int]:
        return (not (count[v] and v in paired), -count[v], -len(adj[v]), v)

    heap = [key(v) for v in vertices]
    heapq.heapify(heap)
    order: list[int] = []
    placed: set[int] = set()
    while heap:
        entry = heapq.heappop(heap)
        v = entry[3]
        if v in placed or entry != key(v):
            continue  # stale entry: v was placed or moved up since
        order.append(v)
        placed.add(v)
        for w in partners[v]:
            paired.add(w)
            if count[w] and w not in placed:
                heapq.heappush(heap, key(w))
        for w in adj[v]:
            if w not in placed:
                count[w] += 1
                heapq.heappush(heap, key(w))
    return order


class _SearchPlan:
    """Everything an embedding search needs to know about its pattern, worked
    out once per pattern and set of conditions.  Per position ``i`` of the
    static order:

    * ``earlier[i]``: the positions of the neighbours that come earlier;
    * ``need[i]``: the pattern degree, a lower bound on the image's degree;
    * ``above[i]``/``below[i]``: positions whose images must stay under /
      exceed the image at ``i`` (the symmetry conditions);
    * ``chain[i]``: whether ``i`` is a chain position, one whose only
      earlier neighbour is position ``i - 1`` and which has no symmetry
      condition, so that the search may take a forced move there;
    * ``land[i]``: the landing of a run entered at ``i``, or ``None``.  It is
      set when ``i`` has one earlier neighbour and degree need 2, positions
      ``i + 1 .. q - 1`` are chain positions of need 2, and ``q - 1`` is an
      earlier neighbour of the next position ``q``.  Then an image of
      degree 2 at ``i`` leads the search down its board run without a
      choice, and position ``q`` must take the run vertex ``q - i`` steps
      on.  The tuple holds that offset, ``need[q]``, and the earlier
      neighbours, ``above`` and ``below`` positions of ``q`` that come
      before ``i`` (the others are not mapped yet when ``i`` is);
    * ``stretch[i]``: the number of consecutive chain positions of need at
      most 2 from ``i`` on (0 when ``i`` is not one).  A vertex inside a
      board run has degree 2 and passes their degree filter, so a forced
      walk down a run takes the stretch a slice of the run's tuple at a
      time.

    The pattern may be disconnected: the static order takes its components
    one after another.
    """

    __slots__ = ("order", "earlier", "need", "above", "below", "chain", "land", "stretch")

    def __init__(
        self,
        vertices: Sequence[int],
        adj: Mapping[int, tuple[int, ...]],
        conditions: Iterable[tuple[int, int]] = (),
    ) -> None:
        conditions = list(conditions)
        order = _search_order(vertices, adj, conditions)
        k = len(order)
        pos = {v: i for i, v in enumerate(order)}
        self.order = order
        self.earlier = earlier = [tuple(pos[w] for w in adj[v] if pos[w] < i) for i, v in enumerate(order)]
        self.need = need = [len(adj[v]) for v in order]
        self.above = above = [()] * k
        self.below = below = [()] * k
        for a, b in conditions:
            ia, ib = pos[a], pos[b]
            if ia < ib:
                above[ib] += (ia,)
            else:
                below[ia] += (ib,)
        self.chain = chain = [earlier[i] == (i - 1,) and not above[i] and not below[i] for i in range(k)]
        self.land = land = [None] * k
        q = k  # the first position after i that is not a chain position of need 2
        for i in range(k - 2, 0, -1):
            if not (chain[i + 1] and need[i + 1] == 2):
                q = i + 1
            if q < k and need[i] == 2 and len(earlier[i]) == 1 and q - 1 in earlier[q]:
                land[i] = (
                    q - i,
                    need[q],
                    tuple(j for j in earlier[q] if j < i),
                    tuple(j for j in above[q] if j < i),
                    tuple(j for j in below[q] if j < i),
                )
        self.stretch = stretch = [0] * k
        n = 0
        for i in range(k - 1, -1, -1):
            n = n + 1 if chain[i] and need[i] <= 2 else 0
            stretch[i] = n


def _search(
    plan: _SearchPlan,
    target: Board,
    deadline: float | None = None,
) -> Iterator[dict[int, int]]:
    """Yield every embedding of the plan's pattern into the target board.

    Pattern edges must map to target edges.  Each ``(a, b)`` among the plan's
    conditions keeps only the embeddings with ``image[a] < image[b]``; it is
    checked when the later of ``a`` and ``b`` in the search order is mapped.
    Embeddings come in lexicographic order of their images along the search
    order.

    Disconnected patterns need no special case: a position with no earlier
    neighbour draws from every board vertex.

    One look-ahead rule, the run rule, drops candidates that cannot
    complete, in the spirit of VF2's look-ahead (Cordella et al., 2004), so
    it changes nothing that is yielded: the embeddings and their order are
    those of the search without it.  A candidate of degree
    2 at a position with a landing (``_SearchPlan.land``) starts a walk down
    its board run (``Board._runs``) in which every step up to the landing
    position ``q`` has exactly one unused neighbour to take.  If the run is
    long enough to fix the vertex ``q`` must take, that vertex has to be
    unused, of degree ``need[q]`` at least, adjacent to the images of
    ``q``'s earlier neighbours and within ``q``'s symmetry conditions, or
    the walk dies at ``q`` at the latest.  A shorter run ends before ``q``,
    at a chain position of need 2, so the run's end vertex has to be unused
    and no leaf, or the walk dies there.  An end that passes is a branch
    vertex, where the walk may fork, and keeps the candidate; so does a
    cycle component, whose run has no end.

    The rule is checked only at the positions the plan marks, and the run
    table is made when a marked position or a forced walk first needs it.
    The static order puts a vertex with a symmetry condition next as soon as
    it can be reached, so a condition that fails fails early too; a
    condition only filters, whichever position checks it.

    Forced moves: at a chain position (its only earlier neighbour is the
    position before it, and it has no symmetry condition) the search reads
    the unused neighbours of the previous image without building a
    candidate list.  With none the branch is dead; with exactly one it
    takes it in place when it passes the degree filter, and the run
    rule when it leaves a branch vertex for a run (a step inside a run was
    checked when the run was entered), and pushes a spent iterator for the
    position, so backtracking runs as for any other; with more it lists the
    candidates as usual.  On the long cycles of the distance-game boards
    nearly every step is forced.

    Forced walks take runs a stretch at a time: when a forced step enters
    the inside of a board run, the positions of its stretch
    (``_SearchPlan.stretch``) that the run's degree-2 vertices can fill
    take them in one slice of the run's tuple.  Every step of the slice
    would be forced, and none checks the rule, so only a used vertex can end
    the walk early: the slice stops before the first one, and the walk dies
    there as it would step by step.  Backtracking pops the slice's
    positions at once when it reaches the last of them.

    The deadline is polled when the search starts and whenever the count of
    nodes, the positions of a slice included, passes a multiple of 2,048.
    """
    order = plan.order
    k = len(order)
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("time budget exhausted: embedding search ran past its deadline")
    if not k:
        yield {}
        return
    earlier, need, above, below = plan.earlier, plan.need, plan.above, plan.below
    land = plan.land
    t_adj, t_nbrs = target._adj, target._nbrs
    image: list[int] = [0] * k
    used: set[int] = set()

    def landing(spec: tuple, ws: Iterable[int], prev: int) -> list[int]:
        """The vertices among ``ws``, all neighbours of ``prev``, that the
        run rule keeps at a position with landing ``spec``."""
        runs = target._runs
        steps, d, adjacent, lower, upper = spec
        near = [t_nbrs[image[a]] for a in adjacent] if adjacent else ()
        lo = max(image[a] for a in lower) if lower else None
        hi = min(image[a] for a in upper) if upper else None
        out = []
        for w in ws:
            if len(t_adj[w]) == 2:
                seq, j = runs[w]
                ahead = seq[j - 1] == prev
                j += steps if ahead else -steps
                if 0 <= j < len(seq):
                    x = seq[j]
                    if x in used or len(t_adj[x]) < d or (lo is not None and x <= lo) or (hi is not None and x >= hi):
                        continue
                    if near and not all(x in n for n in near):
                        continue
                elif len(t_adj[seq[0]]) != 2:  # not round a cycle component
                    # the walk reaches the run's end before q, at a chain
                    # position of need 2
                    end = seq[-1] if ahead else seq[0]
                    if end in used or len(t_adj[end]) < 2:
                        continue
            out.append(w)
        return out

    def candidates(i: int) -> list[int]:
        prior = earlier[i]
        if len(prior) == 1:
            base: Iterable[int] = t_adj[image[prior[0]]]
        elif prior:
            # walk the smallest neighbour tuple, test membership in the others
            anchors = sorted((image[j] for j in prior), key=lambda v: len(t_adj[v]))
            base = t_adj[anchors[0]]
            for x in anchors[1:]:
                base = [w for w in base if w in t_nbrs[x]]
        else:
            base = target.vertices
        d = need[i]
        out = [w for w in base if w not in used and len(t_adj[w]) >= d]
        if above[i]:
            lo = max(image[j] for j in above[i])
            out = [w for w in out if w > lo]
        if below[i]:
            hi = min(image[j] for j in below[i])
            out = [w for w in out if w < hi]
        spec = land[i]
        if spec is not None and out:
            out = landing(spec, out, image[prior[0]])
        return out

    chain, stretch = plan.chain, plan.stretch
    # stack[i] iterates the candidates for position i (after a forced move,
    # the shared spent iterator); ``used`` holds the images of the positions
    # below the top of the stack; ``slices`` holds the (first, last)
    # positions of each run slice taken, which backtracking pops at once
    spent: Iterator[int] = iter(())
    stack = [iter(candidates(0))]
    slices: list[tuple[int, int]] = []
    ticks, poll = 0, 2048
    while stack:
        i = len(stack) - 1
        w = next(stack[i], None)
        if w is None:
            if slices and slices[-1][1] == i:
                first = slices.pop()[0]
                del stack[first:]
                used.difference_update(image[first - 1:i])
            else:
                stack.pop()
                if i:
                    used.remove(image[i - 1])
            continue
        taken = 1
        while True:
            ticks += taken
            if deadline is not None and ticks >= poll:
                if time.monotonic() > deadline:
                    raise BudgetExceeded("time budget exhausted: embedding search ran past its deadline")
                poll = ticks - ticks % 2048 + 2048
            image[i] = w
            if i + 1 == k:
                yield dict(zip(order, image))
                break
            if chain[i + 1]:
                # the candidates are the unused neighbours of ``w``; take a
                # lone one here, list two or more below
                x = None
                for v in t_adj[w]:
                    if v not in used:
                        if x is not None:
                            break
                        x = v
                else:
                    used.add(w)
                    i += 1
                    stack.append(spent)
                    if x is None or len(t_adj[x]) < need[i]:
                        break
                    spec = land[i]
                    if spec is not None and len(t_adj[w]) != 2 and not landing(spec, (x,), w):
                        break
                    taken = 1
                    m = stretch[i]
                    if m > 1 and len(t_adj[x]) == 2:
                        # the walk goes on down x's run: slice the stretch's
                        # images from the run's degree-2 vertices, which pass
                        # their degree filter, ending before a used vertex,
                        # where the walk dies as it would step by step
                        seq, j = target._runs[x]
                        if seq[j - 1] == w:
                            run = seq[j:min(j + m, len(seq) - 1)]
                        else:
                            run = seq[max(j - m + 1, 1):j + 1][::-1]
                        if not used.isdisjoint(run):
                            run = run[:next(n for n, v in enumerate(run) if v in used)]
                        taken = len(run)
                        if taken > 1:
                            last = i + taken - 1
                            image[i:last + 1] = run
                            used.update(run[:-1])
                            stack.extend(repeat(spent, taken - 1))
                            slices.append((i, last))
                            i, x = last, run[-1]
                    w = x
                    continue
            used.add(w)
            stack.append(iter(candidates(i + 1)))
            break


def _symmetry_conditions(piece: Piece, deadline: float | None = None) -> list[tuple[int, int]]:
    """Conditions ``image[a] < image[b]`` under which exactly one embedding
    of each class of embeddings equal up to an automorphism of the pattern
    survives (Grochow & Kellis, RECOMB 2007).

    The automorphisms are the embeddings of the pattern into itself.  Along a
    stabiliser chain whose base follows the search order, each base vertex
    must take the smallest image of its orbit under the current stabiliser.
    """
    plan = _SearchPlan(piece.vertices, piece._adj)
    autos = list(_search(plan, board(piece.vertices, piece.edges), deadline=deadline))
    conditions: list[tuple[int, int]] = []
    for v in plan.order:
        if len(autos) == 1:
            break
        orbit = sorted({a[v] for a in autos} - {v})
        conditions.extend((v, u) for u in orbit)
        autos = [a for a in autos if a[v] == v]
    return conditions


def piece_placements(target: Board, piece: Piece, deadline: float | None = None) -> tuple[Placement, ...]:
    """All distinct occupied sets realising the piece on the board, in
    canonical (sorted occupied tuple) order."""
    if piece._plan is None:
        conditions = _symmetry_conditions(piece, deadline)
        object.__setattr__(piece, "_plan", _SearchPlan(piece.vertices, piece._adj, conditions))
    images = {frozenset(emb.values()) for emb in _search(piece._plan, target, deadline=deadline)}
    # one player, so the order of sort_key is Placement's; the key compares
    # in C where Placement's generated __lt__ would run in Python
    return tuple(sorted((Placement(piece.player, img) for img in images), key=attrgetter("sort_key")))


def induced_embeddings(
    target: Board,
    sub_vertices: Sequence[int],
    sub_edges: Iterable[Edge],
    limit: int | None = None,
) -> list[dict[int, int]]:
    """Embeddings of an induced pattern (vertices plus exact edge set) into the
    board, non-edges required to stay non-edges, in the order of
    :func:`_search`; at most ``limit`` of them.  The pattern may be
    disconnected.

    They are the embeddings of :func:`_search` in which each image has as
    many neighbours among the images as its vertex has in the pattern: the
    pattern's edges are among the images' edges, so there is no other."""
    p_adj = Board(tuple(sub_vertices), frozenset(sub_edges))._adj
    t_nbrs = target._nbrs

    def induced(emb: dict[int, int]) -> bool:
        images = set(emb.values())
        return all(len(t_nbrs[w] & images) == len(p_adj[v]) for v, w in emb.items())

    return list(islice(filter(induced, _search(_SearchPlan(sub_vertices, p_adj), target)), limit))


def components(b: Board) -> list[frozenset[int]]:
    """Connected components, sorted by smallest contained id."""
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for v in filterfalse(seen.__contains__, b.vertices):
        comp, stack = {v}, [v]
        while stack:
            for w in b._adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


# ---------------------------------------------------------------------------
# Distance

def distance(b: Board, s1: Iterable[int], s2: Iterable[int]) -> int | float:
    """Length of a shortest path between two nonempty vertex sets on the bare
    board graph, ignoring occupancy.  ``inf`` when no path exists."""
    a, c = frozenset(s1), frozenset(s2)
    if not a or not c:
        raise ValueError("distance needs nonempty vertex sets")
    if a & c:
        return 0
    frontier = set(a)
    seen = set(a)
    dist = 0
    while frontier:
        dist += 1
        nxt: set[int] = set()
        for v in frontier:
            for w in b.neighbors(v):
                if w in seen:
                    continue
                if w in c:
                    return dist
                seen.add(w)
                nxt.add(w)
        frontier = nxt
    return float("inf")


# ---------------------------------------------------------------------------
# The distance game's boards and pieces, built from an illegal complex

OUTER_EXTRA = {"L": 4, "R": 5}


def distance_labeling(
    gamma: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
) -> dict[frozenset[str], int]:
    """The edge labelling of the distance game for ``gamma``: by default the
    edges of its 1-skeleton labelled 1..k in canonical lexicographic order,
    else ``edge_labeling``, checked to be a bijection from those edges onto
    1..k.

    Complexes with an isolated vertex are rejected: a lone always-forbidden
    move cannot arise from piece patterns alone.
    """
    bad = sorted(min(f) for f in gamma.facets if len(f) == 1)
    if bad:
        raise ValueError(
            f"complex has singleton facet(s) {bad}: a lone always-forbidden move "
            "cannot arise from piece patterns alone, so no placement-invariant "
            "ruleset realises it"
        )
    edges = {frozenset(e) for f in gamma.facets for e in combinations(f, 2)}
    if edge_labeling is None:
        index = {v: i for i, v in enumerate(gamma.vertices)}
        ordered = sorted(edges, key=lambda e: tuple(sorted(index[v] for v in e)))
        return {e: i for i, e in enumerate(ordered, start=1)}
    lab = {frozenset(e): v for e, v in edge_labeling.items()}
    if set(lab) != edges:
        raise ValueError("labeling domain does not match the 1-dimensional faces")
    if sorted(lab.values()) != list(range(1, len(edges) + 1)):
        raise ValueError("labels must be a bijection onto 1..k")
    return lab


def _assembly(n: int, part: str) -> tuple[int, list[Edge], list[int]]:
    """The cycle assembly of a ``part`` vertex of an n-vertex complex, the
    one geometry behind the board, the free assemblies and the pieces.

    An outer cycle of n**4+4 (L) or n**4+5 (R) vertices on ids 0.., and n-1
    inner n**3-cycles, one joined to each attachment vertex of the outer
    cycle.  The attachment vertices lie n**2 apart, so a path that crosses
    an assembly is at least n**2 long, and one between two assemblies
    through a third (n**2+4 at least) is longer than any id-set entry
    (C(n,2)+1 at most): only assemblies joined by a centre path can be as
    near as an id-set demands.  Returns (number of vertices, edges,
    attachment ids).
    """
    if n < 2:
        raise ValueError("distance-game assemblies need n >= 2")
    attach = [i * n**2 for i in range(n - 1)]
    count, edges = _ringed_cycle(n**4 + OUTER_EXTRA[part], n**3, attach)
    return count, edges, attach


def gamma_board(
    gamma: LabeledComplex,
    edge_labeling: Mapping[frozenset[str], int] | None = None,
) -> Board:
    """The board realising ``gamma`` as an illegal complex.

    One cycle assembly per vertex of ``gamma`` (see :func:`assembly_board`),
    laid out in vertex order as consecutive id ranges: the region of the
    i-th vertex is the i-th range.  The centre paths follow, in label order:
    an edge labelled l becomes a path of l new vertices between the
    attachment vertices its two assemblies keep for each other, so the
    assemblies lie l+1 apart.  An empty complex gives an empty board.
    """
    if gamma.is_empty:
        return empty_board()
    labeling = distance_labeling(gamma, edge_labeling)
    names = gamma.vertices
    n = len(names)
    nxt = 0
    edges: list[Edge] = []
    conn: dict[tuple[str, str], int] = {}
    for name in names:
        count, local, attach = _assembly(n, gamma.part[name])
        edges.extend((nxt + a, nxt + b) for a, b in local)
        others = [m for m in names if m != name]
        conn.update(((name, other), nxt + a) for other, a in zip(others, attach))
        nxt += count
    for e in sorted(labeling, key=labeling.get):
        u, v = sorted(e, key=names.index)
        path = [conn[u, v], *range(nxt, nxt + labeling[e]), conn[v, u]]
        edges.extend(zip(path, path[1:]))
        nxt += labeling[e]
    return board(range(nxt), edges)


def assembly_board(part: str, n: int) -> Board:
    """One free-standing cycle assembly of a ``part`` vertex of an n-vertex
    complex: the component added for a complex vertex that lies in every
    facet of the legal complex being realised, and the shape of the piece
    of the owning player."""
    count, edges, _ = _assembly(n, part)
    return board(range(count), edges)


@lru_cache(maxsize=8)
def gamma_piece(n: int, player: str) -> Piece:
    """The piece played by ``player`` in the distance game for an n-vertex
    illegal complex: the player's cycle assembly.

    One shared piece per ``(n, player)``, so its symmetry conditions and
    search plan are worked out once per process."""
    count, edges, _ = _assembly(n, player)
    return Piece(player, tuple(range(count)), frozenset(edges))


# ---------------------------------------------------------------------------
# Interchange formats


def board_to_obj(b: Board) -> dict:
    obj: dict = {
        "vertices": list(b.vertices),
        "edges": [list(e) for e in sorted(b.edges)],
    }
    if b.coords is not None:
        obj["coords"] = {str(v): list(b.coords[v]) for v in b.vertices if v in b.coords}
    return obj


def board_from_obj(obj: Mapping) -> Board:
    try:
        vertices = [_integer(v) for v in obj["vertices"]]
        edges = [(_integer(a), _integer(b)) for a, b in obj["edges"]]
        coords = obj.get("coords")
        if coords is not None:
            coords = {int(k): (_integer(r), _integer(c)) for k, (r, c) in coords.items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed board object: {exc}") from exc
    return board(vertices, edges, coords=coords)


def board_to_dot(b: Board) -> str:
    lines = ["graph board {"]
    for v in b.vertices:
        attrs = ""
        if b.coords is not None and v in b.coords:
            r, c = b.coords[v]
            attrs = f' [pos="{c},{-r}!"]'
        lines.append(f"  {v}{attrs};")
    for a, c in sorted(b.edges):
        lines.append(f"  {a} -- {c};")
    lines.append("}")
    return "\n".join(lines) + "\n"

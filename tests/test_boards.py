from __future__ import annotations

import heapq
import random
import time
from itertools import combinations, permutations, repeat
from types import SimpleNamespace

import pytest

from spg import boards as boards_module
from spg.boards import (
    OUTER_EXTRA,
    BudgetExceeded,
    Piece,
    _SearchPlan,
    _ringed_cycle,
    _search,
    _search_order,
    _symmetry_conditions,
    assembly_board,
    board,
    board_from_obj,
    board_to_dot,
    board_to_obj,
    build_cycle,
    build_grid,
    build_path,
    components,
    cycle_piece,
    disjoint_union,
    distance,
    distance_labeling,
    domino_piece,
    empty_board,
    gamma_board,
    gamma_piece,
    grid_from_cells,
    induced_embeddings,
    piece_placements,
    placement,
    vertex_piece,
)
from spg.complexes import from_facets
from conftest import all_labeled_complexes, antichains


P3_GAMMA = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "R", "c": "L"})


def embeddings_oracle(b, piece) -> list[dict[int, int]]:
    """Brute force: every injective vertex map sending piece edges to board
    edges."""
    pv = list(piece.vertices)
    maps = (dict(zip(pv, image)) for image in permutations(b.vertices, len(pv)))
    return [
        m for m in maps
        if all(tuple(sorted((m[a], m[c]))) in b.edges for a, c in piece.edges)
    ]


def placements_oracle(b, piece) -> set[frozenset[int]]:
    """The brute-force embeddings collapsed to occupied sets."""
    return {frozenset(m.values()) for m in embeddings_oracle(b, piece)}


def test_builders_shapes():
    p = build_path(4)
    assert p.vertices == (0, 1, 2, 3) and len(p.edges) == 3
    c = build_cycle(5)
    assert len(c.vertices) == 5 and len(c.edges) == 5
    g = build_grid(2, 3)
    assert len(g.vertices) == 6 and len(g.edges) == 7
    assert empty_board().vertices == ()


def test_grid_from_cells_lshape():
    b = grid_from_cells([(0, 0), (1, 0), (2, 0), (2, 1)])
    assert len(b.vertices) == 4
    assert b.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert b.coords[3] == (2, 1)
    with pytest.raises(ValueError):
        grid_from_cells([(0, 0), (0, 0)])


def test_board_validation():
    from spg.boards import Board

    assert board([0, 0], []).vertices == (0,)  # the builder dedupes
    with pytest.raises(ValueError):
        Board((0, 0), frozenset())
    with pytest.raises(ValueError):
        board([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        board([0, 1], [(0, 1)], coords={0: (0, 0), 1: (0, 2)})
    with pytest.raises(ValueError):
        board([0, 1], [(0, 1)], coords={0: (0, 0), 1: (0, 0)})
    with pytest.raises(ValueError, match=r"edge \(0,1\) has an endpoint without coords"):
        board([0, 1], [(0, 1)], coords={0: (0, 0)})
    with pytest.raises(ValueError, match="loop edge at vertex 0"):
        Board((0,), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="loop edge at vertex 1"):
        board([0, 1], [(0, 1), (1, 1)])
    # an edge is one pair of neighbours, whichever way round it is written
    assert Board((0, 1), frozenset({(1, 0)})).neighbors(0) == (1,)
    with pytest.raises(ValueError, match=r"edge \(1,0\) is given in both orientations"):
        Board((0, 1), frozenset({(0, 1), (1, 0)}))
    assert board([0, 1], [(0, 1), (1, 0)]).neighbors(1) == (0,)


def test_disjoint_union_offsets_and_components():
    u = disjoint_union(build_path(2), build_cycle(3))
    assert len(u.vertices) == 5 and len(u.edges) == 4
    assert not any({0, 1} & set(e) and {2, 3, 4} & set(e) for e in u.edges)
    assert [sorted(c) for c in components(u)] == [[0, 1], [2, 3, 4]]
    assert disjoint_union().vertices == ()


def test_piece_validation():
    with pytest.raises(ValueError):
        Piece("L", (), frozenset())
    with pytest.raises(ValueError):
        Piece("L", (0, 1), frozenset())  # disconnected
    with pytest.raises(ValueError):
        Piece("X", (0,), frozenset())
    # the shape is validated as a board
    with pytest.raises(ValueError, match="loop edge"):
        Piece("L", (0,), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="unknown vertices"):
        Piece("L", (0, 1), frozenset({(0, 1), (1, 2)}))


def test_placement_ordering_and_validation():
    a = placement("L", [2, 0])
    b = placement("L", [1])
    assert sorted([a, b]) == [a, b]  # (0,2) before (1,)
    with pytest.raises(ValueError):
        placement("L", [])


@pytest.mark.parametrize(
    "make_board,piece",
    [
        (lambda: build_path(4), domino_piece("L")),
        (lambda: build_grid(2, 3), domino_piece("R")),
        (lambda: build_cycle(4), cycle_piece(4, "L")),
        (lambda: build_grid(2, 2), cycle_piece(4, "R")),
        (lambda: build_path(3), vertex_piece("L")),
        (lambda: disjoint_union(build_path(2), build_cycle(3)), cycle_piece(3, "L")),
    ],
)
def test_piece_placements_match_oracle(make_board, piece):
    b = make_board()
    got = {p.occupied for p in piece_placements(b, piece)}
    assert got == placements_oracle(b, piece)
    players = {p.player for p in piece_placements(b, piece)}
    assert players <= {piece.player}


def test_piece_placements_sorted_and_deduped():
    b = build_path(3)
    ps = piece_placements(b, domino_piece("L"))
    assert [sorted(p.occupied) for p in ps] == [[0, 1], [1, 2]]


def test_placements_add_over_disjoint_union():
    left, right = build_path(3), build_cycle(4)
    u = disjoint_union(left, right)
    piece = domino_piece("L")
    total = len(piece_placements(left, piece)) + len(piece_placements(right, piece))
    assert len(piece_placements(u, piece)) == total


STAR = Piece("L", (0, 1, 2, 3), frozenset({(0, 1), (0, 2), (0, 3)}))
PATH3 = Piece("R", (0, 1, 2), frozenset({(0, 1), (1, 2)}))


def ringed_piece(outer_len: int, inner_len: int, count: int, player: str) -> Piece:
    """An ``outer_len``-cycle with an inner ``inner_len``-cycle joined to
    each of its first ``count`` vertices."""
    n, edges = _ringed_cycle(outer_len, inner_len, range(count))
    return Piece(player, tuple(range(n)), frozenset(edges))


def random_board(rng: random.Random, n: int, p: float = 0.5):
    """A random graph on n vertices whose ids are a random sample of 0..3n."""
    ids = rng.sample(range(3 * n), n)
    return board(ids, [(ids[a], ids[c]) for a in range(n) for c in range(a + 1, n) if rng.random() < p])


@pytest.mark.parametrize("piece", [STAR, cycle_piece(5, "L"), PATH3], ids=["star", "cycle5", "path3"])
def test_search_matches_brute_force_on_random_boards(piece):
    plan = _SearchPlan(piece.vertices, piece._adj)
    broken_plan = _SearchPlan(piece.vertices, piece._adj, _symmetry_conditions(piece))
    automorphisms = len(embeddings_oracle(board(piece.vertices, piece.edges), piece))
    rng = random.Random(7)
    for _ in range(30):
        b = random_board(rng, rng.randint(3, 7))
        maps = embeddings_oracle(b, piece)
        got = [tuple(sorted(m.items())) for m in _search(plan, b)]
        assert len(got) == len(set(got)) == len(maps)
        assert set(got) == {tuple(sorted(m.items())) for m in maps}
        broken = list(_search(broken_plan, b))
        assert len(broken) * automorphisms == len(maps)
        assert {p.occupied for p in piece_placements(b, piece)} == placements_oracle(b, piece)
        induced = [
            m for m in maps
            if all(
                (tuple(sorted((m[a], m[c]))) in b.edges) == ((a, c) in piece.edges)
                for a, c in combinations(piece.vertices, 2)
            )
        ]
        got_induced = [tuple(sorted(m.items())) for m in induced_embeddings(b, piece.vertices, piece.edges)]
        assert sorted(got_induced) == sorted(tuple(sorted(m.items())) for m in induced)


@pytest.mark.parametrize("player", ["L", "R"])
def test_symmetry_breaking_on_gamma_piece(player):
    piece = gamma_piece(2, player)
    plan = _SearchPlan(piece.vertices, piece._adj)
    broken_plan = _SearchPlan(piece.vertices, piece._adj, _symmetry_conditions(piece))
    # flipping the inner ring times reflecting the outer cycle through the
    # connection vertex
    automorphisms = 4
    assert len(list(_search(plan, board(piece.vertices, piece.edges)))) == automorphisms
    edge = from_facets([["a", "b"]], {"a": "L", "b": "R"})
    rng = random.Random(11)
    for base in (gamma_board(edge), disjoint_union(assembly_board(player, 2), gamma_board(edge))):
        ids = rng.sample(range(2 * len(base.vertices)), len(base.vertices))
        b = board(ids, [(ids[u], ids[v]) for u, v in base.edges])
        plain = list(_search(plan, b))
        broken = list(_search(broken_plan, b))
        assert plain and len(broken) * automorphisms == len(plain)
        occupied = {frozenset(m.values()) for m in plain}
        assert {frozenset(m.values()) for m in broken} == occupied
        assert {p.occupied for p in piece_placements(b, piece)} == occupied


def test_embedding_deadline_raises():
    # the deadline has already passed, so the check made when the search
    # starts raises; the polls during a search are tested below
    with pytest.raises(BudgetExceeded):
        piece_placements(build_cycle(240), cycle_piece(24, "L"), deadline=time.monotonic() - 1)


def fake_clock(monkeypatch, late_after=None):
    """Swap the search's clock for one that records its reads: it reads 0.0,
    and 2.0 from read ``late_after + 1`` on.  Returns the list of reads."""
    calls = []

    def monotonic():
        calls.append(None)
        return 2.0 if late_after is not None and len(calls) > late_after else 0.0

    monkeypatch.setattr(boards_module, "time", SimpleNamespace(monotonic=monotonic))
    return calls


def test_deadline_poll_counts_forced_moves(monkeypatch):
    # a 2,600-vertex path on a 3,000-cycle: every step after the root's
    # first neighbour is forced, and the first embedding lies 2,600 steps
    # in, past the first poll at 2,048 nodes
    calls = fake_clock(monkeypatch, late_after=1)
    path = build_path(2600)
    plan = _SearchPlan(path.vertices, path._adj)
    assert sum(plan.chain) == len(path.vertices) - 3  # all but the root and the two ends
    with pytest.raises(BudgetExceeded):
        next(_search(plan, build_cycle(3000), deadline=1.0))
    assert len(calls) == 2  # the check at the start, then the first poll


def spider(*legs):
    """A centre vertex 0 with a path of each number of vertices in ``legs``
    hanging from it."""
    edges, nxt = [], 1
    for n in legs:
        path = [0, *range(nxt, nxt + n)]
        edges += zip(path, path[1:])
        nxt += n
    return board(range(nxt), edges)


def theta(*lengths):
    """Vertices 0 and 1 joined by a path through each number of new vertices
    in ``lengths``."""
    edges, nxt = [], 2
    for n in lengths:
        path = [0, *range(nxt, nxt + n), 1]
        edges += zip(path, path[1:])
        nxt += n
    return board(range(nxt), edges)


def test_deadline_poll_falls_at_the_end_of_a_run_slice(monkeypatch):
    # a 2,100-vertex path with two leaves at one end, on a spider with legs
    # of 2,099, 50 and 60 vertices.  The walk down the long leg takes
    # positions 2 to 2,098 in one slice, across the first poll at 2,048
    # nodes; the whole search takes fewer than 4,096
    calls = fake_clock(monkeypatch)
    pattern = board(range(2102), [*build_path(2100).edges, (0, 2100), (0, 2101)])
    plan = _SearchPlan(pattern.vertices, pattern._adj)
    assert plan.stretch[2] == 2098
    b = spider(2099, 50, 60)
    want = list(reference_embeddings(pattern.vertices, pattern._adj, b))
    assert len(want) == 2
    assert list(_search(plan, b, deadline=1.0)) == want
    assert len(calls) == 2  # the check at the start, then the one poll


def test_run_rule_refutes_walks_that_cannot_close(monkeypatch):
    # a 1,000-cycle on a 1,010-cycle: from either neighbour of a root image
    # the walk would close 10 vertices short.  The run rule refutes both at
    # the root's neighbours, so the search visits one node per root image,
    # under the first poll at 2,048; walking them would take two million
    calls = fake_clock(monkeypatch)
    pattern = build_cycle(1000)
    plan = _SearchPlan(pattern.vertices, pattern._adj)
    assert plan.land[1][:3] == (998, 2, (0,))  # lands next to the root
    assert list(_search(plan, build_cycle(1010), deadline=1.0)) == []
    assert len(calls) == 1  # the check at the start, no poll


def test_run_rule_refutes_a_landing_of_too_low_degree(monkeypatch):
    # a 1,000-vertex path with two leaves at each end.  On a theta graph (two
    # vertices of degree 3 joined by paths of 1,200, 1,300 and 1,400 new
    # vertices) the path's far end, of degree 3, would land inside one of
    # them.  On a spider with three legs of 990 vertices each walk from the
    # centre would reach its leg's leaf before the landing, and a leaf cannot
    # take a path vertex of degree 2
    leaves = [(0, 1000), (0, 1001), (999, 1002), (999, 1003)]
    pattern = board(range(1004), [*build_path(1000).edges, *leaves])
    plan = _SearchPlan(pattern.vertices, pattern._adj)
    assert plan.land[1][:3] == (998, 3, ())
    for b in (theta(1200, 1300, 1400), spider(990, 990, 990)):
        calls = fake_clock(monkeypatch)
        assert list(_search(plan, b, deadline=1.0)) == []
        assert len(calls) == 1  # the check at the start, no poll


def test_run_rule_refutes_a_forced_step_from_a_branch_vertex(monkeypatch):
    # a 2,200-cycle with a leaf, on a 12-cycle with a leaf at vertex 0 and a
    # 2,500-vertex tail at vertex 11.  Round the short cycle from 0, vertex
    # 11 has the tail as its one unused neighbour, and the walk down the
    # tail cannot close back to vertex 0
    calls = fake_clock(monkeypatch)
    pattern = board(range(2201), [*build_cycle(2200).edges, (0, 2200)])
    plan = _SearchPlan(pattern.vertices, pattern._adj)
    tail = [11, *range(13, 2513)]
    b = board(range(2513), [*build_cycle(12).edges, (0, 12), *zip(tail, tail[1:])])
    assert list(_search(plan, b, deadline=1.0)) == []
    assert len(calls) == 1  # the check at the start, no poll


def test_run_rule_refutes_a_landing_on_a_used_vertex(monkeypatch):
    # a 12-cycle with a 2,501-vertex tail.  On a theta graph whose two branch
    # vertices are joined by paths through 5, 5 and 2,500 vertices, the
    # pattern's cycle goes round the two short paths; its tail, entered at
    # the long one, would end on the far branch vertex, of degree 3 but
    # used.  On a 12-cycle with a 2,000-cycle through its vertex 0, the tail,
    # entered at the ring from vertex 0 either way, would come back to that
    # used vertex before it ends
    pattern = tadpole(12, 2501)
    plan = _SearchPlan(pattern.vertices, pattern._adj)
    assert plan.land[12] == (2500, 1, (), (), ())
    ring = [0, *range(12, 2011), 0]
    ringed = board(range(2011), [*build_cycle(12).edges, *zip(ring, ring[1:])])
    for b in (theta(5, 5, 2500), ringed):
        calls = fake_clock(monkeypatch)
        assert list(_search(plan, b, deadline=1.0)) == []
        assert len(calls) == 1  # the check at the start, no poll


# a 4-vertex complex whose board joins its assemblies in a cycle: the
# placement search below polled the deadline 4 times, every 2,048 nodes,
# before the run rule and the early symmetry checks
POLLED_GAMMA = from_facets([["a", "b", "c"], ["b", "c", "d"], ["a", "d"]], {"a": "L", "b": "R", "c": "L", "d": "R"})
POLLS_BEFORE_RUN_RULE = 4


@pytest.mark.parametrize("player", ["L", "R"])
def test_gamma_placement_search_polls_less_than_without_the_run_rule(monkeypatch, player):
    piece = gamma_piece(4, player)
    plan = _SearchPlan(piece.vertices, piece._adj, _symmetry_conditions(piece))
    b = gamma_board(POLLED_GAMMA)
    calls = fake_clock(monkeypatch)
    assert len(list(_search(plan, b, deadline=1.0))) == 2
    assert len(calls) - 1 < POLLS_BEFORE_RUN_RULE


def reference_embeddings(p_vertices, p_adj, target, induced=False, conditions=()):
    """The embedding search without look-ahead: the same static order,
    candidate filters and yield order, and no pruning rule."""
    order = _search_order(p_vertices, p_adj, conditions)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[pos[w] for w in p_adj[v] if pos[w] < i] for i, v in enumerate(order)]
    above = [[] for _ in order]
    below = [[] for _ in order]
    for a, c in conditions:
        if pos[a] < pos[c]:
            above[pos[c]].append(pos[a])
        else:
            below[pos[a]].append(pos[c])
    image, used = [0] * len(order), set()

    def candidates(i):
        prior = earlier[i]
        base = target.neighbors(image[prior[0]]) if prior else target.vertices
        base = [w for w in base if all(w in target.neighbors(image[j]) for j in prior)]
        out = [w for w in base if w not in used and target.degree(w) >= len(p_adj[order[i]])]
        out = [w for w in out if all(w > image[j] for j in above[i]) and all(w < image[j] for j in below[i])]
        if induced:
            out = [w for w in out if sum(1 for x in target.neighbors(w) if x in used) == len(prior)]
        return out

    stack = [iter(candidates(0))]
    while stack:
        i = len(stack) - 1
        w = next(stack[i], None)
        if w is None:
            stack.pop()
            if i:
                used.remove(image[i - 1])
            continue
        image[i] = w
        if i + 1 == len(order):
            yield dict(zip(order, image))
        else:
            used.add(w)
            stack.append(iter(candidates(i + 1)))


def plain_search_order(vertices, adj):
    """The static order without symmetry conditions, written out on its own:
    most ordered neighbours, then higher degree, then smaller id."""
    count = dict.fromkeys(vertices, 0)
    heap = [(0, -len(adj[v]), v) for v in vertices]
    heapq.heapify(heap)
    order, placed = [], set()
    while heap:
        c, _, v = heapq.heappop(heap)
        if v in placed or -c != count[v]:
            continue
        order.append(v)
        placed.add(v)
        for w in adj[v]:
            if w not in placed:
                count[w] += 1
                heapq.heappush(heap, (-count[w], -len(adj[w]), w))
    return order


def assert_same_search(piece, b, conditions, *more):
    """Identical yield sequences, map by map and in order, with and without
    the symmetry conditions (and any ``more`` condition sets), and for
    induced embeddings."""
    for conds in ((), conditions, *more):
        want = list(reference_embeddings(piece.vertices, piece._adj, b, conditions=conds))
        got = list(_search(_SearchPlan(piece.vertices, piece._adj, conds), b))
        assert got == want, (piece, b.edges, conds)
    want = list(reference_embeddings(piece.vertices, piece._adj, b, induced=True))
    assert induced_embeddings(b, piece.vertices, piece.edges) == want, (piece, b.edges)


def random_sparse_board(rng, n):
    """A random tree plus a few extra edges, so that cut vertices are common."""
    ids = rng.sample(range(3 * n), n)
    edges = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
    edges |= {(ids[a], ids[c]) for a, c in combinations(range(n), 2) if rng.random() < 1.5 / n}
    return board(ids, edges)


SEARCH_PATTERNS = [
    STAR, PATH3, cycle_piece(3, "L"), cycle_piece(4, "R"), cycle_piece(5, "L"), domino_piece("R"),
    Piece("L", tuple(range(5)), frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})),
    ringed_piece(4, 3, 1, "L"), ringed_piece(5, 3, 2, "R"),
]


@pytest.mark.parametrize("piece", SEARCH_PATTERNS, ids=repr)
def test_search_yields_as_the_reference_on_random_boards(piece):
    conditions = _symmetry_conditions(piece)
    rng = random.Random(19)
    for _ in range(25):
        assert_same_search(piece, random_board(rng, rng.randint(3, 8), rng.choice((0.3, 0.5))), conditions)
        assert_same_search(piece, random_sparse_board(rng, rng.randint(4, 14)), conditions)


@pytest.mark.parametrize(
    "gamma",
    [
        from_facets([["a", "b"]], {"a": "L", "b": "R"}),
        from_facets([["a", "b", "c"]], {"a": "L", "b": "R", "c": "R"}),
        P3_GAMMA,
    ],
    ids=["edge", "triangle", "path"],
)
def test_search_yields_as_the_reference_on_gamma_boards(gamma):
    n = len(gamma.vertices)
    rng = random.Random(23 + n)
    for base in (gamma_board(gamma), disjoint_union(assembly_board("L", n), gamma_board(gamma))):
        ids = rng.sample(range(2 * len(base.vertices)), len(base.vertices))
        b = board(ids, [(ids[u], ids[v]) for u, v in base.edges])
        for player in ("L", "R"):
            piece = gamma_piece(n, player)
            assert_same_search(piece, b, _symmetry_conditions(piece))


def test_search_order_without_conditions_is_the_plain_order():
    # induced_embeddings and check_invariance search without conditions, so
    # their search order, and with it their yield order, is the plain one
    patterns = [(p.vertices, p._adj) for p in SEARCH_PATTERNS]
    patterns += [(gamma_piece(n, player).vertices, gamma_piece(n, player)._adj) for n in (2, 3) for player in "LR"]
    patterns += [(v, board(v, e)._adj) for v, e in DISCONNECTED_PATTERNS.values()]
    for vertices, adj in patterns:
        want = plain_search_order(vertices, adj)
        assert _search_order(vertices, adj) == want
        assert _SearchPlan(vertices, adj).order == want


def test_ring_flip_conditions_are_checked_at_the_ring_s_second_vertex():
    n = 4
    piece = gamma_piece(n, "L")
    outer = n**4 + OUTER_EXTRA["L"]
    plan = _SearchPlan(piece.vertices, piece._adj, _symmetry_conditions(piece))
    pos = {v: i for i, v in enumerate(plan.order)}
    for a in range(0, (n - 1) * n**2, n**2):
        ring = sorted(pos[w] for w in piece._adj[a] if w >= outer)
        # the two neighbours of the attachment vertex on its ring come one
        # after the other, and the later one checks the ring's flip
        assert len(ring) == 2 and ring[1] == ring[0] + 1
        assert plan.above[ring[1]] == (ring[0],)
    assert plan.order[:outer] == plain_search_order(piece.vertices, piece._adj)[:outer]


def relabelled(rng, b):
    """The board under random distinct vertex ids below 2n."""
    ids = dict(zip(b.vertices, rng.sample(range(2 * len(b.vertices)), len(b.vertices))))
    return board(ids.values(), [(ids[u], ids[v]) for u, v in b.edges])


def subdivided_board(rng, n, interior=range(6)):
    """A random sparse graph on n vertices with each edge replaced by a path
    through a number of new vertices drawn from ``interior`` (by default 1 to
    6 edges): chains of degree-2 vertices between branch vertices."""
    base = random_sparse_board(rng, n)
    first = nxt = max(base.vertices) + 1
    edges = []
    for u, v in sorted(base.edges):
        path = [u, *range(nxt, nxt + rng.choice(interior)), v]
        nxt += len(path) - 2
        edges.extend(zip(path, path[1:]))
    return relabelled(rng, board([*base.vertices, *range(first, nxt)], edges))


PATH6 = Piece("R", tuple(range(6)), frozenset((i, i + 1) for i in range(5)))


def tadpole(length, tail):
    """A cycle with a path of ``tail`` edges hanging from one of its vertices."""
    path = [0, *range(length, length + tail)]
    return board(range(length + tail), [*build_cycle(length).edges, *zip(path, path[1:])])


# a small distance-game piece: a 9-cycle with 4-rings joined to vertices 0
# and 3, so that walks land on a ring's attachment vertex, of degree 4
RINGED9 = Piece("L", tuple(range(15)), frozenset(boards_module._ringed_cycle(9, 4, [0, 3])[1]))
CHAIN_PATTERNS = [*SEARCH_PATTERNS, PATH6, RINGED9]


def flipped(conditions):
    """The conditions the other way round: not symmetry-breaking any more,
    but a fair test set, which checks at ``q`` that an image stays below an
    earlier one where the originals check that it exceeds one."""
    return [(b, a) for a, b in conditions]


def landings(piece, conditions):
    """The run-rule landings of the piece's plans without, with and against
    its symmetry conditions."""
    return [
        spec
        for conds in ((), conditions, flipped(conditions))
        for spec in _SearchPlan(piece.vertices, piece._adj, conds).land
        if spec
    ]


def test_chain_patterns_cover_every_kind_of_landing():
    specs = [spec for piece in CHAIN_PATTERNS for spec in landings(piece, _symmetry_conditions(piece))]
    assert {spec[0] for spec in specs} >= {1, 2, 3, 4}  # landing offsets
    assert {spec[1] for spec in specs} >= {2, 4}  # degree needs at q
    assert any(spec[2] for spec in specs)  # adjacent to an earlier image
    assert any(spec[3] for spec in specs) and any(spec[4] for spec in specs)  # symmetry conditions both ways


@pytest.mark.parametrize("piece", CHAIN_PATTERNS, ids=repr)
def test_search_yields_as_the_reference_on_chain_boards(piece):
    # most steps are forced moves here.  Forced runs end on a used vertex
    # when a cycle closes before the piece is placed, on the degree filter
    # when a tail's end takes a pattern vertex of degree 2, and at the
    # branch vertices of tadpoles and subdivided graphs
    conditions = _symmetry_conditions(piece)
    against = flipped(conditions)
    rng = random.Random(31)
    for length in range(3, len(piece.vertices) + 3):
        for tail in (0, 1, 2):
            assert_same_search(piece, relabelled(rng, tadpole(length, tail)), conditions, against)
    for _ in range(15):
        assert_same_search(piece, subdivided_board(rng, rng.randint(3, 7)), conditions, against)
    # the run rule at its edges: for each landing offset s, runs of s - 1,
    # s and s + 1 vertices, so that the landing falls past the run, on its
    # end neighbour or inside it; and next to them cycle components, on
    # which a walk closes back onto the used vertex it left before, at or
    # after the landing
    for s in sorted({spec[0] for spec in landings(piece, conditions)}):
        for _ in range(4):
            runs = subdivided_board(rng, rng.randint(3, 6), range(max(s - 1, 0), s + 2))
            cycles = [build_cycle(length) for length in (s, s + 1, s + 2) if length >= 3]
            assert_same_search(piece, relabelled(rng, disjoint_union(runs, *cycles)), conditions, against)


PATH10 = Piece("L", tuple(range(10)), frozenset((i, i + 1) for i in range(9)))


@pytest.mark.parametrize(
    "piece,make_board",
    [
        # round the cycle the slice reaches the root's image, a used
        # vertex, and stops before it
        (PATH10, lambda: build_cycle(6)),
        # down a leg the slice stops before the leaf, and the step onto it
        # fails the degree filter of a pattern vertex of need 2; towards the
        # centre it stops before the centre, of degree 3, which the walk
        # takes in a single step before it lists candidates
        (PATH10, lambda: spider(3, 4, 7)),
        # slices that wrap round a cycle component's tuple, from every
        # image of the root and both ways
        (PATH10, lambda: build_cycle(11)),
        (cycle_piece(9, "R"), lambda: disjoint_union(build_cycle(9), build_cycle(10))),
        # position 1 lists both neighbours of the root's image; after the
        # slice from the first, backtracking must come back to the second
        (PATH10, lambda: build_cycle(20)),
    ],
    ids=["used", "branch", "wrap-path", "wrap-cycle", "backtrack"],
)
def test_run_slices_yield_as_the_reference(piece, make_board):
    conditions = _symmetry_conditions(piece)
    rng = random.Random(43)
    b = make_board()
    for each in (b, relabelled(rng, b), relabelled(rng, b)):
        assert_same_search(piece, each, conditions, flipped(conditions))


def test_run_slices_go_both_ways(monkeypatch):
    # on a cycle board the run tuple runs up the ids, so a walk towards
    # lower ids enters its run from the high end.  Every embedding of a
    # 10-vertex path walks its chain positions 2 to 7 as one slice of six,
    # whichever way it goes; a slice is seen as the ``repeat`` of the spent
    # iterator that fills its stack entries.  Were slices taken one way
    # only, a walk the other way would go on by single steps, with the
    # same maps
    plan = _SearchPlan(PATH10.vertices, PATH10._adj)
    assert plan.stretch[2] == 6
    b = build_cycle(30)
    b._runs  # built before the spy goes in: it calls ``repeat`` too
    sliced = []

    def spy(obj, *times):
        sliced.extend(n + 1 for n in times)
        return repeat(obj, *times)

    monkeypatch.setattr(boards_module, "repeat", spy)
    maps = list(_search(plan, b))
    assert maps == list(reference_embeddings(PATH10.vertices, PATH10._adj, b))
    assert len(maps) == 60
    assert {(m[2] - m[1]) % 30 for m in maps} == {1, 29}
    assert sliced == [6] * len(maps)


DISCONNECTED_PATTERNS = {
    "domino+vertex": ([0, 1, 2], [(0, 1)]),
    "two-dominoes": ([0, 1, 2, 3], [(0, 1), (2, 3)]),
    "triangle+path": ([0, 1, 2, 3, 4, 5], [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]),
    "three-vertices": ([0, 1, 2], []),
}


@pytest.mark.parametrize("pattern", DISCONNECTED_PATTERNS.values(), ids=DISCONNECTED_PATTERNS)
def test_search_yields_as_the_reference_on_disconnected_patterns(pattern):
    p_vertices, p_edges = pattern
    p_adj = board(p_vertices, p_edges)._adj
    plan = _SearchPlan(p_vertices, p_adj)
    rng = random.Random(29)
    for _ in range(25):
        dense = random_board(rng, rng.randint(3, 8), rng.choice((0.3, 0.5)))
        for b in (dense, random_sparse_board(rng, rng.randint(4, 14))):
            assert list(_search(plan, b)) == list(reference_embeddings(p_vertices, p_adj, b)), (pattern, b.edges)
            want = list(reference_embeddings(p_vertices, p_adj, b, induced=True))
            assert induced_embeddings(b, p_vertices, p_edges) == want, (pattern, b.edges)


def test_induced_embeddings_of_a_large_edgeless_pattern():
    # one search position per pattern vertex, no recursion per component
    maps = induced_embeddings(board(range(1100), []), list(range(1050)), [], limit=1)
    assert len(maps) == 1 and len(set(maps[0].values())) == 1050


def test_runs_match_a_walk_step_by_step():
    # from each degree-2 vertex, away from either neighbour, the run table
    # gives the vertex each step lands on, up to the run's end neighbour (and
    # nothing past it) or once round a cycle component
    rng = random.Random(37)
    parts = (tadpole(5, 3), build_cycle(4), build_path(4), build_grid(2, 3), subdivided_board(rng, 6))
    b = relabelled(rng, disjoint_union(*parts))
    assert set(b._runs) == {v for v in b.vertices if b.degree(v) == 2}
    for v, (seq, j) in b._runs.items():
        assert seq[j] == v
        for prev in b.neighbors(v):
            step = 1 if seq[j - 1] == prev else -1
            back, cur, s = prev, v, 0
            while True:
                (cur,), back = set(b.neighbors(cur)) - {back}, cur
                s += 1
                assert seq[j + step * s] == cur
                if cur == v:  # round a cycle component
                    assert len(seq) == 3 * s
                    break
                if b.degree(cur) != 2:
                    assert not 0 <= j + step * (s + 1) < len(seq)
                    break


def test_gamma_piece_is_shared_and_plans_once(monkeypatch):
    piece = gamma_piece(3, "L")
    assert piece is gamma_piece(3, "L")
    free = assembly_board("L", 3)
    first = piece_placements(free, piece)
    plan = piece._plan
    assert plan is not None

    def recompute(*args, **kwargs):
        raise AssertionError("symmetry conditions computed twice")

    monkeypatch.setattr(boards_module, "_symmetry_conditions", recompute)
    assert piece_placements(free, piece) == first
    assert piece._plan is plan


def test_budget_exceeded_caches_no_conditions():
    piece = ringed_piece(6, 3, 2, "L")
    with pytest.raises(BudgetExceeded):
        piece_placements(build_cycle(5), piece, deadline=time.monotonic() - 1)
    assert piece._plan is None
    free = board(piece.vertices, piece.edges)
    assert [p.occupied for p in piece_placements(free, piece)] == [frozenset(piece.vertices)]


def test_induced_embeddings_on_cycle():
    c = build_cycle(4)
    # a single edge has 8 induced embeddings: 4 edges, 2 orientations
    maps = induced_embeddings(c, [0, 1], [(0, 1)])
    assert len(maps) == 8
    assert all(tuple(sorted((m[0], m[1]))) in c.edges for m in maps)
    # two opposite vertices must stay non-adjacent
    maps = induced_embeddings(c, [0, 2], [])
    assert {frozenset((m[0], m[2])) for m in maps} == {frozenset((0, 2)), frozenset((1, 3))}


def test_induced_embeddings_across_components():
    u = disjoint_union(build_path(2), build_path(2))
    maps = induced_embeddings(u, [0, 2], [])
    # non-adjacent pair: one vertex per component, both assignments, both orders
    for m in maps:
        assert frozenset((m[0], m[2])) not in u.edges


def test_distance_bfs():
    p = build_path(5)
    assert distance(p, [0], [4]) == 4
    assert distance(p, [0, 1], [3, 4]) == 2
    assert distance(p, [2], [2]) == 0
    u = disjoint_union(build_path(2), build_path(2))
    assert distance(u, [0], [2]) == float("inf")


def test_default_edge_labeling_canonical():
    lab = distance_labeling(P3_GAMMA)
    # canonical order puts L-vertices a, c first; edges sort as (a,b) < (b,c)
    assert lab == {frozenset("ab"): 1, frozenset("bc"): 2}
    tri = from_facets([["a", "b", "c"]], {v: "L" for v in "abc"})
    assert sorted(distance_labeling(tri).values()) == [1, 2, 3]


def test_check_edge_labeling_errors():
    with pytest.raises(ValueError):
        distance_labeling(P3_GAMMA, {frozenset("ab"): 1})
    with pytest.raises(ValueError):
        distance_labeling(P3_GAMMA, {frozenset("ab"): 1, frozenset("bc"): 3})
    with pytest.raises(ValueError):
        distance_labeling(P3_GAMMA, {frozenset("ab"): 1, frozenset("ac"): 2})
    ok = distance_labeling(P3_GAMMA, {frozenset("ab"): 2, frozenset("bc"): 1})
    assert ok[frozenset("bc")] == 1


def expected_gamma_size(gamma, labeling) -> int:
    n = len(gamma.vertices)
    per_vertex = {
        v: n**4 + OUTER_EXTRA[gamma.part[v]] + (n - 1) * (n**3 - 1)
        for v in gamma.vertices
    }
    return sum(per_vertex.values()) + sum(labeling.values())


def layout_regions(gamma, b):
    """The assemblies of a distance-game board, read from its layout: one id
    range per vertex in vertex order, each the size of the vertex's free
    assembly.  Checked against the components left once the centre paths,
    which come after the ranges, are taken out."""
    n = len(gamma.vertices)
    regions, start = {}, 0
    for v in gamma.vertices:
        size = len(assembly_board(gamma.part[v], n).vertices)
        regions[v] = frozenset(range(start, start + size))
        start += size
    rest = board(range(start), [e for e in b.edges if max(e) < start])
    assert components(rest) == [regions[v] for v in gamma.vertices]
    return regions


def test_gamma_board_single_edge_sizes():
    edge = from_facets([["a", "b"]], {"a": "L", "b": "R"})
    b = gamma_board(edge)
    assert len(b.vertices) == 56  # 20 + 7 + 21 + 7 + 1
    regions = layout_regions(edge, b)
    assert set(regions) == {"a", "b"}
    assert len(regions["a"]) == 27 and len(regions["b"]) == 28
    centre = set(b.vertices) - regions["a"] - regions["b"]
    assert len(centre) == 1


def test_gamma_board_sizes_match_formula_on_small_corpus():
    for gamma in all_labeled_complexes("abc", include_degenerate=False):
        if any(len(f) == 1 for f in gamma.facets):
            continue
        lab = distance_labeling(gamma)
        b = gamma_board(gamma)
        assert len(b.vertices) == expected_gamma_size(gamma, lab), gamma


def test_gamma_board_rejects_isolated_vertices():
    lonely = from_facets([["a"], ["b", "c"]], {v: "L" for v in "abc"})
    with pytest.raises(ValueError):
        gamma_board(lonely)


def test_gamma_board_empty_complex():
    from spg.complexes import empty_face_complex, void_complex

    assert gamma_board(void_complex()).vertices == ()
    assert gamma_board(empty_face_complex()).vertices == ()


def test_gamma_board_distances_are_label_plus_one():
    lab = {frozenset("ab"): 2, frozenset("bc"): 1}
    b = gamma_board(P3_GAMMA, lab)
    regions = layout_regions(P3_GAMMA, b)
    assert distance(b, regions["a"], regions["b"]) == 3
    assert distance(b, regions["b"], regions["c"]) == 2
    # a and c are not joined directly; nearest route runs through b's assembly
    assert distance(b, regions["a"], regions["c"]) > 3


def assert_unjoined_assemblies_far_apart(gammas) -> int:
    """On the board of each complex, assemblies joined by an edge labelled l
    lie l+1 apart, and two that are not joined lie farther apart than the
    largest id-set entry.  So a set of pieces can only match the id-set of
    the facet it covers.  Complexes that give the same board (same parts in
    vertex order, same labelled edges) are checked once; returns how many
    boards were checked."""
    seen = set()
    for gamma in gammas:
        lab = distance_labeling(gamma)
        index = {v: i for i, v in enumerate(gamma.vertices)}
        key = (
            tuple(gamma.part[v] for v in gamma.vertices),
            frozenset((frozenset(index[v] for v in e), l) for e, l in lab.items()),
        )
        if key in seen:
            continue
        seen.add(key)
        b = gamma_board(gamma, lab)
        regions = layout_regions(gamma, b)
        top = max(lab.values()) + 1
        for u, v in combinations(gamma.vertices, 2):
            d = distance(b, regions[u], regions[v])
            l = lab.get(frozenset((u, v)))
            assert d > top if l is None else d == l + 1, (gamma, gamma.part, u, v, d)
    return len(seen)


def test_unjoined_assemblies_are_farther_apart_than_any_id_set_entry():
    """Every complex on 3 and 4 vertices with no isolated vertex."""
    gammas = [
        gamma
        for pool in ("abc", "abcd")
        for gamma in all_labeled_complexes(pool, include_degenerate=False)
        if len(gamma.vertices) == len(pool) and all(len(f) > 1 for f in gamma.facets)
    ]
    assert assert_unjoined_assemblies_far_apart(gammas) == 221


def test_unjoined_assemblies_are_far_apart_on_five_vertices():
    """A seeded sample of 20 complexes on 5 vertices with no isolated vertex,
    with seeded parts: 17 distinct boards of 5,600 vertices and more."""
    names = "abcde"
    rng = random.Random(5)
    shapes = [ac for ac in antichains(names) if set().union(*ac) == set(names) and all(len(f) > 1 for f in ac)]
    gammas = [from_facets(ac, {v: rng.choice("LR") for v in names}) for ac in rng.sample(shapes, 20)]
    assert assert_unjoined_assemblies_far_apart(gammas) == 17


def simple_cycle_lengths(b, restrict):
    """Lengths of all simple cycles within an induced vertex subset, by an
    exhaustive walk from each start vertex to larger ids only."""
    allowed = set(restrict)
    adj = {v: [w for w in b.neighbors(v) if w in allowed] for v in allowed}
    lengths: set[int] = set()
    for start in sorted(allowed):
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            for w in adj[v]:
                if w == start and len(path) >= 3:
                    lengths.add(len(path))
                elif w > start and w not in path:
                    stack.append((w, path + (w,)))
    return lengths


def test_gamma_board_cycle_structure():
    b = gamma_board(P3_GAMMA)
    n = 3
    # restricted to one assembly, the only simple cycles are the outer cycle,
    # the inner cycles, and their vertex-identified composites
    regions = layout_regions(P3_GAMMA, b)
    lengths = simple_cycle_lengths(b, regions["a"])
    outer, inner = n**4 + 4, n**3
    assert outer in lengths and inner in lengths
    assert all(l >= inner for l in lengths)


def test_assembly_board_matches_gamma_piece():
    for part in ("L", "R"):
        for n in (2, 3):
            free = assembly_board(part, n)
            piece = gamma_piece(n, part)
            assert len(free.vertices) == len(piece.vertices)
            assert len(free.edges) == len(piece.edges)
            assert components(free) == [frozenset(free.vertices)]
            # the piece tiles its own free assembly exactly once
            ps = piece_placements(free, piece)
            assert len(ps) == 1 and ps[0].occupied == frozenset(free.vertices)


def test_gamma_piece_embeds_once_per_matching_assembly():
    b = gamma_board(P3_GAMMA)
    regions = layout_regions(P3_GAMMA, b)
    left = piece_placements(b, gamma_piece(3, "L"))
    right = piece_placements(b, gamma_piece(3, "R"))
    assert {p.occupied for p in left} == {regions["a"], regions["c"]}
    assert {p.occupied for p in right} == {regions["b"]}


def test_board_json_roundtrip():
    b = grid_from_cells([(0, 0), (1, 0), (2, 0), (2, 1)])
    assert board_from_obj(board_to_obj(b)) == b
    plain = build_cycle(4)
    assert board_from_obj(board_to_obj(plain)) == plain
    with pytest.raises(ValueError):
        board_from_obj({"vertices": [0]})


def test_board_dot_output():
    text = board_to_dot(build_path(2))
    assert "graph board {" in text and "0 -- 1;" in text

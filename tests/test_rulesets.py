from __future__ import annotations

import random
from itertools import product

import pytest

from spg.boards import (
    board,
    build_cycle,
    build_grid,
    build_path,
    disjoint_union,
    placement,
)
from spg.complexes import empty_face_complex, from_facets, void_complex
from spg.engine import analyze
from spg.rulesets import (
    _covered_names,
    col,
    cycle_placement_game,
    domineering,
    free_placement,
    gamma_game,
    id_sets,
    nogo,
    ruleset_descriptor,
    snort,
    table_game_illegal,
    table_game_legal,
)
from conftest import connected_boards, judge


AB_BC = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "L", "c": "R"})
P3_GAMMA = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "R", "c": "L"})


def L(*vs):
    return placement("L", vs)


def R(*vs):
    return placement("R", vs)


def test_every_builtin_accepts_the_empty_position():
    b = build_path(3)
    for game in (free_placement(), snort(), col(), nogo()):
        assert judge(game, b)
    assert judge(domineering(), build_grid(2, 2))


def test_snort_truth_table():
    game = snort()
    b = build_path(2)
    assert judge(game, b, L(0), L(1))
    assert judge(game, b, R(0), R(1))
    assert not judge(game, b, L(0), R(1))
    assert judge(game, b, L(0))


def test_col_truth_table():
    game = col()
    b = build_path(3)
    assert not judge(game, b, L(0), L(1))
    assert judge(game, b, L(0), R(1))
    assert judge(game, b, L(0), L(2))


def test_nogo_liberty_rule():
    game = nogo()
    b = build_path(3)
    assert judge(game, b, L(0))
    assert judge(game, b, L(0), L(1))
    assert not judge(game, b, L(0), L(1), L(2))
    # a surrounded single stone has no liberty even though its captors do
    assert not judge(game, b, L(0), R(1), L(2))
    lonely = disjoint_union(build_path(2), build_path(1))
    assert not judge(game, lonely, L(2))


# Each game's rule on vertex sets, written out for the reference test below


def snort_rule(b, stones) -> bool:
    return not any(w in stones["R"] for v in stones["L"] for w in b.neighbors(v))


def col_rule(b, stones) -> bool:
    return not any(w in own for own in stones.values() for v in own for w in b.neighbors(v))


def nogo_rule(b, stones) -> bool:
    """NoGo's rule group by group: every component of a player's stones
    needs an empty neighbour."""
    occupied = stones["L"] | stones["R"]
    for own in stones.values():
        seen: set = set()
        for v in own:
            if v in seen:
                continue
            group, todo = {v}, [v]
            while todo:
                for w in b.neighbors(todo.pop()):
                    if w in own and w not in group:
                        group.add(w)
                        todo.append(w)
            seen |= group
            if not any(w not in occupied for u in group for w in b.neighbors(u)):
                return False
    return True


def _colourings():
    """Every L/R/empty colouring of every connected board on 1-4 vertices,
    then 200 seeded colourings of each larger board: the 3x3 grid, the 3x4
    grid (24 placements, so a predicate's masks span three bytes) and the
    17-vertex path (34 placements, and three bytes of vertices)."""
    for n in range(1, 5):
        for b in connected_boards(n):
            for colours in product("LR.", repeat=n):
                yield b, colours
    rng = random.Random(5)
    for b in (build_grid(3, 3), build_grid(3, 4), build_path(17)):
        for _ in range(200):
            yield b, [rng.choice("LR.") for _ in b.vertices]


@pytest.mark.parametrize(
    "game, rule", [(snort, snort_rule), (col, col_rule), (nogo, nogo_rule)],
    ids=["snort", "col", "nogo"],
)
def test_matches_reference_rule(game, rule):
    """One predicate per board over a stone of each player on each vertex,
    compiled over Left's stones then Right's, and again over a seeded shuffle
    of them, so no predicate may rely on where a player's placements sit."""
    rng = random.Random(11)
    compiled = {}  # per board: (placements, predicate over them) per order
    for b, colours in _colourings():
        if b not in compiled:
            blocks = [placement(c, [v]) for c in "LR" for v in b.vertices]
            shuffled = rng.sample(blocks, len(blocks))
            compiled[b] = [(order, game().legal(b, order)) for order in (blocks, shuffled)]
        at = dict(zip(b.vertices, colours))
        stones = {p: {v for v, c in zip(b.vertices, colours) if c == p} for p in "LR"}
        for order, predicate in compiled[b]:
            mask = sum(1 << i for i, p in enumerate(order) if all(at[v] == p.player for v in p.occupied))
            assert predicate(mask) == rule(b, stones), (b.edges, colours, order)


def _random_connected_board(rng: random.Random, n: int):
    """A random spanning tree on 0..n-1 (n >= 2) plus up to n/2 random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n // 2)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return board(range(n), sorted(edges))


def reference_closure(b, placements) -> tuple[set[int], set[int]]:
    """The maximal legal and minimal illegal sets of NoGo over
    ``placements``, one size at a time from the empty set.  A set is legal
    when its placements are disjoint, ``nogo_rule`` accepts them and every
    one-smaller subset is legal, and minimal illegal when it is not legal
    but every one-smaller subset is.  Either kind stays a legal set when its
    last placement is dropped, so each is reached once, from that set."""
    m = len(placements)
    legal = {0: (frozenset(), frozenset())}  # legal set -> Left's and Right's stones
    minimal, level = set(), [0]
    while level:
        nxt = []
        for s in level:
            left, right = legal[s]
            members = [j for j in range(m) if s >> j & 1]
            for i in range(s.bit_length(), m):
                t, p = s | 1 << i, placements[i]
                if any(t ^ 1 << j not in legal for j in members):
                    continue
                stones = {"L": left, "R": right}
                stones[p.player] = stones[p.player] | p.occupied
                if not p.occupied & (left | right) and nogo_rule(b, stones):
                    legal[t] = stones["L"], stones["R"]
                    nxt.append(t)
                else:
                    minimal.add(t)
        level = nxt
    maximal = {s for s in legal if not any(s | 1 << i in legal for i in range(m) if not s >> i & 1)}
    return maximal, minimal


def test_nogo_analysis_matches_reference_closure():
    rng = random.Random(23)
    for n in range(2, 13):
        b = _random_connected_board(rng, n)
        a = analyze(nogo(), b)
        want_max, want_min = reference_closure(b, a.index.placements)
        assert a.maximal_masks == want_max, b.edges
        assert a.minimal_masks == want_min, b.edges


def test_domineering_orientations():
    game = domineering()
    b = build_grid(2, 2)  # ids: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3
    assert judge(game, b, L(0, 2))
    assert not judge(game, b, L(0, 1))
    assert judge(game, b, R(0, 1))
    assert not judge(game, b, R(0, 2))
    assert judge(game, b, L(0, 2), R(1, 3)) is False  # R(1,3) is vertical
    with pytest.raises(ValueError):
        judge(game, build_path(2), L(0, 1))


@pytest.fixture
def table_board():
    # one triangle per L-vertex (a, b), one square for the R-vertex (c)
    return disjoint_union(build_cycle(3), build_cycle(3), build_cycle(4))


def test_table_game_legal_names_faces(table_board):
    game = table_game_legal(AB_BC)
    a, b, c = L(0, 1, 2), L(3, 4, 5), R(6, 7, 8, 9)
    assert judge(game, table_board)
    assert judge(game, table_board, a, b)
    assert judge(game, table_board, b, c)
    assert not judge(game, table_board, a, c)
    assert not judge(game, table_board, a, b, c)
    # a placement that covers no labelled cycle exactly is illegal
    assert not judge(game, table_board, L(0, 1, 3))


@pytest.mark.parametrize(
    "brd, placements, names",
    [
        # triangles and squares beyond the complex's L- and R-vertices name
        # nothing
        (
            disjoint_union(*(build_cycle(3) for _ in range(3)), build_cycle(4), build_cycle(4)),
            [L(0, 1, 2), L(3, 4, 5), L(6, 7, 8), R(9, 10, 11, 12), R(13, 14, 15, 16)],
            ["a", "b", None, "c", None],
        ),
        # a triangle with a pendant vertex is a component of four vertices
        # that is no cycle: neither its triangle nor all of it names anything
        (
            board(range(11), [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (9, 10), (7, 10)]),
            [L(0, 1, 2), R(0, 1, 2, 3), L(4, 5, 6), R(7, 8, 9, 10)],
            [None, None, "a", "c"],
        ),
        # cycles listed out of id order are named by their smallest ids
        (
            board(range(10), [(4, 6), (6, 8), (8, 7), (7, 4), (3, 1), (1, 2), (2, 3), (9, 5), (5, 0), (0, 9)]),
            [L(1, 2, 3), L(0, 5, 9), R(4, 6, 7, 8)],
            ["b", "a", "c"],
        ),
    ],
    ids=["extra-cycles", "triangle-in-a-larger-component", "ids-out-of-order"],
)
def test_table_games_name_cycle_components(brd, placements, names):
    assert _covered_names(brd, placements, AB_BC) == names


def test_table_game_illegal_avoids_facets(table_board):
    game = table_game_illegal(AB_BC)
    a, b, c = L(0, 1, 2), L(3, 4, 5), R(6, 7, 8, 9)
    assert judge(game, table_board)
    assert not judge(game, table_board, a, b)
    assert not judge(game, table_board, b, c)
    assert judge(game, table_board, a, c)
    assert not judge(game, table_board, L(0, 1, 3))


def test_cycle_placement_game_is_unrestricted(table_board):
    game = cycle_placement_game()
    assert game.claims_invariant
    assert judge(game, table_board, L(0, 1, 2), R(6, 7, 8, 9))


def test_id_sets_default_labeling():
    ids = id_sets(P3_GAMMA)
    assert [(sorted(facet), sorted(distances)) for facet, distances in ids] == [
        (["a", "b"], [2]),
        (["b", "c"], [3]),
    ]


def test_id_set_size_validation():
    with pytest.raises(ValueError):
        id_sets(from_facets([["a"]], {"a": "L"}))


def test_gamma_game_forbids_exact_distance_patterns():
    game = gamma_game(P3_GAMMA)
    b = build_path(6)
    assert judge(game, b)
    assert judge(game, b, L(0), R(1))  # distance 1 matches no id-set
    assert not judge(game, b, L(0), R(2))  # distance 2 is facet ab
    assert not judge(game, b, L(0), R(3))  # distance 3 is facet bc
    assert judge(game, b, L(0), R(4))
    # three pieces: illegal already because a pair matches
    assert not judge(game, b, L(0), R(2), L(5))


def test_gamma_game_degenerate_inputs():
    assert gamma_game(void_complex()).name == "free"
    assert gamma_game(empty_face_complex()).name == "free"
    lonely = from_facets([["a"], ["b", "c"]], {v: "L" for v in "abc"})
    with pytest.raises(ValueError, match="'a'"):
        gamma_game(lonely)


def test_gamma_game_piece_sizes():
    game = gamma_game(P3_GAMMA)
    lp, rp = game.pieces["L"], game.pieces["R"]
    assert len(lp.vertices) == 3**4 + 4 + 2 * (3**3 - 1)
    assert len(rp.vertices) == 3**4 + 5 + 2 * (3**3 - 1)


def test_ruleset_descriptor_shape():
    desc = ruleset_descriptor(snort())
    assert desc["name"] == "snort"
    assert desc["claims_invariant"] is True
    assert desc["pieces"]["L"] == [{"vertices": [0], "edges": []}]
    table = ruleset_descriptor(table_game_legal(AB_BC))
    assert len(table["pieces"]["R"][0]["vertices"]) == 4

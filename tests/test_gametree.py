from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice
from pathlib import Path

import pytest

import spg.gametree
from spg.boards import build_cycle, build_grid, build_path, disjoint_union
from spg.complexes import (
    empty_face_complex,
    faces,
    from_facets,
    independence_complex,
    mask_components,
    relabel,
    void_complex,
)
from spg.engine import legal_complex
from spg.gametree import (
    ZERO,
    CanonicalValue,
    _as_int,
    _mk,
    build_tree,
    canonical_value,
    fold,
    game_add,
    le,
    legal_iso_iff_tree_iso,
    make_value,
    outcome,
    outcome_of_value,
    tree_to_dot,
    trees_isomorphic,
    value_str,
)
from spg.rulesets import col, domineering, nogo, snort
from conftest import (
    all_labeled_complexes, connected_boards, node_count_oracle, part_assignments, random_complex,
)


def value_of_moves(_: int, moves: list) -> CanonicalValue:
    """The plain fold's combine: one :func:`make_value` per face, from the
    values of the faces one move further; the reference for the value walk."""
    left = [g for label, _, g in moves if label == "L"]
    right = [g for label, _, g in moves if label == "R"]
    return make_value(left, right)


LSHAPE_DELTA = from_facets(
    [["x1", "y3"], ["x2"]], {"x1": "L", "x2": "L", "y3": "R"}
)


def outcome_oracle(delta) -> str:
    """Alternating-play minimax straight over the face poset."""
    face_set = faces(delta)

    @lru_cache(maxsize=None)
    def wins(face: frozenset, player: str) -> bool:
        nxt = "R" if player == "L" else "L"
        moves = [
            v
            for v in delta.vertices
            if delta.part[v] == player and v not in face and face | {v} in face_set
        ]
        return any(not wins(face | {v}, nxt) for v in moves)

    lw, rw = wins(frozenset(), "L"), wins(frozenset(), "R")
    if lw and rw:
        return "N"
    if not lw and not rw:
        return "P"
    return "L" if lw else "R"


def test_tree_nodes_count_move_sequences():
    assert build_tree(LSHAPE_DELTA) is LSHAPE_DELTA
    assert LSHAPE_DELTA.node_count == 6
    full = from_facets([["a", "b", "c"]], {v: "L" for v in "abc"})
    assert full.node_count == 1 + 3 + 6 + 6


def test_tree_degenerate_inputs():
    assert void_complex().node_count == 1
    assert empty_face_complex().node_count == 1
    calls = []
    fold(void_complex(), lambda mask, moves: calls.append((mask, moves)))
    assert calls == [(0, [])]


def test_tree_counts_match_oracle_on_corpus():
    for delta in all_labeled_complexes("abc"):
        assert delta.node_count == node_count_oracle(delta), delta


def test_tree_children_are_sorted_moves():
    root = fold(LSHAPE_DELTA, lambda _, moves: [(p, v) for p, v, _ in moves])
    assert root == [("L", "x1"), ("L", "x2"), ("R", "y3")]


@dataclass(frozen=True, eq=False)
class NodeTree:
    """A node object per face, built without :func:`fold`."""

    face: frozenset
    children: tuple

    @cached_property
    def node_count(self) -> int:
        return 1 + sum(child.node_count for _, _, child in self.children)


def node_tree(delta) -> NodeTree:
    moves = [(1 << i, delta.part[v], v) for i, v in enumerate(delta.vertices)]
    nodes: dict[int, NodeTree] = {}
    for mask in sorted(delta.face_masks, key=int.bit_count, reverse=True):
        kids = tuple(
            (label, v, nodes[mask | b]) for b, label, v in moves if not mask & b and mask | b in nodes
        )
        nodes[mask] = NodeTree(delta.face_names(mask), kids)
    return nodes[0] if nodes else NodeTree(frozenset(), ())


def assert_fold_matches_nodes(delta) -> None:
    """The fold visits the faces of ``node_tree``, with the same moves in
    order, and the tree counts the nodes of its unfolding."""
    root = node_tree(delta)
    stack, seen = [root], {}
    while stack:
        node = stack.pop()
        if node.face not in seen:
            seen[node.face] = node
            stack.extend(child for _, _, child in node.children)
    assert len(seen) == max(len(delta.face_masks), 1)
    assert delta.node_count == root.node_count, delta
    # the fold combines every face exactly once, after every face one vertex
    # larger, with its moves in vertex order
    combined: set = set()

    def record(mask: int, moves: list) -> frozenset:
        face = delta.face_names(mask)
        assert face not in combined, delta
        node = seen[face]
        assert [m[:2] for m in moves] == [m[:2] for m in node.children], delta
        assert [m[2] for m in moves] == [child.face for _, _, child in node.children], delta
        assert all(child.face in combined for _, _, child in node.children), delta
        combined.add(face)
        return face

    assert fold(delta, record) == frozenset()
    assert combined == set(seen), delta


def test_tree_fold_matches_node_trees():
    for delta in all_labeled_complexes("abcd"):
        assert_fold_matches_nodes(delta)
    rng = random.Random(2024)
    for _ in range(100):
        assert_fold_matches_nodes(random_complex(rng, 6))


def differential_complexes():
    """Every labeled complex on at most four vertices, 200 seeded random
    complexes on at most seven, and the legal complexes of snort on path:10,
    col on cycle:10, nogo on grid:3x3 and domineering on grid:3x4."""
    yield from all_labeled_complexes("abcd")
    rng = random.Random(31)
    for _ in range(200):
        yield random_complex(rng, 7)
    for game, b, cap in ((snort(), build_path(10), 24), (col(), build_cycle(10), 24),
                         (nogo(), build_grid(3, 3), 24), (domineering(), build_grid(3, 4), 40)):
        yield legal_complex(game, b, cap=cap)


def test_f_vector_counts_the_listed_faces():
    for delta in differential_complexes():
        sizes = [0] * (len(delta.vertices) + 1)
        for face in delta.face_masks:
            sizes[bin(face).count("1")] += 1
        while sizes and not sizes[-1]:
            sizes.pop()
        assert delta.f_vector == tuple(sizes), delta


def pull_fold(delta, combine):
    """The fold as each face pulling its children's results: every vertex is
    tried as a move from every face, and a move lands when the face one
    vertex larger has a result."""
    moves = [(1 << i, delta.part[v], v) for i, v in enumerate(delta.vertices)]
    done: dict = {}
    for face in sorted(delta.face_masks or [0], reverse=True):
        done[face] = combine(face, [(label, v, done[face | b]) for b, label, v in moves
                                    if not face & b and face | b in done])
    return done[0]


def combine_calls(walk, delta) -> list:
    """The ``(mask, moves)`` of every combine call of ``walk``, in order,
    each face's result being its mask."""
    calls: list = []
    assert walk(delta, lambda mask, moves: calls.append((mask, moves)) or mask) == 0
    return calls


def test_fold_calls_match_a_pull_style_fold():
    for delta in differential_complexes():
        assert combine_calls(fold, delta) == combine_calls(pull_fold, delta), delta


def test_trees_isomorphic_under_relabel():
    mapping = {"x1": "a", "x2": "b", "y3": "c"}
    other = relabel(LSHAPE_DELTA, mapping)
    assert trees_isomorphic(LSHAPE_DELTA, other)


def test_trees_not_isomorphic_when_parts_swap():
    one = from_facets([["a"]], {"a": "L"})
    other = from_facets([["a"]], {"a": "R"})
    assert not trees_isomorphic(one, other)


def test_tree_dot_output():
    text = tree_to_dot(LSHAPE_DELTA)
    assert "digraph tree {" in text
    assert "color=blue" in text and "color=red" in text


def test_tree_dot_is_the_shared_dag():
    delta = legal_complex(snort(), build_path(4))
    lines = tree_to_dot(delta).splitlines()
    face_set = faces(delta)
    assert sum("tooltip=" in line for line in lines) == len(face_set)
    # every nonempty face F is reached by one move from each of its |F| subfaces
    assert sum("->" in line for line in lines) == sum(len(f) for f in face_set)


def test_values_are_interned():
    assert make_value([], []) is ZERO
    one = make_value([ZERO], [])
    assert one is make_value([ZERO], [])
    assert value_str(one) == "1"


def test_value_str_shorthands():
    zero = ZERO
    one = make_value([zero], [])
    two = make_value([one], [])
    neg_one = make_value([], [zero])
    neg_two = make_value([], [neg_one])
    star = make_value([zero], [zero])
    assert value_str(two) == "2"
    assert value_str(neg_two) == "-2"
    assert value_str(star) == "*"
    assert value_str(make_value([one], [neg_one])) == "+-1"
    assert value_str(make_value([two], [neg_two])) == "+-2"
    assert value_str(make_value([zero], [one])) == "{0|1}"


def unmemoised_value_str(g):
    """The printing rule of ``value_str``, recursing into every option anew."""
    n = _as_int(g)
    if n is not None:
        return str(n)
    if g.left == (ZERO,) and g.right == (ZERO,):
        return "*"
    if len(g.left) == 1 and len(g.right) == 1:
        a, b = _as_int(g.left[0]), _as_int(g.right[0])
        if a is not None and b is not None and a == -b and a > 0:
            return f"+-{a}"
    left = ",".join(sorted(unmemoised_value_str(x) for x in g.left))
    right = ",".join(sorted(unmemoised_value_str(x) for x in g.right))
    return f"{{{left}|{right}}}"


def test_value_str_of_shared_options_matches_unmemoised_printing():
    # each value's options are the two values before it: 20 values, but
    # thousands of paths from the last one down to 0
    chain = [ZERO, make_value([ZERO], [])]
    for _ in range(18):
        chain.append(_mk([chain[-1], chain[-2]], [chain[-2]]))
    assert value_str(chain[-1]) == unmemoised_value_str(chain[-1])
    for n in range(2, 9):
        g = canonical_value(legal_complex(snort(), build_path(n)))
        assert value_str(g) == unmemoised_value_str(g)


def test_value_str_sorts_options_by_printed_form():
    # ZERO is interned first of all values, so its options list it before *,
    # which prints first
    star = make_value([ZERO], [ZERO])
    up_star = make_value([ZERO, star], [ZERO])
    assert up_star.left == (ZERO, star)
    assert value_str(up_star) == "{*,0|0}"


_SNORT_PATH10 = """
from spg.boards import build_path
from spg.engine import legal_complex
from spg.gametree import canonical_value, fold, make_value, value_str
from spg.rulesets import snort
delta = legal_complex(snort(), build_path(10))
if {fold_first}:
    fold(delta, lambda _, moves: make_value(
        [g for label, _, g in moves if label == "L"], [g for label, _, g in moves if label == "R"]))
print(value_str(canonical_value(delta)))
"""


def test_printed_value_does_not_depend_on_history():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    printed = []
    for fold_first in (False, True):
        proc = subprocess.run(
            [sys.executable, "-c", _SNORT_PATH10.format(fold_first=fold_first)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert printed[0] == printed[1]


def test_le_basic_order():
    zero = ZERO
    one = make_value([zero], [])
    star = make_value([zero], [zero])
    assert le(zero, one) and not le(one, zero)
    assert le(zero, zero)
    assert not le(star, zero) and not le(zero, star)  # confused with zero


def test_canonical_form_removes_dominated_and_reversible():
    zero = ZERO
    one = make_value([zero], [])
    # {0, 1 | } keeps only the dominant left option
    g = make_value([zero, one], [])
    assert g is make_value([one], [])
    # *: {0 | 0}; adding a dominated copy changes nothing
    star = make_value([zero], [zero])
    assert make_value([zero, zero], [zero]) is star


def test_game_add_identities():
    zero = ZERO
    one = make_value([zero], [])
    neg_one = make_value([], [zero])
    star = make_value([zero], [zero])
    assert game_add(zero, one) is one
    assert game_add(one, neg_one) is zero
    assert game_add(star, star) is zero
    assert outcome_of_value(game_add(star, star)) == "P"


def test_lshape_value_and_outcome():
    v = canonical_value(LSHAPE_DELTA)
    assert value_str(v) == "{0|1}"
    # the value is a positive fraction, so Left wins regardless of who starts
    assert outcome(LSHAPE_DELTA) == "L"
    assert outcome(LSHAPE_DELTA) == outcome_oracle(LSHAPE_DELTA)


def test_snort_value_on_p2():
    delta = legal_complex(snort(), build_path(2))
    assert value_str(canonical_value(delta)) == "+-1"
    assert outcome(delta) == "N"


def test_disjoint_union_value_is_the_sum():
    v2 = canonical_value(legal_complex(snort(), build_path(2)))
    union = disjoint_union(build_path(2), build_path(2))
    whole = canonical_value(legal_complex(snort(), union))
    assert whole is game_add(v2, v2)


def reference_value(delta):
    """Canonical value by recursion over the face poset, by vertex names."""
    face_set = faces(delta)
    memo = {}

    def val(face):
        if face not in memo:
            moves = [v for v in delta.vertices if v not in face and face | {v} in face_set]
            memo[face] = make_value(
                [val(face | {v}) for v in moves if delta.part[v] == "L"],
                [val(face | {v}) for v in moves if delta.part[v] == "R"],
            )
        return memo[face]

    return val(frozenset())


def test_canonical_value_matches_face_walk():
    rng = random.Random(7)
    corpus = all_labeled_complexes("abcd") + [random_complex(rng, 6) for _ in range(100)]
    for delta in corpus:
        want = reference_value(delta)
        got = canonical_value(delta)
        assert got is want, delta
        assert value_str(got) == value_str(want)


def graph_complexes(vertices, edges):
    """The independence complex of a graph under every L/R split."""
    for part in part_assignments(vertices):
        yield independence_complex(vertices, edges, part)


def assert_factor_path_matches(delta) -> None:
    assert delta.flag_conflicts is not None, delta
    got = canonical_value(delta)
    assert got is fold(delta, value_of_moves), delta
    assert got is reference_value(delta), delta


def test_factor_path_matches_fold_on_small_graphs():
    for n in range(5):
        verts = "abcd"[:n]
        pairs = list(combinations(verts, 2))
        for chosen in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if chosen >> i & 1]
            for delta in graph_complexes(verts, edges):
                assert_factor_path_matches(delta)


def test_factor_path_matches_fold_on_random_graphs():
    rng = random.Random(13)
    disconnected = 0
    for _ in range(60):
        n = rng.randint(5, 10)
        verts = [f"v{i}" for i in range(n)]
        p = rng.choice((0.15, 0.3, 0.5))
        edges = [e for e in combinations(verts, 2) if rng.random() < p]
        part = {v: rng.choice("LR") for v in verts}
        delta = independence_complex(verts, edges, part)
        conflict = delta.flag_conflicts
        disconnected += len(mask_components(conflict, (1 << n) - 1)) > 1
        assert_factor_path_matches(delta)
    assert disconnected >= 10


def test_non_flag_complex_takes_the_fold():
    hollow = from_facets([["a", "b"], ["b", "c"], ["a", "c"]], {"a": "L", "b": "R", "c": "L"})
    assert hollow.flag_conflicts is None
    got = canonical_value(hollow)
    assert got is fold(hollow, value_of_moves)
    assert got is reference_value(hollow)
    # seeded random complexes on up to 6 vertices, kept when not flag
    rng = random.Random(17)
    checked = 0
    while checked < 150:
        vs = [f"v{i}" for i in range(rng.randint(3, 6))]
        family = [rng.sample(vs, rng.randint(2, len(vs) - 1)) for _ in range(rng.randint(2, 2 * len(vs)))]
        delta = from_facets(family, {v: rng.choice("LR") for v in vs})
        if delta.flag_conflicts is None:
            assert canonical_value(delta) is reference_value(delta), delta
            checked += 1


def test_orbit_walk_matches_the_plain_fold():
    """A complex that is not flag is valued one face per orbit of its
    automorphisms; every value is the plain fold's, by identity.  The nogo
    boards are every connected board up to 5 vertices, every 250th one on 6
    vertices, and two symmetric boards (8 and 20 automorphisms)."""
    rng = random.Random(30)
    corpus = all_labeled_complexes("abcd") + [random_complex(rng, 7) for _ in range(200)]
    boards = [b for n in range(1, 6) for b in connected_boards(n)]
    boards += islice(connected_boards(6), 0, None, 250)
    boards += [build_grid(3, 3), build_cycle(10)]
    corpus += [legal_complex(nogo(), b) for b in boards]
    for delta in corpus:
        assert canonical_value(delta) is fold(delta, value_of_moves), delta


def test_orbit_walk_draws_at_most_one_map_per_vertex(monkeypatch):
    """All 3-subsets of 6 L and 6 R vertices have 6!·6! = 518,400
    automorphisms; the walk draws at most |V| = 12 of them."""
    drawn = []

    def counted(a, b, **kwargs):
        for image in spg.complexes._isomorphisms(a, b, **kwargs):
            drawn.append(image)
            yield image

    monkeypatch.setattr(spg.gametree, "_isomorphisms", counted)
    names = [f"l{i}" for i in range(6)] + [f"r{i}" for i in range(6)]
    delta = from_facets(combinations(names, 3), {v: v[0].upper() for v in names})
    assert canonical_value(delta) is fold(delta, value_of_moves)
    assert 1 < len(drawn) <= len(delta.vertices) == 12


def test_orbit_walk_bounds_the_automorphism_search():
    """The complements of the blocks of the cyclic Steiner triple system on
    13 points: every vertex pair shares as many facets, and a facet's last
    vertex is one of the last three, so the search prunes little: unbounded,
    it found no second automorphism in 30 s.  It stops after as many
    candidate tests as the complex has faces, and the value is the plain
    fold's."""
    blocks = {frozenset((x + s) % 13 for x in base) for base in ((0, 1, 4), (0, 2, 7)) for s in range(13)}
    names = [f"p{i:02d}" for i in range(13)]
    delta = from_facets([[names[i] for i in range(13) if i not in b] for b in blocks], dict.fromkeys(names, "L"))
    assert len(delta.facets) == 26
    assert canonical_value(delta) is fold(delta, value_of_moves)


@pytest.mark.parametrize("game", [snort(), col()], ids=lambda g: g.name)
def test_self_dual_games_cancel(game):
    """Snort and col are their own colour swap, so every position G equals
    -G: G + G is 0, and so is the game on two copies of one board."""
    for n in range(1, 5):
        for b in connected_boards(n):
            v = canonical_value(legal_complex(game, b))
            assert game_add(v, v) is ZERO, b
            assert canonical_value(legal_complex(game, disjoint_union(b, b))) is ZERO, b


def test_canonical_value_ignores_vertex_names():
    other = relabel(LSHAPE_DELTA, {"x1": "p", "x2": "q", "y3": "r"})
    assert canonical_value(other) is canonical_value(LSHAPE_DELTA)


def test_outcomes_match_minimax_oracle_small():
    for delta in all_labeled_complexes("abc"):
        assert outcome(delta) == outcome_oracle(delta), delta


def test_outcomes_match_minimax_oracle_random():
    rng = random.Random(11)
    for _ in range(30):
        delta = random_complex(rng, max_vertices=5)
        assert outcome(delta) == outcome_oracle(delta), delta


def test_iso_agreement_report():
    other = relabel(LSHAPE_DELTA, {"x1": "a", "x2": "b", "y3": "c"})
    rep = legal_iso_iff_tree_iso(LSHAPE_DELTA, other)
    assert rep.complexes_isomorphic and rep.trees_isomorphic and rep.agree
    different = from_facets([["a"]], {"a": "L"})
    rep2 = legal_iso_iff_tree_iso(LSHAPE_DELTA, different)
    assert not rep2.complexes_isomorphic and not rep2.trees_isomorphic and rep2.agree


def test_worked_examples_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "worked_examples.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    snort_part = out[out.index("== snort on a 4-path =="):out.index("== col on a 4-path ==")]
    col_part = out[out.index("== col on a 4-path =="):]
    assert "value: {{2|1}|{-1|-2}}   outcome: N" in snort_part
    assert "value: 0   outcome: P" in col_part

"""End-to-end acceptance checks, one numbered criterion per test.

Each test is tagged with the ``acceptance`` marker; the terminal summary
prints one PASS/FAIL line per criterion.  Budgets are asserted with the
wall-clock limits the checks are required to meet.
"""
from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from spg.boards import build_cycle, build_path, disjoint_union
from spg.complexes import (
    are_isomorphic,
    empty_face_complex,
    faces,
    from_facets,
    independence_complex,
    minimal_nonfaces,
    relabel,
    sr_ideal,
    void_complex,
)
from spg.construct import realize_legal, to_independence, to_invariant, verify_roundtrip
from spg.engine import (
    analyze,
    check_invariance,
    illegal_complex,
    legal_complex,
)
from spg.gametree import canonical_value, legal_iso_iff_tree_iso, trees_isomorphic
from spg.rulesets import col, domineering, nogo, snort

from conftest import (
    all_labeled_complexes,
    antichains,
    connected_boards,
    degree_one_game,
    node_count_oracle,
    random_complex,
)


def fs(*names: str) -> frozenset[str]:
    return frozenset(names)


@pytest.mark.acceptance(criterion=1, title="domineering ideals on the L-shaped board")
def test_criterion_1_domineering_ideals(lshape_board):
    t0 = time.perf_counter()
    a = analyze(domineering(), lshape_board)
    legal, illegal = a.legal_ideal(), a.illegal_ideal()
    assert legal.generators == {fs("x1", "y3"), fs("x2")}
    assert illegal.generators == {
        fs("x1", "x2"),
        fs("x2", "y3"),
        fs("x3"),
        fs("y1"),
        fs("y2"),
    }
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(criterion=2, title="nogo on the 3-path: nine minimal illegal positions")
def test_criterion_2_nogo_facets():
    t0 = time.perf_counter()
    gamma = illegal_complex(nogo(), build_path(3))
    assert gamma.facets == {
        fs("x1", "x2", "x3"),
        fs("y1", "y2", "y3"),
        # overlaps on each vertex
        fs("x1", "y1"),
        fs("x2", "y2"),
        fs("x3", "y3"),
        # a lone stone smothered by its opposite-colour neighbour(s)
        fs("x1", "y2"),
        fs("x2", "y1"),
        fs("x2", "y3"),
        fs("x3", "y2"),
    }
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(criterion=3, title="degree-one fixture: illegal complexes isomorphic")
def test_criterion_3_illegal_complexes_isomorphic():
    game = degree_one_game()
    g2 = illegal_complex(game, build_path(2))
    g3 = illegal_complex(game, build_path(3))
    # On the 2-path every stone sits on a degree-1 vertex, so the minimal
    # illegal positions are exactly the four lone stones.  The 3-path keeps
    # four lone stones (both ends, both players) and adds the two-piece
    # overlap on its middle vertex: a 0-dimensional complex versus one with
    # an edge.  are_isomorphic needs a facet bijection, so this assertion
    # fails; it is kept in this form deliberately (see README, known
    # failures).
    assert are_isomorphic(g2, g3) is not None


@pytest.mark.acceptance(criterion=3, title="degree-one fixture: legal sides and trees differ")
def test_criterion_3_legal_sides_differ():
    t0 = time.perf_counter()
    game = degree_one_game()
    d2 = legal_complex(game, build_path(2))
    d3 = legal_complex(game, build_path(3))
    assert d2 == empty_face_complex()
    assert d3 == from_facets([["x2"], ["y2"]], {"x2": "L", "y2": "R"})
    assert are_isomorphic(d2, d3) is None
    assert not trees_isomorphic(d2, d3)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(criterion=4, title="table games recover every complex on ≤4 vertices")
def test_criterion_4_table_roundtrip_exhaustive():
    t0 = time.perf_counter()
    corpus = all_labeled_complexes(("a", "b", "c", "d"))
    assert len(corpus) == 2170  # 2 degenerates + 166 facet families x bipartitions
    for delta in corpus:
        report = verify_roundtrip("both", delta)
        assert report.passed, f"{delta!r}: {report.detail}"
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.acceptance(criterion=5, title="distance game recovers labeled-path and edge targets")
def test_criterion_5_illegal_roundtrips():
    t0 = time.perf_counter()
    path_gamma = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "R", "c": "L"})
    report = verify_roundtrip("illegal", path_gamma, time_cap_s=600.0)
    assert report.passed, report.detail
    assert report.computed == path_gamma

    edge = from_facets([["a", "b"]], {"a": "L", "b": "R"})
    report = verify_roundtrip("illegal", edge, time_cap_s=600.0)
    assert report.passed, report.detail
    # n=2: a 20-cycle piece against a 21-cycle piece, 56 board vertices
    assert "56 vertices" in report.detail
    assert time.perf_counter() - t0 < 1200.0


@pytest.mark.acceptance(criterion=6, title="legal construction recovers chain and simplex targets")
def test_criterion_6_legal_roundtrips():
    t0 = time.perf_counter()
    chain = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "L", "c": "R"})
    report = verify_roundtrip("legal", chain, time_cap_s=600.0)
    assert report.passed, report.detail
    assert report.computed == chain
    # b lies in every facet and rides along on a free component of its own
    assert realize_legal(chain).provenance == "distance-game+free-components"

    simplex = from_facets([["a", "b", "c"]], {"a": "L", "b": "R", "c": "L"})
    report = verify_roundtrip("legal", simplex, time_cap_s=600.0)
    assert report.passed, report.detail
    rep = realize_legal(simplex)
    assert illegal_complex(rep.game, rep.board) == void_complex()
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.acceptance(criterion=7, title="invariant re-realization preserves tree and value")
def test_criterion_7_invariant_rerealization(lshape_board):
    t0 = time.perf_counter()
    original = legal_complex(domineering(), lshape_board)
    rep = to_invariant(domineering(), lshape_board)
    assert rep.game.claims_invariant
    recovered = legal_complex(rep.game, rep.board)
    assert trees_isomorphic(original, recovered)
    assert canonical_value(original) is canonical_value(recovered)
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.acceptance(criterion=8, title="tree isomorphism tracks complex isomorphism")
def test_criterion_8_iso_agreement():
    t0 = time.perf_counter()
    # exhaustive on <=3 vertices; the void complex is excluded from the
    # pairwise sweep because its tree (a bare root: the empty position is
    # always reachable) coincides with the tree of the empty-face complex
    # while the complexes themselves share no facet bijection
    corpus = [c for c in all_labeled_complexes(("a", "b", "c")) if not c.is_void]
    assert void_complex().node_count == 1
    for delta in corpus:
        assert delta.node_count == node_count_oracle(delta)
    for d1, d2 in combinations(corpus, 2):
        rep = legal_iso_iff_tree_iso(d1, d2)
        assert rep.agree, (d1, d2)

    rng = random.Random(20260814)
    previous = None
    for _ in range(200):
        delta = random_complex(rng, max_vertices=6)
        assert delta.node_count == node_count_oracle(delta)
        names = list(delta.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        twin = relabel(delta, dict(zip(names, shuffled)))
        assert trees_isomorphic(delta, twin)
        if previous is not None:
            assert legal_iso_iff_tree_iso(previous, delta).agree
        previous = delta
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.acceptance(criterion=9, title="facet and nonface dualities on ≤5 vertices")
def test_criterion_9_dualities_exhaustive():
    from spg.complexes import facet_complex, facet_ideal, sr_complex

    t0 = time.perf_counter()
    vs = ("a", "b", "c", "d", "e")
    families = antichains(vs)
    assert len(families) == 7580
    corpus = [empty_face_complex()]
    for fam in families:
        used = sorted(set().union(*fam)) if fam else []
        corpus.append(from_facets(fam, {v: "L" for v in used}))
    for delta in corpus:
        assert facet_complex(facet_ideal(delta)) == delta
        assert sr_complex(sr_ideal(delta)) == delta
        # independent route: a minimal nonface is a nonface all of whose
        # one-smaller subsets are faces
        face_set = faces(delta)
        expected = frozenset(
            frozenset(combo)
            for size in range(len(delta.vertices) + 1)
            for combo in combinations(delta.vertices, size)
            if frozenset(combo) not in face_set
            and all(frozenset(combo) - {x} in face_set for x in combo)
        )
        assert minimal_nonfaces(delta) == expected
        assert sr_ideal(delta).generators == expected
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.acceptance(criterion=10, title="snort and col are independence games on small boards")
def test_criterion_10_independence_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for board_ in connected_boards(n):
            for game in (snort(), col()):
                a = analyze(game, board_)
                parts = a.index.parts
                maximal = [s for s in a.legal if not any(s < t for t in a.legal)]
                delta = from_facets(maximal, parts)
                gamma = from_facets(a.minimal_illegal, parts)
                assert all(len(f) == 2 for f in gamma.facets)
                assert delta == independence_complex(delta.vertices, gamma.facets, parts)
                checked += 1
    assert checked == 2 * (1 + 1 + 4 + 38 + 728)

    with pytest.raises(ValueError, match="x1x2x3"):
        to_independence(nogo(), build_path(3))
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.acceptance(criterion=11, title="invariance verifier verdicts")
def test_criterion_11_invariance_verdicts(lshape_board):
    t0 = time.perf_counter()
    rep = check_invariance(domineering(), lshape_board)
    assert rep.status == "FAIL"
    assert rep.witness == ("x3",)  # a basic position that is not legal

    lonely = disjoint_union(build_path(2), build_path(1))
    assert check_invariance(nogo(), lonely).status == "FAIL"

    for game in (snort(), col()):
        for board_ in (build_path(4), build_cycle(5)):
            rep = check_invariance(game, board_, samples=100, seed=0)
            assert rep.status == "PASS", rep.detail
    assert time.perf_counter() - t0 < 60.0

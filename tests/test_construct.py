from __future__ import annotations

import gc
import math
import weakref

import pytest

from spg import construct
from spg.boards import build_path, distance, gamma_board
from spg.complexes import (
    empty_face_complex,
    from_facets,
    independence_complex,
    minimal_nonfaces,
    relabel,
    void_complex,
)
from spg.construct import (
    realize_both,
    realize_illegal,
    realize_legal,
    to_independence,
    to_invariant,
    verify_roundtrip,
)
from spg.engine import illegal_complex, legal_complex
from spg.rulesets import free_placement, nogo, snort

from conftest import all_labeled_complexes, on_placement_sets


AB_BC = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "L", "c": "R"})
EDGE = from_facets([["a", "c"]], {"a": "L", "c": "R"})
K22 = from_facets(
    [["x1", "y1"], ["x1", "y2"], ["x2", "y1"], ["x2", "y2"]],
    {"x1": "L", "x2": "L", "y1": "R", "y2": "R"},
)


def test_realize_both_shares_a_board_of_cycles():
    legal, illegal = realize_both(AB_BC)
    assert legal.board is illegal.board
    assert legal.provenance == "table-game-legal"
    assert illegal.provenance == "table-game-illegal"
    # one 3-cycle per L vertex, one 4-cycle per R vertex, ids consecutive
    assert len(legal.board.vertices) == 3 + 3 + 4
    assert legal.regions == illegal.regions
    assert legal.regions == {
        "a": frozenset(range(0, 3)),
        "b": frozenset(range(3, 6)),
        "c": frozenset(range(6, 10)),
    }
    assert legal.source is AB_BC and illegal.source is AB_BC


def test_realize_both_degenerates():
    for delta in (void_complex(), empty_face_complex()):
        legal, illegal = realize_both(delta)
        assert legal.board.vertices == ()
        assert legal.regions == {} and illegal.regions == {}


def test_realize_illegal_single_edge():
    rep = realize_illegal(EDGE)
    assert rep.provenance == "distance-game"
    assert rep.edge_labeling == {frozenset({"a", "c"}): 1}
    assert len(rep.board.vertices) == 56
    assert set(rep.regions) == {"a", "c"}
    assert len(rep.regions["a"]) == 27  # 2^4+4 outer + one inner 7-cycle
    assert len(rep.regions["c"]) == 28
    # the lone centre vertex belongs to no region
    assert len(rep.regions["a"] | rep.regions["c"]) == 55


def test_realize_illegal_respects_custom_labeling():
    gamma = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "R", "c": "L"})
    lab = {frozenset({"a", "b"}): 2, frozenset({"b", "c"}): 1}
    rep = realize_illegal(gamma, edge_labeling=lab)
    assert rep.edge_labeling == lab
    assert rep.board.vertices == gamma_board(gamma, lab).vertices


def test_realize_illegal_empty_and_isolated():
    rep = realize_illegal(void_complex())
    assert rep.board.vertices == () and rep.regions == {}
    assert rep.provenance == "distance-game"
    with pytest.raises(ValueError, match="'a'"):
        realize_illegal(from_facets([["a"]], {"a": "L"}))


def test_realize_legal_simplex_is_unrestricted():
    simplex = from_facets([["a", "b", "c"]], {"a": "L", "b": "R", "c": "L"})
    rep = realize_legal(simplex)
    assert rep.provenance == "cycle-placement"
    assert rep.game.claims_invariant
    assert {v: len(ids) for v, ids in rep.regions.items()} == {"a": 3, "b": 4, "c": 3}


def test_realize_legal_distance_game():
    two_points = from_facets([["a"], ["b"]], {"a": "L", "b": "R"})
    rep = realize_legal(two_points)
    # the only minimal nonface is the pair, so no vertex is free
    assert rep.provenance == "distance-game"
    assert len(rep.board.vertices) == 56
    assert set(rep.regions) == {"a", "b"}


def test_realize_legal_adds_free_components():
    rep = realize_legal(AB_BC)
    assert rep.provenance == "distance-game+free-components"
    assert set(rep.regions) == {"a", "b", "c"}
    assert len(rep.board.vertices) == 83
    # b sits in every facet, hence on a component of its own
    a0, b0 = min(rep.regions["a"]), min(rep.regions["b"])
    assert distance(rep.board, [a0], [b0]) == math.inf


@pytest.mark.parametrize(
    "facets, parts",
    [
        ([["a", "b", "c"]], {"a": "L", "b": "R", "c": "L"}),
        ([["a", "b"], ["b", "c"]], {"a": "L", "b": "L", "c": "R"}),
        ([["a"], ["b"]], {"a": "L", "b": "R"}),
    ],
)
def test_realize_legal_roundtrips(facets, parts):
    report = verify_roundtrip("legal", from_facets(facets, parts))
    assert report.passed, report.detail
    assert report.computed == from_facets(facets, parts)


def test_realize_both_roundtrip_small_corpus():
    # table games realize every labeled complex, degenerate or not
    for delta in all_labeled_complexes(("a", "b")):
        report = verify_roundtrip("both", delta)
        assert report.passed, f"{delta!r}: {report.detail}"


def test_verify_illegal_path_gamma():
    gamma = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "R", "c": "L"})
    report = verify_roundtrip("illegal", gamma)
    assert report.passed
    assert "415" in report.detail
    assert report.computed == gamma


PATH5 = from_facets(
    [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]],
    {"a": "L", "b": "R", "c": "L", "d": "R", "e": "L"},
)


def test_verify_illegal_path_on_five_vertices():
    # the pieces have 1,125 vertices, more than Python's default recursion limit
    rep = verify_roundtrip("illegal", PATH5, max_construction_vertices=5)
    assert rep.status == "PASS", rep.detail
    assert rep.computed == PATH5


def test_verify_legal_path_on_five_vertices():
    # the board realises the six minimal nonfaces (ac, ad, ae, bd, be, ce)
    # as an illegal complex, one assembly per vertex: five, the budget
    rep = verify_roundtrip("legal", PATH5, max_construction_vertices=5)
    assert rep.status == "PASS", rep.detail
    assert rep.computed == PATH5
    assert verify_roundtrip("legal", PATH5, max_construction_vertices=4).status == "INCONCLUSIVE"


@pytest.mark.parametrize("kind, builder", [("illegal", "realize_illegal"), ("both", "realize_both")])
def test_roundtrip_board_is_freed(monkeypatch, kind, builder):
    # distance and component memos live on the board, so nothing keeps it alive
    refs = []
    build = getattr(construct, builder)

    def spy(*args, **kwargs):
        out = build(*args, **kwargs)
        refs.extend(weakref.ref(r.board) for r in (out if isinstance(out, tuple) else (out,)))
        return out

    monkeypatch.setattr(construct, builder, spy)
    assert verify_roundtrip(kind, AB_BC).passed
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_verify_budget_inconclusive():
    report = verify_roundtrip("illegal", K22)
    assert report.status == "INCONCLUSIVE"
    assert "needs 4 assemblies, over the budget of 3" in report.detail


def test_verify_legal_counts_the_free_assemblies():
    # d and e lie in every facet: the distance game runs on the one minimal
    # nonface {a,b,c} and each of d and e gets a free assembly
    delta = from_facets([["a", "b", "d", "e"], ["c", "d", "e"]],
                        {"a": "L", "b": "R", "c": "L", "d": "R", "e": "L"})
    report = verify_roundtrip("legal", delta, max_construction_vertices=3)
    assert report.status == "INCONCLUSIVE"
    assert "needs 5 assemblies, over the budget of 3" in report.detail
    assert verify_roundtrip("legal", delta, max_construction_vertices=5).passed
    # a simplex lives on a cycle table and needs no assembly
    simplex = from_facets([["a", "b", "c", "d"]], {"a": "L", "b": "R", "c": "L", "d": "R"})
    assert verify_roundtrip("legal", simplex, max_construction_vertices=1).passed


def test_verify_time_cap_inconclusive():
    report = verify_roundtrip("illegal", K22, max_construction_vertices=10, time_cap_s=0.0)
    assert report.status == "INCONCLUSIVE"
    assert "time budget exhausted" in report.detail


def test_verify_degenerates_compare_by_emptiness():
    assert verify_roundtrip("legal", void_complex()).passed
    assert verify_roundtrip("illegal", empty_face_complex()).passed
    assert verify_roundtrip("both", void_complex()).passed
    # the engine itself is sharp about which degenerate comes back: the empty
    # position is always legal, and nothing on an empty board is ever illegal
    legal, illegal = realize_both(void_complex())
    assert legal_complex(legal.game, legal.board) == empty_face_complex()
    assert illegal_complex(illegal.game, illegal.board) == void_complex()


def test_recovery_fails_on_wrong_regions():
    """Each way a placement can miss its intended region, and a recovered
    complex whose facets differ, are reported with what went wrong."""
    three = from_facets([["a", "b"], ["c"]], dict.fromkeys("abc", "L"))
    table, _ = realize_both(three)

    def recovered(realization, regions):
        realization.regions = regions
        return construct._recovered_complex(realization, "legal", cap=24, deadline=None)

    right = dict(table.regions)
    a, b, c = right["a"], right["b"], right["c"]
    assert recovered(table, {"a": a, "b": b}) == (
        None, "placement x3 covers 3 vertices outside any intended region",
    )
    assert recovered(table, {**right, "d": frozenset({99})}) == (
        None, "no placement covers region(s) d",
    )
    got, detail = recovered(table, {"a": c, "b": b, "c": a})
    assert detail == "" and construct._mismatch(three, got) == "facet mismatch on a, ab, bc, c"
    mixed = from_facets([["a", "b"]], {"a": "L", "b": "R"})
    legal, _ = realize_both(mixed)
    assert recovered(legal, {"a": legal.regions["b"], "b": legal.regions["a"]}) == (
        None, "region b was covered by a L piece",
    )
    # one vertex holds a Left and a Right placement, both in the one region
    stones = construct.Realization(free_placement(), build_path(1), "stones", regions={"a": frozenset({0})})
    assert construct._recovered_complex(stones, "legal", cap=24, deadline=None) == (
        None, "placements x1 and y1 both cover region a",
    )


def test_to_invariant_rejects_order_dependent_rules():
    from spg.boards import vertex_piece
    from spg.rulesets import Ruleset

    def pairs_only(board, pos):
        return len(pos) != 1

    pieces = {"L": vertex_piece("L"), "R": vertex_piece("R")}
    game = Ruleset("pairs-only", pieces, on_placement_sets(pairs_only))
    with pytest.raises(ValueError, match="not downward closed"):
        to_invariant(game, build_path(2))


def test_to_invariant_snort_on_an_edge():
    board = build_path(2)
    rep = to_invariant(snort(), board)
    assert rep.game.claims_invariant
    assert rep.provenance == "distance-game"
    assert set(rep.regions) == {"x1", "x2", "y1", "y2"}
    assert rep.source == legal_complex(snort(), board)


def test_to_independence_rejects_large_facets():
    with pytest.raises(ValueError, match="x1x2x3"):
        to_independence(nogo(), build_path(3))


def test_to_independence_needs_an_edge():
    from spg.boards import empty_board

    with pytest.raises(ValueError, match="no two-piece minimal position"):
        to_independence(free_placement(), empty_board())


def test_to_independence_on_a_point():
    board = build_path(1)
    rep = to_independence(free_placement(), board)
    assert rep.provenance == "independence/distance-game"
    gamma = illegal_complex(free_placement(), board)
    assert rep.source == independence_complex(
        gamma.vertices, gamma.facets, gamma.part
    )


def test_minimal_nonfaces_drive_the_legal_construction():
    rep = realize_legal(AB_BC)
    assert set(rep.edge_labeling) == minimal_nonfaces(AB_BC)


def test_distance_roundtrip_without_spurious_pair():
    # the labels run ab=1, bc=2, bd=3, ad=4, cd=5: the route from a through
    # b's assembly to c must be longer than 6, or the pair ac matches cd's
    # id-set {6} and the round trip recovers a pair the input lacks
    gamma = from_facets(
        [["a", "b", "d"], ["b", "c"], ["c", "d"]],
        {"a": "R", "b": "L", "c": "R", "d": "R"},
    )
    rep = verify_roundtrip("illegal", gamma, max_construction_vertices=4)
    assert rep.status == "PASS", rep.detail

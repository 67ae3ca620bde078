from __future__ import annotations

import pytest

from spg.boards import build_grid, build_path, disjoint_union, empty_board, vertex_piece
from spg.complexes import from_facets, sr_complex
from spg.engine import (
    BoardTooLarge,
    DownwardClosureError,
    analyze,
    basic_positions,
    check_condition_iv,
    check_invariance,
    illegal_complex,
    illegal_ideal,
    legal_complex,
    legal_ideal,
)
from spg.rulesets import Ruleset, col, domineering, free_placement, nogo, snort
from conftest import connected_boards, degree_one_game


def _single_vertex_rules(name, predicate, invariant=False) -> Ruleset:
    pieces = {"L": (vertex_piece("L"),), "R": (vertex_piece("R"),)}
    return Ruleset(name, pieces, predicate, claims_invariant=invariant)


def test_basic_positions_canonical_index(lshape_board):
    idx = basic_positions(domineering(), lshape_board)
    assert idx.names == ("x1", "x2", "x3", "y1", "y2", "y3")
    assert [sorted(idx.placement(n).occupied) for n in idx.names] == [
        [0, 1], [1, 2], [2, 3], [0, 1], [1, 2], [2, 3],
    ]
    assert idx.left_names == ("x1", "x2", "x3")
    assert idx.part_map()["y2"] == "R"


def test_analyze_free_placement_on_p2():
    a = analyze(free_placement(), build_path(2))
    names = {frozenset(s) for s in a.legal}
    assert frozenset() in names
    assert frozenset({"x1", "x2"}) in names and frozenset({"x1", "y2"}) in names
    assert frozenset({"x1", "y1"}) not in names
    assert a.minimal_illegal == frozenset(
        {frozenset({"x1", "y1"}), frozenset({"x2", "y2"})}
    )


def test_overlapping_supports_never_reach_the_predicate():
    calls = []

    def spying(b, pos):
        calls.append(frozenset(pos))
        return True

    analyze(_single_vertex_rules("spy", spying), build_path(2))
    for pos in calls:
        occupied = [v for pl in pos for v in pl.occupied]
        assert len(occupied) == len(set(occupied))


def test_legal_complex_is_sr_complex_of_illegal_ideal():
    cases = [
        (snort(), build_path(3)),
        (col(), build_path(4)),
        (nogo(), build_path(3)),
        (domineering(), build_grid(2, 2)),
        (free_placement(), build_path(2)),
    ]
    for game, board in cases:
        assert legal_complex(game, board) == sr_complex(illegal_ideal(game, board))


def test_maximal_legal_matches_pairwise_scan(lshape_board):
    cases = [
        (game, board)
        for n in range(1, 5)
        for board in connected_boards(n)
        for game in (snort(), col(), nogo(), free_placement())
    ]
    cases += [(domineering(), lshape_board), (domineering(), build_grid(2, 3))]
    for game, board in cases:
        a = analyze(game, board)
        # reference: every legal set compared with every other
        maximal = [s for s in a.legal if not any(s < t for t in a.legal)]
        assert a.maximal_legal == frozenset(maximal), (game.name, board)
        assert a.legal_complex() == legal_complex(game, board)
        assert a.legal_ideal() == legal_ideal(game, board)
        assert a.illegal_complex() == illegal_complex(game, board)
        assert a.illegal_ideal() == illegal_ideal(game, board)


def test_legal_ideal_generators_are_maximal_legal():
    idl = legal_ideal(snort(), build_path(2))
    assert idl.generators == frozenset({frozenset({"x1", "x2"}), frozenset({"y1", "y2"})})
    assert set(idl.variables) == {"x1", "x2", "y1", "y2"}
    gamma = illegal_complex(snort(), build_path(2))
    assert gamma.facets == frozenset(
        {
            frozenset({"x1", "y1"}),
            frozenset({"x2", "y2"}),
            frozenset({"x1", "y2"}),
            frozenset({"x2", "y1"}),
        }
    )


def test_empty_board_yields_empty_face_complex():
    delta = legal_complex(free_placement(), empty_board())
    assert delta.facets == frozenset({frozenset()})
    assert illegal_complex(free_placement(), empty_board()).is_void


def test_analyze_raises_on_order_dependent_predicate():
    # only the lone Left stone on vertex 0 is rejected; pairs through it pass
    def predicate(b, pos):
        if len(pos) != 1:
            return True
        (pl,) = pos
        return not (pl.player == "L" and pl.occupied == frozenset({0}))

    with pytest.raises(DownwardClosureError) as info:
        analyze(_single_vertex_rules("fickle", predicate), build_path(3))
    assert "x1" in info.value.witness
    assert len(info.value.witness) == len(info.value.missing) + 1


def test_condition_iv_passes_for_invariant_games():
    assert check_condition_iv(free_placement(), build_path(3)).passed
    assert check_condition_iv(snort(), build_path(3)).passed
    assert check_condition_iv(degree_one_game(), build_path(3)).passed


def test_condition_iv_catches_unreachable_violations():
    # "zero or two pieces" style: the closure never reaches the pairs, a full
    # subset walk does
    def pairs_only(b, pos):
        return len(pos) != 1

    rep = check_condition_iv(_single_vertex_rules("pairs", pairs_only), build_path(2))
    assert not rep.passed
    good, bad = rep.witness
    assert len(good) == 2 and len(bad) == 1
    assert "satisfies the predicate" in rep.detail


def test_condition_iv_requires_legal_empty_position():
    rep = check_condition_iv(_single_vertex_rules("grump", lambda b, p: len(p) > 0), build_path(2))
    assert not rep.passed
    assert rep.witness == ((), ())
    assert "empty position" in rep.detail


def test_invariance_passes_for_snort_and_col():
    for game in (snort(), col()):
        rep = check_invariance(game, build_path(4), samples=50, seed=0)
        assert rep.status == "PASS", rep.detail
        assert rep.samples_run > 0


def test_invariance_fails_for_domineering_part_a(lshape_board):
    rep = check_invariance(domineering(), lshape_board)
    assert rep.status == "FAIL"
    assert rep.witness == ("x3",)
    assert "x3" in rep.detail


def test_invariance_fails_for_nogo_with_isolated_vertex():
    lonely = disjoint_union(build_path(2), build_path(1))
    rep = check_invariance(nogo(), lonely)
    assert rep.status == "FAIL"
    assert "illegal" in rep.detail


def test_invariance_inconclusive_without_placements():
    rep = check_invariance(free_placement(), empty_board())
    assert rep.status == "INCONCLUSIVE"


def test_invariance_is_deterministic():
    a = check_invariance(snort(), build_path(4), samples=40, seed=3)
    b = check_invariance(snort(), build_path(4), samples=40, seed=3)
    assert (a.status, a.detail, a.samples_run) == (b.status, b.detail, b.samples_run)


def test_board_cap():
    with pytest.raises(BoardTooLarge):
        analyze(snort(), build_path(4), cap=4)
    a = analyze(snort(), build_path(2), cap=4)
    assert len(a.index) == 4

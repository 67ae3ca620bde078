from __future__ import annotations

import dataclasses
import random
import time
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from spg import engine
from spg.boards import (
    BudgetExceeded,
    board,
    build_cycle,
    build_grid,
    build_path,
    disjoint_union,
    domino_piece,
    empty_board,
    induced_embeddings,
    placement,
    vertex_piece,
)
import spg.complexes
from spg.complexes import (
    facet_complex, facet_ideal, from_facets, ideal, is_flag, minimal_nonfaces, sr_complex,
    sr_ideal, submasks,
)
from spg.construct import realize_both, verify_roundtrip
from spg.engine import (
    DownwardClosureError,
    analyze,
    basic_positions,
    check_condition_iv,
    check_invariance,
    illegal_complex,
    legal_complex,
)
from spg.gametree import canonical_value
from spg.rulesets import (
    Ruleset,
    col,
    cycle_placement_game,
    domineering,
    free_placement,
    gamma_game,
    nogo,
    snort,
    table_game_illegal,
    table_game_legal,
)
from conftest import (
    all_labeled_complexes, connected_boards, degree_one_game, judge, on_placement_sets,
)


def _single_vertex_rules(name, predicate, invariant=False) -> Ruleset:
    pieces = {"L": vertex_piece("L"), "R": vertex_piece("R")}
    return Ruleset(name, pieces, on_placement_sets(predicate), claims_invariant=invariant)


def test_basic_positions_canonical_index(lshape_board):
    idx = basic_positions(domineering(), lshape_board)
    assert idx.names == ("x1", "x2", "x3", "y1", "y2", "y3")
    assert [sorted(idx.by_name[n].occupied) for n in idx.names] == [
        [0, 1], [1, 2], [2, 3], [0, 1], [1, 2], [2, 3],
    ]
    parts = idx.parts
    assert [n for n in idx.names if parts[n] == "L"] == ["x1", "x2", "x3"]
    assert parts["y2"] == "R"


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
        assert legal_complex(game, board) == sr_complex(analyze(game, board).illegal_ideal())


def _maximal(family):
    """The inclusion-maximal sets of ``family``, each compared with every other."""
    return frozenset(s for s in family if not any(s < t for t in family))


def _maximal_named(a):
    """The maximal legal sets an analysis holds, by name."""
    return frozenset(frozenset(a.index.names_of(s)) for s in a.maximal_masks)


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
        # reference: the brute-force closure's legal sets, each compared with every other
        legal = closure_oracle(game, board)[0]
        assert _maximal_named(a) == _maximal(legal), (game.name, board)
        assert a.legal_complex() == legal_complex(game, board)
        assert a.illegal_complex() == illegal_complex(game, board)
        assert a.legal_ideal().generators == a.legal_complex().facets
        assert a.illegal_ideal().generators == a.illegal_complex().facets


def test_legal_ideal_generators_are_maximal_legal():
    idl = analyze(snort(), build_path(2)).legal_ideal()
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


def test_invariance_fails_for_nogo_on_a_transported_position():
    # Left at 1 and Right at 2 both breathe on the 4-path; moved one step
    # along it, Left at 0 has no empty neighbour
    brd = build_path(4)
    rep = check_invariance(nogo(), brd, samples=200)
    assert rep.status == "FAIL"
    assert rep.detail == "position {x2,y3} is legal but its transported image is not"
    assert rep.witness == (("x2", "y3"), ((1, 0), (2, 1)))
    assert rep.samples_run == 49
    by_name = basic_positions(nogo(), brd).by_name
    assert judge(nogo(), brd, by_name["x2"], by_name["y3"])
    assert not judge(nogo(), brd, placement("L", [0]), placement("R", [1]))


def test_invariance_inconclusive_when_no_pattern_moves():
    # one vertex: each sampled pattern embeds onto itself alone
    rep = check_invariance(snort(), build_path(1))
    assert (rep.status, rep.samples_run) == ("INCONCLUSIVE", 0)
    assert rep.detail == "no sampled pattern admitted an alternative embedding"


def test_invariance_is_deterministic():
    a = check_invariance(snort(), build_path(4), samples=40, seed=3)
    b = check_invariance(snort(), build_path(4), samples=40, seed=3)
    assert (a.status, a.detail, a.samples_run) == (b.status, b.detail, b.samples_run)


@pytest.mark.parametrize(
    "game, brd", [(domineering(), build_grid(3, 3)), (snort(), build_grid(2, 3))],
    ids=["domineering-3x3", "snort-2x3"],
)
def test_transported_placements_are_basic_positions(game, brd):
    # check_invariance looks a transported placement up among the basic
    # positions by player and occupied set; the lookup must never miss
    placements = basic_positions(game, brd).placements
    basic = {(p.player, p.occupied) for p in placements}
    for p in placements:
        occ = sorted(p.occupied)
        pattern = [e for e in brd.edges if set(e) <= p.occupied]
        maps = induced_embeddings(brd, occ, pattern)
        assert maps
        for phi in maps:
            assert (p.player, frozenset(phi[v] for v in occ)) in basic, (p, phi)


def test_board_cap():
    with pytest.raises(BudgetExceeded):
        analyze(snort(), build_path(4), cap=4)
    a = analyze(snort(), build_path(2), cap=4)
    assert len(a.index) == 4


def _counting(game):
    calls = [0]

    def legal(b, placements):
        predicate = game.legal(b, placements)

        def counted(mask):
            calls[0] += 1
            return predicate(mask)

        return counted

    return dataclasses.replace(game, legal=legal), calls


SHORTHANDS = (legal_complex, illegal_complex)


def test_shorthands_share_one_analysis_per_board():
    game, calls = _counting(nogo())
    analyze(game, build_grid(2, 3))
    once = calls[0]
    assert once > 0
    brd = build_grid(2, 3)
    calls[0] = 0
    for shorthand in SHORTHANDS:
        shorthand(game, brd)
    assert calls[0] == once
    # another game object, another cap, then the first game again: each analyses
    other, other_calls = _counting(nogo())
    for shorthand in SHORTHANDS:
        shorthand(other, brd)
    assert other_calls[0] == once
    for shorthand in SHORTHANDS:
        shorthand(game, brd, cap=30)
    assert calls[0] == 2 * once
    legal_complex(game, brd)
    assert calls[0] == 3 * once


def test_analysis_kept_on_the_board_holds_no_name_sets():
    game, brd = nogo(), build_grid(2, 3)
    legal = legal_complex(game, brd)
    illegal = illegal_complex(game, brd)
    kept = brd._analysis[2]
    assert not {"legal", "minimal_illegal"} & set(vars(kept))
    # it keeps the facets, and the names are still there when asked for
    assert _maximal_named(kept) == legal.facets
    assert kept.legal_complex() == legal
    assert from_facets(kept.minimal_illegal, kept.index.parts) == illegal


def test_shorthands_store_no_failed_analysis():
    game, brd = nogo(), build_grid(2, 3)
    for shorthand in SHORTHANDS + SHORTHANDS:
        with pytest.raises(BudgetExceeded):
            shorthand(game, brd, cap=4)


# ---------------------------------------------------------------------------
# The basic-position index kept on the board


def test_both_round_trip_searches_once_per_piece(monkeypatch):
    searched = []
    search = engine.piece_placements

    def spy(board_, piece, deadline=None):
        searched.append(piece)
        return search(board_, piece, deadline=deadline)

    monkeypatch.setattr(engine, "piece_placements", spy)
    delta = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "R", "c": "L"})
    assert verify_roundtrip("both", delta).passed
    # the two table games play one 3-cycle and one 4-cycle on one board
    assert len(searched) == 2
    assert {p.player for p in searched} == {"L", "R"}


def test_rulesets_with_the_same_pieces_share_one_index():
    brd = build_path(4)
    first = basic_positions(snort(), brd)
    overlaps = first.overlaps
    again = basic_positions(col(), brd)
    assert again is first and again.overlaps is overlaps
    assert analyze(col(), brd).index is first


def test_the_board_keeps_one_index():
    brd = build_grid(2, 3)
    stones = basic_positions(snort(), brd)
    dominoes = basic_positions(domineering(), brd)
    assert dominoes is not stones and len(dominoes) == 14
    fresh = basic_positions(snort(), brd)
    assert fresh is not stones and fresh == stones


def test_a_search_past_its_deadline_stores_nothing(monkeypatch):
    brd = build_path(4)
    with pytest.raises(BudgetExceeded):
        basic_positions(snort(), brd, deadline=time.monotonic() - 1.0)
    assert brd._positions is None
    index = basic_positions(snort(), brd)
    assert len(index) == 8
    # a kept index is returned whatever the deadline, as no search runs
    monkeypatch.setattr(engine, "piece_placements", None)
    assert basic_positions(nogo(), brd, deadline=time.monotonic() - 1.0) is index


def _random_connected_graph(rng, n):
    """A random spanning tree on 0..n-1 plus each other pair with chance 1/3."""
    tree = {(rng.randrange(v), v) for v in range(1, n)}
    return list(range(n)), sorted(tree | {e for e in combinations(range(n), 2) if rng.random() < 1 / 3})


def test_rulesets_in_turn_on_one_board_match_fresh_boards():
    rng = random.Random(19)
    for _ in range(40):
        vertices, edges = _random_connected_graph(rng, rng.randint(1, 6))
        shared = board(vertices, edges)
        for game in (snort(), col(), nogo()):
            a, b = analyze(game, shared), analyze(game, board(vertices, edges))
            assert a.index.entries == b.index.entries, (game.name, edges)
            assert a.index.names == b.index.names
            assert _maximal_named(a) == _maximal_named(b), (game.name, edges)
            assert a.minimal_illegal == b.minimal_illegal, (game.name, edges)


# ---------------------------------------------------------------------------
# The closure against brute force


def closure_oracle(game, board_):
    """Every set of basic positions with disjoint supports, smallest first: a
    set is legal when the predicate accepts it and every one-smaller subset is
    legal.  Returns the legal sets, the minimal illegal sets, whether some
    accepted set has both a legal and an illegal one-smaller subset, and
    whether some accepted set has a rejected one-smaller subset."""
    index = basic_positions(game, board_)
    names, by_name = index.names, index.by_name
    disjoint, seen = [frozenset()], {frozenset()}
    for s in disjoint:  # grows while walked: all disjoint sets, by size
        used = {v for c in s for v in by_name[c].occupied}
        for b in names:
            if not by_name[b].occupied & used and s | {b} not in seen:
                seen.add(s | {b})
                disjoint.append(s | {b})
    legal, violated = {frozenset()}, False
    accepted = {t for t in disjoint if judge(game, board_, *(by_name[c] for c in t))}
    for t in disjoint[1:]:
        subs_legal = [t - {c} in legal for c in t]
        if t in accepted:
            if all(subs_legal):
                legal.add(t)
            elif any(subs_legal):
                violated = True
    minimal = {
        s | {b}
        for s in legal
        for b in names
        if b not in s and s | {b} not in legal and all((s | {b}) - {c} in legal for c in s)
    }
    unordered = any(t - {c} not in accepted for t in accepted for c in t)
    return legal, minimal, violated, unordered


_PIECES = {
    "vertex": {"L": vertex_piece("L"), "R": vertex_piece("R")},
    "domino": {"L": domino_piece("L"), "R": domino_piece("R")},
    "mixed": {"L": vertex_piece("L"), "R": domino_piece("R")},
}


@st.composite
def small_games(draw):
    """A random board on at most 5 vertices and a random predicate, drawn
    lazily and memoised: ``table`` is rarely downward closed, ``closed``
    always is, and ``pairwise`` decides by singletons and pairs."""
    n = draw(st.integers(0, 5))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    kind = draw(st.sampled_from(["table", "closed", "pairwise"]))
    rng = draw(st.randoms(use_true_random=False))
    accept = draw(st.floats(0.5, 1.0))
    memo: dict = {}

    def coin(key) -> bool:
        if key not in memo:
            memo[key] = rng.random() < accept
        return memo[key]

    def closed(pls) -> bool:
        return not pls or coin(pls) and all(closed(pls - {p}) for p in pls)

    def legal(b, pls) -> bool:
        if kind == "table":
            return coin(pls) if pls else True
        if kind == "closed":
            return closed(pls)
        return all(coin(frozenset(c)) for r in (1, 2) for c in combinations(pls, r))

    pieces = _PIECES[draw(st.sampled_from(sorted(_PIECES)))]
    return Ruleset(kind, pieces, on_placement_sets(legal)), board(range(n), edges)


@settings(max_examples=200, deadline=None)
@given(small_games())
def test_analyze_matches_brute_force(case):
    game, board_ = case
    legal, minimal, violated, unordered = closure_oracle(game, board_)
    assert check_condition_iv(game, board_).passed is not unordered
    # a closed declaration is trusted, not checked: whatever the predicate,
    # the closure then returns the reachable legal and minimal illegal sets
    variants = [game, dataclasses.replace(game, closed=True)]
    if game.name == "pairwise":  # the pairwise path must agree with the oracle too
        variants.append(dataclasses.replace(game, pairwise=True))
    for variant in variants:
        try:
            a = analyze(variant, board_)
        except DownwardClosureError as exc:
            assert violated and not variant.pairwise and not variant.closed
            by_name = basic_positions(game, board_).by_name
            assert judge(game, board_, *(by_name[c] for c in exc.witness))
            assert set(exc.missing) < set(exc.witness)
            assert len(exc.missing) == len(exc.witness) - 1
            assert frozenset(exc.missing) not in legal
            continue
        assert not violated or variant.closed
        assert _maximal_named(a) == _maximal(legal)
        assert a.legal == legal
        assert a.minimal_illegal == minimal


def _table_boards():
    """Disjoint unions of up to three triangles and squares."""
    for size in range(1, 4):
        for lengths in combinations_with_replacement((3, 4), size):
            yield disjoint_union(*(build_cycle(k) for k in lengths))


def test_pairwise_declarations_hold():
    cases = [
        (game, board_)
        for n in range(1, 6)
        for board_ in connected_boards(n)
        for game in (free_placement(), snort(), col(), nogo())
    ]
    cases += [(domineering(), build_grid(r, c)) for r in range(1, 4) for c in range(1, 4)]
    cases += [(cycle_placement_game(), board_) for board_ in _table_boards()]
    cases = [(game, board_) for game, board_ in cases if game.pairwise]
    assert {game.name for game, _ in cases} == {
        "free", "snort", "col", "domineering", "cycle-placement"
    }
    for game, board_ in cases:
        general = dataclasses.replace(game, pairwise=False)
        assert analyze(game, board_) == analyze(general, board_), (game.name, board_)
        assert check_condition_iv(game, board_).passed, (game.name, board_)


def test_closed_declarations_hold():
    delta = from_facets([{"a", "b"}], {"a": "L", "b": "R"})
    games = (
        free_placement(), snort(), col(), nogo(), domineering(), cycle_placement_game(),
        table_game_legal(delta), table_game_illegal(delta), gamma_game(delta),
    )
    closed = [game for game in games if game.closed]
    assert {game.name for game in closed} == {"nogo"}
    boards_ = [board_ for n in range(1, 6) for board_ in connected_boards(n)]
    for game in closed:
        general = dataclasses.replace(game, closed=False)
        for board_ in boards_ + [build_grid(3, 3)]:
            assert analyze(game, board_) == analyze(general, board_), (game.name, board_)
            assert check_condition_iv(game, board_).passed, (game.name, board_)


def test_closed_declaration_skips_sets_with_an_illegal_subset():
    calls = []

    def counted(game):
        def legal(b, placements):
            predicate = game.legal(b, placements)

            def counting(mask):
                calls.append(mask)
                return predicate(mask)

            return counting

        return dataclasses.replace(game, legal=legal)

    declared = analyze(counted(nogo()), build_grid(3, 3))
    assert len(calls) == 12_822
    calls.clear()
    general = analyze(counted(dataclasses.replace(nogo(), closed=False)), build_grid(3, 3))
    assert len(calls) == 19_112
    assert declared == general


# ---------------------------------------------------------------------------
# The complexes an analysis hands over


def _handed_cases():
    """(game, board) pairs for every built-in ruleset, both table games and
    a pairwise game that rejects some single placements."""
    plain = (free_placement(), snort(), col(), nogo())
    cases = [(game, b) for n in range(1, 6) for b in connected_boards(n) for game in plain]
    cases += [(nogo(), build_cycle(10)), (snort(), build_path(10))]
    cases += [(domineering(), build_grid(r, c)) for r in range(1, 4) for c in range(1, 4)]
    for delta in all_labeled_complexes("abc"):
        cases += [(r.game, r.board) for r in realize_both(delta)]
    snort_ = snort()

    def legal(b, placements):
        predicate = snort_.legal(b, placements)
        return lambda mask: not mask & 0b101 and predicate(mask)

    cases += [(dataclasses.replace(snort_, legal=legal), build_path(4))]
    cases += [(cycle_placement_game(), build_cycle(3)), (free_placement(), empty_board())]
    return cases


def _assert_constructors_agree(delta):
    """A complex equals, and hashes as, the one built from its named facets,
    and its facet and Stanley–Reisner ideals equal the ones :func:`ideal`
    filters from the named facets and minimal nonfaces."""
    named = from_facets(delta.facets, delta.part)
    assert named == delta and hash(named) == hash(delta), delta
    for got, want in ((facet_ideal(delta), ideal(delta.vertices, delta.part, delta.facets)),
                      (sr_ideal(delta), ideal(delta.vertices, delta.part, minimal_nonfaces(delta)))):
        assert got == want and hash(got) == hash(want), delta


def test_handed_complexes_match_the_named_facets():
    reached = set()
    for game, b in _handed_cases():
        a = analyze(game, b)
        legal, illegal = a.legal_complex(), a.illegal_complex()
        named = [from_facets([a.index.names_of(m) for m in masks], a.index.parts)
                 for masks in (a.maximal_masks, a.minimal_masks)]
        for handed, want in zip((legal, illegal), named):
            assert handed == want, (game.name, b)
            assert handed.vertices == want.vertices
            assert handed.facet_masks == want.facet_masks
            _assert_constructors_agree(handed)
        # the masks handed over; a complex computes the rest from facet_masks
        if game.pairwise:
            assert "flag_conflicts" in vars(legal)
            assert legal.flag_conflicts == named[0].flag_conflicts
        else:
            assert "face_masks" in vars(legal)
            assert legal.face_masks == submasks(legal.facet_masks)
        reached.update((case, game.pairwise) for case, hit in (
            ("vertex order is not the index order", legal.vertices[:3] == ("x1", "x10", "x2")),
            ("the only face is empty", not legal.vertices),
            ("a basic position in no facet", len(legal.vertices) < len(a.index)),
            ("nothing is illegal", illegal.is_void),
        ) if hit)
    assert len(reached) == 8, reached  # each case on both closures


def test_handed_complexes_expand_nothing_twice(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for name in ("submasks", "maximal_independent_sets", "_maximal", "_minimal"):
        monkeypatch.setattr(spg.complexes, name, counted(getattr(spg.complexes, name)))
    a = analyze(nogo(), build_grid(3, 3))
    nogo_legal = a.legal_complex()
    snort_legal = legal_complex(snort(), build_path(10))
    calls.clear()
    canonical_value(nogo_legal)
    assert nogo_legal.node_count == 30_644_179
    assert "submasks" not in calls
    assert "facets" not in vars(nogo_legal)  # named only when read
    calls.clear()
    assert is_flag(snort_legal)
    assert calls == []
    # the ideals and complexes of an antichain never filter it again
    for idl in (a.legal_ideal(), a.illegal_ideal(), facet_ideal(nogo_legal), sr_ideal(nogo_legal)):
        facet_complex(idl)
    assert "_maximal" not in calls and "_minimal" not in calls


def test_constructors_agree_on_equality_and_hash():
    """Every complex on four vertices; the handed complexes are checked
    alike in :func:`test_handed_complexes_match_the_named_facets`."""
    for delta in all_labeled_complexes("abcd"):
        _assert_constructors_agree(delta)

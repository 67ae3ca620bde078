from __future__ import annotations

import json
import random
import time
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spg.complexes import (
    LabeledComplex,
    SquareFreeIdeal,
    are_isomorphic,
    canonical_vertex_order,
    complex_from_obj,
    complex_to_obj,
    dimension,
    dumps,
    empty_face_complex,
    faces,
    facet_complex,
    facet_ideal,
    from_facets,
    ideal,
    ideal_from_obj,
    ideal_to_obj,
    independence_complex,
    is_flag,
    is_pure,
    is_simplex,
    minimal_nonfaces,
    relabel,
    sr_complex,
    sr_ideal,
    void_complex,
    _isomorphisms,
    _maximal,
    _minimal,
)
from conftest import all_labeled_complexes, random_complex
from spg.boards import build_grid
from spg.engine import legal_complex
from spg.rulesets import nogo


AB_BC = from_facets([["a", "b"], ["b", "c"]], {"a": "L", "b": "L", "c": "R"})


def _subsets(vs):
    return chain.from_iterable(combinations(sorted(vs), r) for r in range(len(vs) + 1))


def faces_oracle(delta: LabeledComplex) -> set[frozenset[str]]:
    return {frozenset(s) for f in delta.facets for s in _subsets(f)}


def minimal_nonfaces_oracle(delta: LabeledComplex) -> set[frozenset[str]]:
    fs = faces_oracle(delta)
    non = [frozenset(s) for s in _subsets(delta.vertices) if frozenset(s) not in fs]
    return {n for n in non if all(m not in non or not m < n for m in non)}


def test_from_facets_normalizes():
    delta = from_facets([["b", "a"], ["a"], ["c", "b"]], {"a": "L", "b": "L", "c": "R"})
    assert delta == AB_BC
    assert delta.facets == frozenset({frozenset("ab"), frozenset("bc")})


def test_from_facets_ignores_unused_part_keys():
    delta = from_facets([["a"]], {"a": "L", "z": "R"})
    assert set(delta.part) == {"a"}


def test_from_facets_requires_parts():
    with pytest.raises(ValueError):
        from_facets([["a", "b"]], {"a": "L"})
    with pytest.raises(ValueError):
        from_facets([["a"]], {"a": "X"})


def test_canonical_vertex_order_left_block_first():
    order = canonical_vertex_order(["y2", "x1", "y1", "x10"], {"y2": "R", "x1": "L", "y1": "R", "x10": "L"})
    assert order == ("x1", "x10", "y1", "y2")
    assert AB_BC.vertices == ("a", "b", "c")


def test_degenerate_complexes_are_distinct():
    assert void_complex().is_void
    assert void_complex().is_empty and empty_face_complex().is_empty
    assert empty_face_complex().facets == frozenset({frozenset()})
    assert void_complex() != empty_face_complex()
    assert faces(void_complex()) == frozenset()
    assert faces(empty_face_complex()) == frozenset({frozenset()})


def test_faces_and_dimension():
    assert faces(AB_BC) == faces_oracle(AB_BC)
    assert dimension(AB_BC) == 1
    assert is_pure(AB_BC)
    assert not is_pure(from_facets([["a", "b"], ["c"]], {"a": "L", "b": "L", "c": "L"}))


def test_minimal_nonfaces_matches_oracle_on_small_corpus():
    for delta in all_labeled_complexes("abc"):
        if delta.is_void:
            assert minimal_nonfaces(delta) == frozenset({frozenset()})
            continue
        assert minimal_nonfaces(delta) == minimal_nonfaces_oracle(delta), delta


def test_minimal_nonfaces_worked_example():
    assert minimal_nonfaces(AB_BC) == frozenset({frozenset("ac")})


def test_minimal_nonfaces_of_isolated_vertices():
    names = [f"v{i:02d}" for i in range(24)]
    delta = from_facets([[v] for v in names], {v: "L" for v in names})
    t0 = time.perf_counter()
    nonfaces = minimal_nonfaces(delta)
    assert time.perf_counter() - t0 < 2.0
    assert nonfaces == frozenset(frozenset(p) for p in combinations(names, 2))
    assert len(nonfaces) == 276


def test_ideal_rejects_unknown_variables():
    with pytest.raises(ValueError):
        ideal(["a"], {"a": "L"}, [["a", "b"]])


def test_ideal_equality_and_flags():
    zero = ideal(["a"], {"a": "L"}, [])
    unit = ideal(["a"], {"a": "L"}, [[]])
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    assert zero != unit
    assert ideal(["a"], {"a": "L"}, [["a"]]) == ideal(["a"], {"a": "L"}, [["a"], ["a"]])


def test_ideal_minimalizes_generators():
    idl = ideal(["a", "b"], {"a": "L", "b": "L"}, [["a"], ["a", "b"]])
    assert idl.generators == frozenset({frozenset("a")})


def test_minimal_matches_the_pairwise_rule_on_random_families():
    rng = random.Random(7)
    for _ in range(300):
        family = {frozenset(rng.sample("abcdef", rng.randint(0, 4))) for _ in range(rng.randint(0, 12))}
        assert _minimal(family) == frozenset(s for s in family if not any(t < s for t in family))


def test_maximal_matches_the_pairwise_rule_on_random_families():
    assert _maximal(set()) == frozenset()
    assert _maximal({frozenset()}) == {frozenset()}
    assert _maximal({frozenset(), frozenset("a")}) == {frozenset("a")}
    rng = random.Random(7)
    for _ in range(300):
        # sizes from 0, so the empty set comes up, and some sets listed twice
        listed = [frozenset(rng.sample("abcdef", rng.randint(0, 4))) for _ in range(rng.randint(0, 12))]
        listed += rng.sample(listed, len(listed) // 3)
        family = set(listed)
        want = frozenset(s for s in family if not any(s < t for t in family))
        assert _maximal(family) == want
        assert _maximal(listed) == want


# the four correspondences, pinned on the degenerate corners


def test_facet_ideal_degenerates():
    assert facet_ideal(void_complex()).is_zero
    assert facet_ideal(empty_face_complex()).is_unit


def test_sr_ideal_degenerates():
    assert sr_ideal(void_complex()).is_unit
    assert sr_ideal(empty_face_complex()).is_zero


def test_facet_complex_degenerates():
    assert facet_complex(ideal([], {}, [])).is_void
    assert facet_complex(ideal([], {}, [[]])).facets == frozenset({frozenset()})


def test_sr_complex_degenerates():
    assert sr_complex(ideal([], {}, [[]])).is_void
    full = sr_complex(ideal(["a", "b"], {"a": "L", "b": "R"}, []))
    assert full.facets == frozenset({frozenset("ab")})


def test_dualities_are_mutual_inverses_on_corpus():
    for delta in all_labeled_complexes("abc"):
        assert facet_complex(facet_ideal(delta)) == delta
        assert sr_complex(sr_ideal(delta)) == delta
    # and from the ideal side
    for delta in all_labeled_complexes("abc"):
        fi, si = facet_ideal(delta), sr_ideal(delta)
        assert facet_ideal(facet_complex(fi)) == fi
        assert sr_ideal(sr_complex(si)) == si


def test_sr_generators_are_minimal_nonfaces():
    for delta in all_labeled_complexes("abc"):
        if delta.is_void:
            continue
        assert sr_ideal(delta).generators == minimal_nonfaces(delta)


def test_flag_and_simplex_predicates():
    assert is_flag(AB_BC)
    hollow = from_facets([["a", "b"], ["b", "c"], ["a", "c"]], {"a": "L", "b": "L", "c": "L"})
    assert not is_flag(hollow)
    assert is_simplex(empty_face_complex())
    assert is_simplex(from_facets([["a", "b", "c"]], {"a": "L", "b": "L", "c": "R"}))
    assert not is_simplex(AB_BC)


def test_flag_test_matches_minimal_nonfaces():
    """The clique test agrees with "every minimal nonface has two vertices"
    on every labeled complex on at most four vertices."""
    for delta in all_labeled_complexes("abcd"):
        want = all(len(n) == 2 for n in minimal_nonfaces(delta))
        assert is_flag(delta) == want, delta
        conflict = delta.flag_conflicts
        assert (conflict is not None) == want, delta
        if want:
            # the faces are the independent sets of the conflict graph
            n = len(delta.vertices)
            indep = {m for m in range(1 << n) if all(conflict[i] & m == 1 << i for i in range(n) if m >> i & 1)}
            assert indep == delta.face_masks, delta
    assert not is_flag(void_complex())
    assert is_flag(empty_face_complex())


def test_independence_complex_matches_brute_force():
    # square graph: independent sets are the two diagonals and below
    part = {v: "L" for v in "abcde"}
    square = from_facets([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]], part)
    ind = independence_complex(list("abcd"), square.facets, part)
    assert ind.facets == frozenset({frozenset("ac"), frozenset("bd")})
    # every graph on up to five vertices, against plain subset enumeration
    for n in range(6):
        verts = "abcde"[:n]
        pairs = list(combinations(verts, 2))
        for chosen in range(1 << len(pairs)):
            edges = [set(e) for i, e in enumerate(pairs) if chosen >> i & 1]
            independent = [
                set(sub)
                for k in range(n + 1)
                for sub in combinations(verts, k)
                if not any(e <= set(sub) for e in edges)
            ]
            want = [s for s in independent if not any(s < t for t in independent)]
            ind = independence_complex(verts, edges, part)
            assert ind.facets == frozenset(map(frozenset, want)), (verts, edges)


def test_independence_complex_no_edges_gives_full_simplex():
    part = {"a": "L", "b": "R"}
    ind = independence_complex(["a", "b"], frozenset(), part)
    assert ind.facets == frozenset({frozenset("ab")})


def test_relabel_roundtrip():
    mapping = {"a": "p", "b": "q", "c": "r"}
    back = {v: k for k, v in mapping.items()}
    assert relabel(relabel(AB_BC, mapping), back) == AB_BC
    with pytest.raises(ValueError):
        relabel(AB_BC, {"a": "b", "b": "b", "c": "c"})


def test_are_isomorphic_respects_parts():
    other = from_facets([["p", "q"], ["q", "r"]], {"p": "L", "q": "L", "r": "R"})
    iso = are_isomorphic(AB_BC, other)
    assert iso == {"a": "p", "b": "q", "c": "r"}
    flipped = from_facets([["p", "q"], ["q", "r"]], {"p": "R", "q": "L", "r": "L"})
    assert are_isomorphic(AB_BC, flipped) == {"a": "r", "b": "q", "c": "p"}
    mismatched = from_facets([["p", "q"], ["q", "r"]], {"p": "L", "q": "R", "r": "L"})
    assert are_isomorphic(AB_BC, mismatched) is None


def test_are_isomorphic_negative_cases():
    path = AB_BC
    disjoint = from_facets([["a", "b"], ["c", "d"]], {"a": "L", "b": "L", "c": "R", "d": "R"})
    assert are_isomorphic(path, disjoint) is None
    # every vertex of a hexagon and of two triangles lies in two edges, so
    # the vertex signatures agree and only the search can tell them apart
    hexagon = from_facets([[f"h{i}", f"h{(i + 1) % 6}"] for i in range(6)], {f"h{i}": "L" for i in range(6)})
    triangles = from_facets(["ab", "bc", "ac", "de", "ef", "df"], dict.fromkeys("abcdef", "L"))
    assert are_isomorphic(hexagon, triangles) is None
    assert are_isomorphic(void_complex(), empty_face_complex()) is None
    assert are_isomorphic(void_complex(), void_complex()) == {}


def isomorphisms_oracle(a: LabeledComplex, b: LabeledComplex) -> list[dict[str, str]]:
    """Brute force: every part-preserving vertex bijection carrying the
    facets of ``a`` onto those of ``b``."""
    if len(a.vertices) != len(b.vertices):
        return []
    maps = (dict(zip(a.vertices, image)) for image in permutations(b.vertices))
    return [
        m for m in maps
        if all(a.part[v] == b.part[w] for v, w in m.items())
        and {frozenset(m[v] for v in f) for f in a.facets} == b.facets
    ]


def test_are_isomorphic_on_five_vertex_relabellings():
    """Seeded relabellings of 5-vertex complexes, and random pairs: a witness
    is one of the oracle's isomorphisms, and None means there is none.  On
    relabellings of complexes such as <abd,ace,bcde> the search completes an
    assignment that keeps every pair's sharing of a facet but does not carry
    the facets over, and must reject it and go on."""
    rng = random.Random(5)
    deltas = [from_facets(["abd", "ace", "bcde"], dict.fromkeys("abcde", "L"))]
    while len(deltas) < 60:
        fams = [rng.sample("abcde", rng.randint(2, 4)) for _ in range(rng.randint(2, 5))]
        delta = from_facets(fams, {v: rng.choice("LR") for v in "abcde"})
        if len(delta.vertices) == 5:
            deltas.append(delta)
    for delta in deltas:
        image = list("vwxyz")
        rng.shuffle(image)
        other = relabel(delta, dict(zip(delta.vertices, image)))
        for a, b in ((delta, other), (delta, rng.choice(deltas))):
            iso = are_isomorphic(a, b)
            oracle = isomorphisms_oracle(a, b)
            assert iso in oracle if iso is not None else not oracle, (a, b)


def named(a: LabeledComplex, b: LabeledComplex, image: tuple[int, ...]) -> dict[str, str]:
    return {a.vertices[u]: b.vertices[x] for u, x in enumerate(image)}


def test_automorphisms_carry_the_facets_onto_themselves():
    """Every map the search yields from a complex onto itself is a
    part-preserving bijection of its vertex indices that carries
    ``facet_masks`` onto itself, each map once."""
    rng = random.Random(30)
    corpus = all_labeled_complexes("abcd") + [random_complex(rng, 7) for _ in range(100)]
    grid = legal_complex(nogo(), build_grid(3, 3))
    for delta in corpus + [grid]:
        n = len(delta.vertices)
        maps = list(_isomorphisms(delta, delta))
        assert len(set(maps)) == len(maps) and maps[0] == tuple(range(n)), delta
        for image in maps:
            assert sorted(image) == list(range(n)), delta
            assert all(delta.part[delta.vertices[i]] == delta.part[delta.vertices[k]]
                       for i, k in enumerate(image)), delta
            moved = {sum(1 << image[i] for i in range(n) if m >> i & 1) for m in delta.facet_masks}
            assert moved == delta.facet_masks, delta
    # the board's 8 symmetries, since nogo respects them all
    assert len(list(_isomorphisms(grid, grid))) == 8


def test_isomorphisms_match_brute_force_in_order():
    """On complexes of at most 5 vertices the search yields exactly the
    isomorphisms a scan of every permutation finds, in the same
    (lexicographic) order, so ``are_isomorphic``'s witness is the first of
    them, as it was before shared-facet counts pruned the search."""
    rng = random.Random(31)
    pairs = [(d, d) for d in all_labeled_complexes("abcd")]
    for _ in range(150):
        delta = random_complex(rng, 5)
        image = [f"w{i}" for i in range(len(delta.vertices))]
        rng.shuffle(image)
        pairs += [(delta, delta), (delta, relabel(delta, dict(zip(delta.vertices, image))))]
        pairs.append((delta, random_complex(rng, 5)))
    for a, b in pairs:
        oracle = isomorphisms_oracle(a, b)
        assert [named(a, b, image) for image in _isomorphisms(a, b)] == oracle, (a, b)
        assert are_isomorphic(a, b) == (oracle[0] if oracle else None), (a, b)


def test_are_isomorphic_on_a_steiner_triple_system():
    """Every vertex pair of a Steiner triple system shares one facet, so the
    shared-facet counts prune nothing; each facet is checked once its last
    vertex is mapped, so the search finds a witness onto a seeded
    relabelling of the cyclic system on 13 points, and the 39 automorphisms,
    without walking the 13! bijections."""
    blocks = {frozenset((x + s) % 13 for x in base) for base in ((0, 1, 4), (0, 2, 7)) for s in range(13)}
    sts = from_facets([[f"p{i:02d}" for i in b] for b in blocks], {f"p{i:02d}": "L" for i in range(13)})
    names = [f"q{i:02d}" for i in range(13)]
    random.Random(32).shuffle(names)
    other = relabel(sts, dict(zip(sts.vertices, names)))
    iso = are_isomorphic(sts, other)
    assert iso is not None and relabel(sts, iso) == other
    assert len(list(_isomorphisms(sts, sts))) == 39


def test_isomorphisms_search_the_complements_of_large_facets():
    """The complements of the cyclic system's triples are 10-sets, which
    close only deep in a search over them; their complements, the triples,
    are searched instead, so the witness onto a seeded relabelling and the
    39 automorphisms come as fast as the system's own.  A simplex's facet
    complements to the empty mask, which every part-preserving bijection
    keeps."""
    points = [f"p{i:02d}" for i in range(13)]
    blocks = {frozenset((x + s) % 13 for x in base) for base in ((0, 1, 4), (0, 2, 7)) for s in range(13)}
    system = from_facets([[p for i, p in enumerate(points) if i not in b] for b in blocks],
                         {p: "L" for p in points})
    names = [f"q{i:02d}" for i in range(13)]
    random.Random(33).shuffle(names)
    other = relabel(system, dict(zip(system.vertices, names)))
    iso = are_isomorphic(system, other)
    assert iso is not None and relabel(system, iso) == other
    assert len(list(_isomorphisms(system, system))) == 39
    simplex = from_facets(["abc"], {"a": "L", "b": "L", "c": "R"})
    assert list(_isomorphisms(simplex, simplex)) == [(0, 1, 2), (1, 0, 2)]


def test_are_isomorphic_needs_no_recursion_per_vertex():
    # one search step per vertex: 1,200 of them nest past the recursion limit
    names = [f"{i:04d}" for i in range(1200)]
    parts = ["LR"[i % 2] for i in range(1200)]
    a = from_facets([["a" + n for n in names]], {"a" + n: p for n, p in zip(names, parts)})
    b = from_facets([["b" + n for n in names]], {"b" + n: p for n, p in zip(names, parts)})
    assert are_isomorphic(a, b) == {"a" + n: "b" + n for n in names}


def test_json_roundtrip_on_corpus():
    for delta in all_labeled_complexes("abc"):
        assert complex_from_obj(json.loads(dumps(complex_to_obj(delta)))) == delta


def test_ideal_json_roundtrip_keeps_parts():
    rng = random.Random(11)
    for delta in [*all_labeled_complexes("abc"), *(random_complex(rng) for _ in range(100))]:
        for idl in (facet_ideal(delta), sr_ideal(delta)):
            assert ideal_from_obj(json.loads(dumps(ideal_to_obj(idl)))) == idl


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        complex_from_obj({"vertices": [], "facets": [["a"]]})
    with pytest.raises(ValueError):
        complex_from_obj({"vertices": [{"id": "a", "part": "L"}], "facets": [], "void": True})
    with pytest.raises(ValueError):
        complex_from_obj(
            {"vertices": [{"id": "a", "part": "L"}, {"id": "a", "part": "R"}], "facets": [["a"]]}
        )
    with pytest.raises(ValueError):
        complex_from_obj({"vertices": [{"id": "a", "part": "L"}], "facets": []})


def test_complex_obj_shape():
    obj = complex_to_obj(AB_BC)
    assert obj == {
        "vertices": [
            {"id": "a", "part": "L"},
            {"id": "b", "part": "L"},
            {"id": "c", "part": "R"},
        ],
        "facets": [["a", "b"], ["b", "c"]],
        "void": False,
    }


@st.composite
def complexes(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vs = [f"v{i}" for i in range(n)]
    part = {v: draw(st.sampled_from("LR")) for v in vs}
    n_facets = draw(st.integers(min_value=1, max_value=6))
    fams = [
        draw(st.sets(st.sampled_from(vs), min_size=1, max_size=n))
        for _ in range(n_facets)
    ]
    return from_facets(fams, part)


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_dualities_random(delta):
    assert facet_complex(facet_ideal(delta)) == delta
    assert sr_complex(sr_ideal(delta)) == delta
    assert sr_ideal(delta).generators == minimal_nonfaces(delta)


@settings(max_examples=40, deadline=None)
@given(complexes(), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabel(delta, rng):
    names = list(delta.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    # send vertices to fresh names in shuffled order so the orders differ
    mapping = {v: f"w{shuffled.index(v)}" for v in names}
    other = relabel(delta, mapping)
    iso = are_isomorphic(delta, other)
    assert iso is not None
    assert {iso[v] for v in names} == set(other.vertices)


def test_random_complex_helper_is_wellformed():
    rng = random.Random(7)
    for _ in range(50):
        delta = random_complex(rng)
        assert not delta.is_void
        assert set().union(*delta.facets) == set(delta.vertices)


@pytest.mark.parametrize(
    "obj",
    [
        {"vertices": [{"id": "a"}], "facets": [["a"]]},
        {"vertices": [1], "facets": []},
        {"vertices": "ab", "facets": []},
        {"vertices": [{"id": "a", "part": "L"}], "facets": [1]},
        {"vertices": [{"id": ["a"], "part": "L"}], "facets": [["a"]]},
        {"vertices": [{"id": 1, "part": "L"}], "facets": [[1]]},
        {"vertices": [{"id": "a", "part": "L"}], "facets": "a"},
    ],
    ids=["no-part", "vertex-int", "vertices-string", "facet-int", "id-list", "id-int",
         "facets-string"],
)
def test_complex_from_obj_rejects_malformed_objects(obj):
    with pytest.raises(ValueError, match="malformed complex object"):
        complex_from_obj(obj)

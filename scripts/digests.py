#!/usr/bin/env python3
"""Print one sha256 per library output over a fixed seeded corpus, so that
"outputs unchanged" between two checkouts is one command in each and a diff.

The complexes are every labelled complex on the vertices a-d
(``all_labeled_complexes("abcd")`` of ``tests/conftest.py``), 200 of its
``random_complex`` of up to 6 vertices (seed 0), and complexes built by an
analysis: the legal and illegal complexes of the four ``solve`` games of
``perfbench``, the legal complexes of NoGo on ``cycle:10`` (whose vertex
order is not the basic-position order) and on ``path:1`` (whose only face
is empty), and both complexes of both table games that ``realize_both``
builds for 20 more ``random_complex`` inputs.  For each complex the digested
outputs are ``value_str(canonical_value)``, ``tree_to_dot``, ``node_count``,
``f_vector``, ``minimal_nonfaces``, ``is_flag``, the ``are_isomorphic``
witness against a seeded relabelling, its ``repr`` and ``complex_to_obj``,
its facet and Stanley–Reisner ideals (``repr`` and ``ideal_to_obj``), and
``complex_to_obj`` of the Stanley–Reisner complex of the latter.  For each
analysis above come its legal and illegal ideals.  Then come the maps of
``piece_placements`` for the distance-game pieces on the n=3 and n=4 boards
of a few complexes, and of ``induced_embeddings`` on small grids, in the
order the library returns them.  Last come the verdicts of the three
verifiers: ``check_condition_iv`` and ``check_invariance`` (30 samples, seeds
0-3, at most 1-3 pieces) for snort, col, nogo, domineering and free
placement on five small boards, and ``verify_roundtrip`` of each kind over
every labelled complex on the vertices a-c.  The message of a
``ValueError`` stands in for a verdict: domineering refuses boards without
grid coordinates, and the distance game complexes with isolated vertices.

Usage: python3 scripts/digests.py
"""
from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import all_labeled_complexes, random_complex
from spg.boards import (
    build_cycle, build_grid, build_path, gamma_board, gamma_piece, induced_embeddings,
    piece_placements,
)
from spg.cli import parse_board_spec
from spg.complexes import (
    are_isomorphic, complex_to_obj, facet_ideal, from_facets, ideal_to_obj, is_flag,
    minimal_nonfaces, relabel, sr_complex, sr_ideal,
)
from spg.construct import realize_both, verify_roundtrip
from spg.engine import analyze, check_condition_iv, check_invariance, legal_complex
from spg.gametree import canonical_value, tree_to_dot, value_str
from spg.rulesets import col, domineering, free_placement, nogo, snort

SOLVE = (
    (snort, build_path(10), 24),
    (col, build_cycle(10), 24),
    (nogo, build_grid(3, 3), 24),
    (domineering, build_grid(3, 4), 40),
)


def corpus() -> tuple[list, list]:
    """The complexes, and the analyses some of them come from."""
    rng = random.Random(0)
    out = all_labeled_complexes("abcd")
    out += [random_complex(rng) for _ in range(200)]
    analyses = [analyze(game(), board, cap=cap) for game, board, cap in SOLVE]
    analyses += [analyze(nogo(), build_cycle(10)), analyze(nogo(), build_path(1))]
    out += [a.legal_complex() for a in analyses]
    out += [a.illegal_complex() for a in analyses[:len(SOLVE)]]
    for delta in [random_complex(rng) for _ in range(20)]:
        for r in realize_both(delta):
            a = analyze(r.game, r.board)
            analyses.append(a)
            out += [a.legal_complex(), a.illegal_complex()]
    return out, analyses


def witness(delta, rng: random.Random) -> list | None:
    """The isomorphism witness from ``delta`` onto a seeded relabelling of it."""
    names = [f"w{i}" for i in range(len(delta.vertices))]
    rng.shuffle(names)
    image = relabel(delta, dict(zip(delta.vertices, names)))
    found = are_isomorphic(delta, image)
    return sorted(found.items()) if found is not None else None


COMPLEX_OUTPUTS = {
    "value": lambda d, rng: value_str(canonical_value(d)),
    "tree_to_dot": lambda d, rng: tree_to_dot(d),
    "node_count": lambda d, rng: d.node_count,
    "f_vector": lambda d, rng: d.f_vector,
    "minimal_nonfaces": lambda d, rng: sorted(sorted(f) for f in minimal_nonfaces(d)),
    "is_flag": lambda d, rng: is_flag(d),
    "iso_witness": witness,
    "repr": lambda d, rng: repr(d),
    "complex_to_obj": lambda d, rng: complex_to_obj(d),
    "facet_ideal": lambda d, rng: (repr(facet_ideal(d)), ideal_to_obj(facet_ideal(d))),
    "sr_ideal": lambda d, rng: (repr(sr_ideal(d)), ideal_to_obj(sr_ideal(d))),
    "sr_complex": lambda d, rng: complex_to_obj(sr_complex(sr_ideal(d))),
}

# illegal complexes whose distance boards the pieces are placed on
PLACEMENT_COMPLEXES = (
    from_facets(["ab", "bc"], {"a": "L", "b": "R", "c": "L"}),
    from_facets(["abc"], {"a": "L", "b": "L", "c": "R"}),
    from_facets(["abc", "bcd", "ad"], {"a": "L", "b": "R", "c": "L", "d": "R"}),
    from_facets(["ab", "bc", "cd"], {"a": "R", "b": "L", "c": "R", "d": "L"}),
)

# (vertices, edges) of induced patterns, some disconnected
PATTERNS = (
    ((0, 1, 2), ((0, 1), (1, 2))),
    ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3))),
    ((0, 1, 2, 3), ((0, 1), (1, 2), (1, 3))),
    ((0, 1, 2), ((0, 1),)),
    ((0, 1), ()),
)


VERIFIER_GAMES = (snort, col, nogo, domineering, free_placement)
VERIFIER_BOARDS = ("path:5", "cycle:6", "grid:2x3", "grid:3x3", "union:(path:2,path:1)")


def verdict(check, *args, **kwargs) -> tuple:
    """(status, detail, witness, samples_run) of a verifier's report, or the
    message of the ``ValueError`` it raised.  A report without a status or a
    sample count reads as ``passed`` and 0."""
    try:
        rep = check(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))
    status = getattr(rep, "status", None) or ("PASS" if rep.passed else "FAIL")
    return status, rep.detail, rep.witness, getattr(rep, "samples_run", 0)


def roundtrip(kind: str, delta) -> tuple:
    """(status, detail, computed) of a round trip, or the message of the
    ``ValueError`` its construction raised."""
    try:
        rep = verify_roundtrip(kind, delta)
    except ValueError as exc:
        return ("ValueError", str(exc))
    computed = complex_to_obj(rep.computed) if rep.computed is not None else None
    return rep.status, rep.detail, computed


def verifier_outputs() -> dict[str, list]:
    """The verdicts of the two predicate verifiers and the round trips."""
    condition, invariance = [], []
    for game in VERIFIER_GAMES:
        for spec in VERIFIER_BOARDS:
            board = parse_board_spec(spec)
            condition.append(verdict(check_condition_iv, game(), board))
            invariance += [
                verdict(check_invariance, game(), board, samples=30, seed=seed, max_pieces=k)
                for seed in range(4)
                for k in range(1, 4)
            ]
    trips = [roundtrip(kind, delta)
             for kind in ("both", "illegal", "legal")
             for delta in all_labeled_complexes("abc")]
    return {"check_condition_iv": condition, "check_invariance": invariance,
            "verify_roundtrip": trips}


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    complexes, analyses = corpus()
    print(f"complexes {len(complexes)}")
    for name, output in COMPLEX_OUTPUTS.items():
        rng = random.Random(1)
        print(f"{name} {digest(output(d, rng) for d in complexes)}")
    print(f"analyses {len(analyses)}")
    for side in ("legal_ideal", "illegal_ideal"):
        ideals = [getattr(a, side)() for a in analyses]
        print(f"{side} {digest((repr(i), ideal_to_obj(i)) for i in ideals)}")
    placements = []
    for gamma in PLACEMENT_COMPLEXES:
        board = gamma_board(gamma)
        for player in ("L", "R"):
            found = piece_placements(board, gamma_piece(len(gamma.vertices), player))
            placements.append([p.sort_key for p in found])
    print(f"piece_placements {digest(placements)}")
    embeddings = [
        [sorted(m.items()) for m in induced_embeddings(build_grid(rows, cols), vs, es)]
        for rows, cols in ((2, 3), (3, 3), (3, 4))
        for vs, es in PATTERNS
    ]
    print(f"induced_embeddings {digest(embeddings)}")
    for name, outputs in verifier_outputs().items():
        print(f"{name} {len(outputs)} {digest(outputs)}")


if __name__ == "__main__":
    main()

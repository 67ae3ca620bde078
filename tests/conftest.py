"""Shared corpora and the acceptance-criteria summary hook."""
from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from spg.boards import Board, board, vertex_piece
from spg.complexes import (
    LabeledComplex,
    bits,
    empty_face_complex,
    from_facets,
    void_complex,
)
from spg.rulesets import Ruleset


def antichains(vertices) -> list[frozenset[frozenset[str]]]:
    """Every antichain of nonempty subsets of ``vertices``, the empty one
    included.  Antichains are exactly the possible facet families."""
    vs = sorted(vertices)
    subs = [
        frozenset(c) for r in range(1, len(vs) + 1) for c in combinations(vs, r)
    ]
    out: list[frozenset[frozenset[str]]] = []

    def rec(i: int, chosen: tuple[frozenset[str], ...]) -> None:
        if i == len(subs):
            out.append(frozenset(chosen))
            return
        rec(i + 1, chosen)
        s = subs[i]
        if not any(s <= t or t <= s for t in chosen):
            rec(i + 1, chosen + (s,))

    rec(0, ())
    return out


def part_assignments(used):
    """All L/R part maps over the given vertices."""
    used = sorted(used)
    for bits in range(2 ** len(used)):
        yield {v: ("R" if bits >> i & 1 else "L") for i, v in enumerate(used)}


def all_labeled_complexes(vertices, include_degenerate: bool = True):
    """Every labeled complex whose vertices come from the given pool: every
    facet antichain crossed with every bipartition of the vertices it uses."""
    out: list[LabeledComplex] = []
    if include_degenerate:
        out.append(void_complex())
        out.append(empty_face_complex())
    for ac in antichains(vertices):
        if not ac:
            continue
        used = set().union(*ac)
        for part in part_assignments(used):
            out.append(from_facets(ac, part))
    return out


def random_complex(rng: random.Random, max_vertices: int = 6) -> LabeledComplex:
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    part = {v: rng.choice("LR") for v in vs}
    fams = []
    for _ in range(rng.randint(1, 2 * n)):
        fams.append(rng.sample(vs, rng.randint(1, n)))
    return from_facets(fams, part)


def node_count_oracle(delta: LabeledComplex) -> int:
    """The number of play sequences on ``delta``, the empty one included,
    counted move by move from the facets alone: a position extends by a
    vertex whenever the larger set lies in some facet, and the count of
    sequences from a position is memoised by its set.  It reads neither
    ``face_masks`` nor ``faces``, so a wrong face list cannot pass it."""
    memo: dict[frozenset[str], int] = {}

    def sequences(position: frozenset[str]) -> int:
        if position not in memo:
            memo[position] = 1 + sum(
                sequences(position | {v})
                for v in delta.vertices
                if v not in position and any(position | {v} <= f for f in delta.facets)
            )
        return memo[position]

    return sequences(frozenset())


def connected_boards(n: int):
    """All labeled connected graphs on vertex set 0..n-1, as boards."""
    vs = list(range(n))
    pairs = list(combinations(vs, 2))
    for bits in range(2 ** len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        adj = {v: set() for v in vs}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0} if vs else set()
        stack = [0] if vs else []
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            yield board(vs, edges)


def judge(game: Ruleset, b: Board, *placements) -> bool:
    """The verdict of ``game`` on the position made of ``placements``: its
    predicate compiled over exactly these placements, asked about all of them."""
    return game.legal(b, placements)((1 << len(placements)) - 1)


def on_placement_sets(rule):
    """A ruleset predicate from a rule on ``(board, frozenset of placements)``."""

    def legal(b: Board, placements):
        return lambda mask: rule(b, frozenset(placements[i] for i in bits(mask)))

    return legal


def degree_one_game() -> Ruleset:
    """Single-vertex pieces; occupying any vertex of board degree 1 is
    forbidden, everything else is allowed."""
    pieces = {"L": vertex_piece("L"), "R": vertex_piece("R")}

    def legal(b: Board, pos) -> bool:
        return all(b.degree(v) != 1 for pl in pos for v in pl.occupied)

    return Ruleset("degree-one", pieces, on_placement_sets(legal), claims_invariant=True)


def run_spg_capped(*argv: str, cwd):
    """``python -m spg *argv`` in a child process capped at 400 MB of address
    space and cut after 60 s, for inputs that would exhaust the machine's
    memory if ``spg`` regressed.  Returns the completed process, with text
    output."""
    limit = 400 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "spg", *argv], env={**os.environ, "PYTHONPATH": str(src)},
        cwd=cwd, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )


@pytest.fixture
def lshape_board() -> Board:
    from spg.boards import grid_from_cells

    return grid_from_cells([(0, 0), (1, 0), (2, 0), (2, 1)])


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion


_ACCEPTANCE: dict[int, dict] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    crit = marker.kwargs["criterion"]
    entry = _ACCEPTANCE.setdefault(crit, {"title": marker.kwargs["title"], "results": []})
    entry["results"].append(rep.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for crit in sorted(_ACCEPTANCE):
        entry = _ACCEPTANCE[crit]
        ok = entry["results"] and all(r == "passed" for r in entry["results"])
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {crit:2d}: {status}  {entry['title']}")

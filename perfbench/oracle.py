"""Brute-force references that share no code with ``spg``.

The benchmark checks ``spg``'s answers against these, and ``expected.json``
records answers that this module reproduces.  Run it as a script to recheck
that file (it takes a few minutes)::

    python3 perfbench/oracle.py

Games are re-implemented from their rules.  A position is a set of basic
positions (one placement each); legal positions are found by enumerating
every set with pairwise disjoint supports, applying the rule, and keeping the
sets whose one-smaller subsets are all legal (downward closure).  Values are
checked by their definition: G equals H exactly when G - H is a win for the
second player.
"""
from __future__ import annotations

import json
import os
import sys
from itertools import combinations
from math import factorial

import gen

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# Rules


def _adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def basic_positions(game, brd):
    """(player, occupied vertices) for every single placement."""
    vertices, edges, _ = brd
    if game == "domineering":
        shapes = [frozenset(e) for e in edges]
    else:
        shapes = [frozenset({v}) for v in vertices]
    return [(p, s) for p in "LR" for s in shapes]


def rule(game, brd):
    """The legality rule as a function of (left vertices, right vertices,
    placements)."""
    vertices, edges, coords = brd
    adj = _adjacency(vertices, edges)

    def snort(left, right, _):
        return not any(adj[v] & right for v in left)

    def col(left, right, _):
        return not any(adj[v] & left for v in left) and not any(adj[v] & right for v in right)

    def nogo(left, right, _):
        occupied = left | right
        for own in (left, right):
            seen = set()
            for start in own:
                if start in seen:
                    continue
                group, stack = {start}, [start]
                while stack:
                    for w in adj[stack.pop()] & own:
                        if w not in group:
                            group.add(w)
                            stack.append(w)
                seen |= group
                if all(adj[v] <= occupied for v in group):
                    return False
        return True

    def domineering(_, __, placements):
        for player, occ in placements:
            (r1, c1), (r2, c2) = sorted(coords[v] for v in occ)
            if player == "L" and not (c1 == c2 and r2 - r1 == 1):
                return False
            if player == "R" and not (r1 == r2 and c2 - c1 == 1):
                return False
        return True

    return {"snort": snort, "col": col, "nogo": nogo, "domineering": domineering}[game]


# ---------------------------------------------------------------------------
# Legal positions


class Analysis:
    """Legal sets, facets and minimal illegal sets of a game on a board, as
    frozensets of basic-position indices."""

    def __init__(self, game, brd):
        self.basic = basic_positions(game, brd)
        self.parts = [p for p, _ in self.basic]
        ok = rule(game, brd)
        by_size = {}
        stack = [((), frozenset(), 0)]
        while stack:
            chosen, occupied, start = stack.pop()
            by_size.setdefault(len(chosen), []).append(chosen)
            for i in range(start, len(self.basic)):
                if not self.basic[i][1] & occupied:
                    stack.append((chosen + (i,), occupied | self.basic[i][1], i + 1))
        legal = set()
        for size in sorted(by_size):
            for t in by_size[size]:
                left = set().union(*(self.basic[i][1] for i in t if self.parts[i] == "L"))
                right = set().union(*(self.basic[i][1] for i in t if self.parts[i] == "R"))
                ft = frozenset(t)
                if ok(left, right, [self.basic[i] for i in t]) and all(ft - {c} in legal for c in ft):
                    legal.add(ft)
        self.legal = legal
        m = len(self.basic)
        self.facets = [s for s in legal if not any(s | {b} in legal for b in range(m) if b not in s)]
        minimal = set()
        for s in legal:
            for b in range(m):
                u = s | {b}
                if b not in s and u not in legal and all(u - {c} in legal for c in u):
                    minimal.add(u)
        self.minimal_illegal = minimal

    @classmethod
    def of_complex(cls, facets, part):
        """The game whose positions are the faces of a labeled complex: a
        player's move adds one vertex of their own part."""
        self = cls.__new__(cls)
        names = sorted(part)
        self.basic = [(part[v], frozenset({v})) for v in names]
        self.parts = [part[v] for v in names]
        index = {v: i for i, v in enumerate(names)}
        self.legal = {
            frozenset(index[v] for v in s) for f in facets for r in range(len(f) + 1) for s in combinations(f, r)
        }
        m = len(names)
        self.facets = [s for s in self.legal if not any(s | {b} in self.legal for b in range(m) if b not in s)]
        self.minimal_illegal = {
            s | {b} for s in self.legal for b in range(m)
            if b not in s and s | {b} not in self.legal and all((s | {b}) - {c} in self.legal for c in s | {b})
        }
        return self

    def counts(self):
        used = set().union(*self.facets) if self.facets else set()
        return {
            "basic_positions": len(self.basic),
            "legal_sets": len(self.legal),
            "facets": len(self.facets),
            "legal_vertices": len(used),
            "minimal_illegal": len(self.minimal_illegal),
            "tree_nodes": sum(factorial(len(s)) for s in self.legal),
        }

    def moves(self, face, player):
        return [
            face | {b}
            for b in range(len(self.basic))
            if self.parts[b] == player and b not in face and face | {b} in self.legal
        ]

    def outcome(self):
        """L, R, P or N by plain minimax over legal positions."""
        memo = {}

        def wins_moving_first(face, player):
            key = (face, player)
            if key not in memo:
                other = "R" if player == "L" else "L"
                memo[key] = any(not wins_moving_first(t, other) for t in self.moves(face, player))
            return memo[key]

        left, right = wins_moving_first(frozenset(), "L"), wins_moving_first(frozenset(), "R")
        return {(True, True): "N", (False, False): "P", (True, False): "L", (False, True): "R"}[(left, right)]

    def equals_value(self, text):
        """True when the game equals the value written as ``text``: the
        difference game is lost by whoever moves first."""
        h = parse_value(text)
        memo = {}

        # the difference G - H: Left moves in G or to the negative of one of
        # H's right options; Right moves in G or to a negated left option of H
        def options(state, player):
            face, node = state
            left_opts, right_opts = _OPTIONS[node]
            in_g = [(t, node) for t in self.moves(face, player)]
            in_h = [(face, n) for n in (right_opts if player == "L" else left_opts)]
            return in_g + in_h

        def wins_moving_first(state, player):
            key = (state, player)
            if key not in memo:
                other = "R" if player == "L" else "L"
                memo[key] = any(not wins_moving_first(s, other) for s in options(state, player))
            return memo[key]

        start = (frozenset(), h)
        return not wins_moving_first(start, "L") and not wins_moving_first(start, "R")


# ---------------------------------------------------------------------------
# Value strings: integers, *, +-n, and {left,...|right,...}


_IDS: dict = {}
_OPTIONS: list = []


def _node(left, right):
    """An integer id per distinct (left options, right options) pair of
    option sets, so equal canonical forms get equal ids whatever order their
    options were written in."""
    key = (tuple(sorted(set(left))), tuple(sorted(set(right))))
    if key not in _IDS:
        _IDS[key] = len(_OPTIONS)
        _OPTIONS.append(key)
    return _IDS[key]


def _integer(n):
    g = _node((), ())
    for _ in range(abs(n)):
        g = _node((g,), ()) if n > 0 else _node((), (g,))
    return g


def parse_value(text):
    """The id of the game tree (see ``_OPTIONS``) written as a value string
    in the notation of ``spg``'s ``value_str``."""
    pos = 0

    def item():
        nonlocal pos
        if text[pos] == "{":
            pos += 1
            left = items("|")
            pos += 1
            right = items("}")
            pos += 1
            return _node(left, right)
        end = pos
        while end < len(text) and text[end] not in ",|}":
            end += 1
        token, pos = text[pos:end], end
        if token == "*":
            zero = _integer(0)
            return _node((zero,), (zero,))
        if token.startswith("+-"):
            n = int(token[2:])
            return _node((_integer(n),), (_integer(-n),))
        return _integer(int(token))

    def items(stop):
        nonlocal pos
        out = []
        while text[pos] != stop:
            out.append(item())
            if text[pos] == ",":
                pos += 1
        return out

    g = item()
    if pos != len(text):
        raise ValueError(f"trailing text in value {text!r}")
    return g


# ---------------------------------------------------------------------------
# Checks of complex-level answers


def iso_witness_ok(a, b, phi):
    """``phi`` is a part-preserving bijection carrying a's facets onto b's."""
    (fa, pa), (fb, pb) = a, b
    if phi is None or set(phi) != set(pa) or set(phi.values()) != set(pb):
        return False
    if any(pa[v] != pb[phi[v]] for v in pa):
        return False
    return {frozenset(phi[v] for v in f) for f in fa} == {frozenset(f) for f in fb}


def complex_facts(facets, vertices):
    """What ``spg complex info``, ``flag``, ``nonfaces`` and ``dual`` report
    about a complex, by plain subset enumeration: its facets, its number of
    faces (the empty face included), its minimal nonfaces, whether it is a
    flag complex and whether it is a simplex."""
    facets = {frozenset(f) for f in facets}
    nonfaces = {frozenset(f) for f in gen.minimal_nonfaces(tuple(tuple(f) for f in facets), sorted(vertices))}
    faces = {frozenset(s) for f in facets for r in range(len(f) + 1) for s in combinations(sorted(f), r)}
    return {
        "facets": facets,
        "faces": len(faces),
        "nonfaces": nonfaces,
        "flag": all(len(n) == 2 for n in nonfaces),
        "simplex": facets == {frozenset(vertices)},
    }


def ideal_complex_facets(variables, generators):
    """Facets of the complex whose faces are the sets of ``variables`` that
    contain no generator (the Stanley-Reisner complex of the ideal)."""
    gens = [frozenset(g) for g in generators]
    faces = [
        frozenset(s) for r in range(len(variables) + 1) for s in combinations(sorted(variables), r)
        if not any(g <= set(s) for g in gens)
    ]
    return {f for f in faces if not any(f < g for g in faces)}


# ---------------------------------------------------------------------------
# Rechecking expected.json


def board_from_spec(spec):
    head, _, rest = spec.partition(":")
    if head == "path":
        return gen.path(int(rest))
    if head == "cycle":
        return gen.cycle(int(rest))
    if head == "grid":
        rows, _, cols = rest.partition("x")
        return gen.grid(int(rows), int(cols))
    raise ValueError(f"unknown board spec {spec!r}")


def complex_input(obj):
    """(facets, part) of a complex written in spg's JSON input format."""
    return [tuple(f) for f in obj["facets"]], {v["id"]: v["part"] for v in obj["vertices"]}


def check_game_entry(entry, inputs):
    """Differences between one expected game answer and the oracle's."""
    if "complex" in entry:
        a = Analysis.of_complex(*complex_input(inputs[entry["complex"]]))
    else:
        a = Analysis(entry["ruleset"], board_from_spec(entry["board"]))
    problems = []
    for key, got in a.counts().items():
        if key in entry and entry[key] != got:
            problems.append(f"{key}: expected {entry[key]}, oracle {got}")
    if "outcome" in entry and entry["outcome"] != a.outcome():
        problems.append(f"outcome: expected {entry['outcome']}, oracle {a.outcome()}")
    if "value" in entry and not a.equals_value(entry["value"]):
        problems.append(f"value {entry['value']!r} is not the game's value")
    return problems


def main():
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    bad = 0
    entries = [(f"solve {k}", e) for k, e in expected["solve"].items()]
    entries += [(f"cli {k}", e["game"]) for k, e in expected["cli"].items() if "game" in e]
    for name, entry in entries:
        problems = check_game_entry(entry, expected["inputs"])
        bad += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}: {'; '.join(problems)}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

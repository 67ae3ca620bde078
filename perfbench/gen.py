"""Seeded input generators for the benchmark.

Everything here is plain Python data (facet tuples, part maps, edge lists),
independent of ``spg``: the harness turns it into ``spg`` objects during
set-up, and the oracle reads the same data to compute its references.

A complex is ``(facets, part)``: ``facets`` a tuple of sorted name tuples,
``part`` a dict from each used name to "L" or "R".  A board is
``(vertices, edges, coords)`` with ``coords`` ``None`` or a dict from vertex
id to (row, col).
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations


def _antichains(names):
    """Every antichain of nonempty subsets of ``names``, the empty one included."""
    subs = [c for r in range(1, len(names) + 1) for c in combinations(names, r)]
    out = []

    def rec(i, chosen):
        if i == len(subs):
            out.append(chosen)
            return
        rec(i + 1, chosen)
        s = set(subs[i])
        if not any(s <= set(t) or set(t) <= s for t in chosen):
            rec(i + 1, chosen + (subs[i],))

    rec(0, ())
    return out


def _parts(used):
    used = sorted(used)
    for bits in range(2 ** len(used)):
        yield {v: "RL"[bits >> i & 1] for i, v in enumerate(used)}


@lru_cache(maxsize=None)
def labeled_complexes(names="abcd"):
    """Every labeled complex over the name pool: the void complex (no facets),
    the complex whose only face is empty, then every facet antichain crossed
    with every L/R assignment of the names it uses.  2,170 for "abcd"."""
    out = [((), {}), (((),), {})]
    for ac in _antichains(tuple(names)):
        if ac:
            used = set().union(*ac)
            out.extend((ac, part) for part in _parts(used))
    return tuple(out)


def one_skeleton(facets):
    """The edges (vertex pairs) lying in some facet."""
    return {pair for f in facets for pair in combinations(sorted(f), 2)}


def is_simplex(facets):
    return len(facets) == 1


def minimal_nonfaces(facets, vertices):
    """Minimal non-faces by plain subset enumeration: subsets of ``vertices``
    in no facet whose one-smaller subsets all lie in some facet."""
    fsets = [set(f) for f in facets]

    def face(s):
        return any(set(s) <= f for f in fsets)

    out = set()
    for r in range(len(vertices) + 1):
        for combo in combinations(sorted(vertices), r):
            if not face(combo) and all(face(combo[:i] + combo[i + 1 :]) for i in range(r)):
                out.add(combo)
    return out


@lru_cache(maxsize=None)
def gapless_complexes(n):
    """Complexes using all of the first ``n`` names with no singleton facet
    (the distance-game constructions refuse isolated vertices)."""
    names = "abcdefgh"[:n]
    out = []
    for facets, part in labeled_complexes(names):
        if not facets or len(part) != n or any(len(f) < 2 for f in facets):
            continue
        out.append((facets, part))
    return tuple(out)


def shape(facets):
    """The sorted degree sequence of the 1-skeleton, which on at most four
    vertices names the graph up to isomorphism and with it the layout of the
    distance board built for the complex, plus the sorted facet sizes, which
    set the distance game's id-sets."""
    degree = {}
    for a, b in one_skeleton(facets):
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return tuple(sorted(degree.values())), tuple(sorted(len(f) for f in facets))


@lru_cache(maxsize=None)
def nonface_shape(facets, vertices):
    """The shape of the complex of minimal nonfaces, plus the number of
    vertices in no minimal nonface: together they fix the board and game
    that realise ``facets`` as a legal complex."""
    nonfaces = minimal_nonfaces(facets, vertices)
    return len(vertices) - len(set().union(*nonfaces)), shape(nonfaces)


def prepare_pools():
    """Build the seed-independent complex pools once per process."""
    labeled_complexes("abcd")
    for n in (3, 4):
        for facets, part in gapless_complexes(n):
            nonface_shape(facets, tuple(sorted(part)))


def sample_stratified(rng, population, key, per_stratum=1):
    """``per_stratum`` draws from every stratum of ``population`` under
    ``key``, strata in sorted order: the mix of job sizes is the same for
    every seed, only the members change."""
    strata = {}
    for item in population:
        strata.setdefault(key(item), []).append(item)
    picked = []
    for k in sorted(strata):
        picked.extend(rng.sample(strata[k], min(per_stratum, len(strata[k]))))
    return picked


def sample_proportional(rng, population, key, total):
    """About ``total`` draws spread over the strata of ``population`` under
    ``key`` in proportion to their sizes (at least one each), so the mix of
    job sizes barely depends on the seed."""
    strata = {}
    for item in population:
        strata.setdefault(key(item), []).append(item)
    picked = []
    for k in sorted(strata):
        share = max(1, round(total * len(strata[k]) / len(population)))
        picked.extend(rng.sample(strata[k], min(share, len(strata[k]))))
    return picked


def random_connected_graph(rng, n, extra_p=0.3):
    """A random spanning tree on 0..n-1 plus each other pair with
    probability ``extra_p``."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for a, b in combinations(range(n), 2):
        if (a, b) not in edges and rng.random() < extra_p:
            edges.add((a, b))
    return tuple(range(n)), tuple(sorted(edges)), None


def path(n):
    return tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)), None


def cycle(n):
    return tuple(range(n)), tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))), None


def grid(rows, cols):
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    ids = {cell: i for i, cell in enumerate(cells)}
    edges = []
    for (r, c), i in ids.items():
        for nb in ((r + 1, c), (r, c + 1)):
            if nb in ids:
                edges.append((i, ids[nb]))
    return tuple(ids.values()), tuple(edges), {i: cell for cell, i in ids.items()}


def relabel_board(rng, brd):
    """The same board with its vertex ids shuffled (coordinates follow)."""
    vertices, edges, coords = brd
    perm = list(vertices)
    rng.shuffle(perm)
    phi = dict(zip(vertices, perm))
    new_edges = tuple(sorted((min(phi[a], phi[b]), max(phi[a], phi[b])) for a, b in edges))
    new_coords = None if coords is None else {phi[v]: rc for v, rc in coords.items()}
    return tuple(sorted(perm)), new_edges, new_coords


def relabel_complex(rng, cx, prefix="w"):
    """The complex under a random bijection onto fresh names; returns the
    relabelled complex and the bijection."""
    facets, part = cx
    names = sorted(part)
    fresh = [f"{prefix}{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    phi = dict(zip(names, fresh))
    new_facets = tuple(tuple(sorted(phi[v] for v in f)) for f in facets)
    return (new_facets, {phi[v]: p for v, p in part.items()}), phi


def rng_for(seed, workload):
    """One generator per (seed, workload), so workloads draw independently."""
    return random.Random(f"{workload}:{seed}")

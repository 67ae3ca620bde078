"""Simplicial complexes with a Left/Right vertex bipartition, and square-free ideals.

The two central types are :class:`LabeledComplex` (a simplicial complex whose
vertices are assigned to player L or player R) and :class:`SquareFreeIdeal`
(a combinatorial stand-in for a square-free monomial ideal: an ordered variable
list plus an antichain of generating supports).  Four conversions connect them:

    facet_ideal    complex -> ideal   generators are the facets
    sr_ideal       complex -> ideal   generators are the minimal nonfaces
    facet_complex  ideal -> complex   facets are the minimal generators
    sr_complex     ideal -> complex   faces are the subsets containing no generator

Two degenerate complexes are distinguished.  The void complex has no faces at
all and is stored with an empty facet set.  The complex whose only face is the
empty set stores the single facet ``frozenset()``.  On the ideal side the unit
ideal is stored as the single empty generator; with that convention all four
conversions above are exact mutual inverses, including the degenerate cases.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from math import factorial
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

PARTS = ("L", "R")


def bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def independent_sets(conflict: Sequence[int], allowed: int) -> Iterator[int]:
    """Every nonempty set of bits of ``allowed`` holding no bit of another's
    ``conflict`` mask, each once: a set is extended only above its highest bit.
    The children of a set are yielded in increasing bit order, then the last
    child is extended first."""
    stack = [(0, allowed)]
    while stack:
        s, cand = stack.pop()
        while cand:
            low = cand & -cand
            cand ^= low
            t = s | low
            yield t
            stack.append((t, cand & ~conflict[low.bit_length() - 1]))


def maximal_independent_sets(conflict: Sequence[int], allowed: int) -> Iterator[int]:
    """Every maximal set of bits of ``allowed`` holding no bit of another's
    ``conflict`` mask (each mask holds its own bit), each once: Bron–Kerbosch
    with pivoting (Tomita, Tanaka and Takahashi, 2006) on the complement of
    the conflict graph, over an explicit stack.  ``allowed == 0`` yields 0."""
    fits = [allowed & ~c for c in conflict]
    stack = [(0, allowed, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        u = max(bits(p | x), key=lambda i: (p & fits[i]).bit_count())
        for v in bits(p & ~fits[u]):
            stack.append((r | 1 << v, p & fits[v], x & fits[v]))
            p ^= 1 << v
            x |= 1 << v


def mask_components(conflict: Sequence[int], s: int) -> list[int]:
    """The connected components of ``s`` in the graph whose edges join each
    bit to the bits of its ``conflict`` mask, as masks."""
    out = []
    while s:
        comp = frontier = s & -s
        while frontier:
            reach, rest = 0, frontier
            while rest:
                low = rest & -rest
                reach |= conflict[low.bit_length() - 1]
                rest ^= low
            frontier = reach & s & ~comp
            comp |= frontier
        out.append(comp)
        s ^= comp
    return out


def factor_walk(conflict: Sequence[int], full: int,
                step: Callable[[int], list[int]]) -> list[tuple[int, list[int]]]:
    """Every set reached from ``full``, with its connected components in the
    conflict graph, smallest mask first.  A set of several components
    reaches each of them, and a connected set ``s`` reaches ``step(s)``, its
    proper subsets; so each set comes after every set it reaches."""
    split: dict[int, list[int]] = {}
    todo = [full]
    while todo:
        s = todo.pop()
        if s not in split:
            parts = split[s] = mask_components(conflict, s)
            todo += step(s) if len(parts) == 1 else parts
    return sorted(split.items())


def _independence_counts(conflict: Sequence[int], full: int) -> list[int]:
    """Entry k counts the sets of k bits of ``full`` holding no bit of
    another's ``conflict`` mask (each mask holds its own bit): the
    coefficients of the graph's independence polynomial.  A connected S has
    I(S) = I(S - v) + x·I(S - N[v]) for its lowest v, and a disconnected S
    the product over its components."""
    def step(s: int) -> list[int]:
        low = s & -s
        return [s ^ low, s & ~conflict[low.bit_length() - 1]]

    poly: dict[int, list[int]] = {}
    for s, parts in factor_walk(conflict, full, step):
        if len(parts) == 1:
            without, taken = step(s)
            out = poly[without] + [0] * (len(poly[taken]) + 1 - len(poly[without]))
            for k, c in enumerate(poly[taken]):
                out[k + 1] += c
        else:
            out = [1]
            for part in parts:
                prod = [0] * (len(out) + len(poly[part]) - 1)
                for i, a in enumerate(out):
                    for j, b in enumerate(poly[part]):
                        prod[i + j] += a * b
                out = prod
        poly[s] = out
    return poly[full]


def _byte_tables(values: Sequence[int]) -> list[list[int]]:
    """Per byte of a mask over ``values`` (bit i stands for ``values[i]``),
    a table giving the OR of the values of each byte's set bits."""
    tables = []
    for k in range(0, len(values), 8):
        table = [0]
        for v in values[k:k + 8]:
            table += [t | v for t in table]
        tables.append(table)
    return tables


def _by_bytes(tables: Sequence[Sequence[int]], mask: int) -> int:
    """The OR of the values of ``mask``'s set bits, read through the
    :func:`_byte_tables` one byte at a time."""
    out = 0
    for table in tables:
        out |= table[mask & 255]
        mask >>= 8
    return out


def submasks(family: Iterable[int]) -> frozenset[int]:
    """Every subset of a mask of ``family``, by submask enumeration."""
    out: set[int] = set()
    for full in family:
        sub = full
        while True:
            out.add(sub)
            if not sub:
                break
            sub = (sub - 1) & full
    return frozenset(out)


def _maximal(sets: set[frozenset[str]]) -> frozenset[frozenset[str]]:
    """Largest first, so a set is dropped exactly when a set kept so far
    holds it: bit k of ``within[v]`` says that the k-th kept set holds v, and
    the kept sets holding all of a set are the AND over its members."""
    kept: list[frozenset[str]] = []
    within: dict[str, int] = {}
    for s in sorted(sets, key=len, reverse=True):
        common = (1 << len(kept)) - 1
        for v in s:
            common &= within.get(v, 0)
        if not common:
            for v in s:
                within[v] = within.get(v, 0) | 1 << len(kept)
            kept.append(s)
    return frozenset(kept)


def _minimal(sets: set[frozenset[str]]) -> frozenset[frozenset[str]]:
    """The minimal sets: complements within the union reverse inclusion, so
    they are the complements of the maximal complements."""
    union = frozenset().union(*sets)
    return frozenset(union - s for s in _maximal({union - s for s in sets}))


def canonical_vertex_order(names: Iterable[str], part: Mapping[str, str]) -> tuple[str, ...]:
    """All L-vertices before all R-vertices, each block sorted lexicographically."""
    left = sorted(n for n in names if part[n] == "L")
    right = sorted(n for n in names if part[n] == "R")
    return tuple(left + right)


@dataclass(frozen=True, eq=False)
class LabeledComplex:
    """A simplicial complex over named vertices, each owned by player L or R.

    Instances are built through :func:`from_facets`, which normalises the facet
    family to an inclusion-maximal antichain and derives the canonical vertex
    order, or through :func:`from_masks`, which takes an antichain of masks
    and fills in the masks it is handed.  Every vertex appears in at least
    one facet.  The complex stores its facets as int masks, ``facet_masks``
    (bit i is ``vertices[i]``); the faces, the flag test, the nonfaces and
    the isomorphism search read them, and ``facets`` names them when read.
    """

    vertices: tuple[str, ...]
    part: Mapping[str, str]
    facet_masks: frozenset[int]

    @cached_property
    def facets(self) -> frozenset[frozenset[str]]:
        """Every facet as a set of vertex names."""
        return frozenset(map(self.face_names, self.facet_masks))

    @cached_property
    def cofacets(self) -> tuple[int, ...]:
        """Per vertex index, the mask of the vertices sharing a facet with
        it, itself included."""
        out = [0] * len(self.vertices)
        for m in self.facet_masks:
            for i in bits(m):
                out[i] |= m
        return tuple(out)

    @cached_property
    def face_masks(self) -> frozenset[int]:
        """Every face as an int mask over ``vertices``, enumerated once from
        the facets unless :func:`from_masks` was handed them.  Empty for the
        void complex."""
        return submasks(self.facet_masks)

    @cached_property
    def flag_conflicts(self) -> Optional[tuple[int, ...]]:
        """The conflict mask of each vertex when the complex is flag, or None
        when it is not.

        Vertex i's mask holds i and every vertex that shares no facet with
        it.  The complex is flag (every minimal nonface has two vertices)
        exactly when its faces are the independent sets of that conflict
        graph, that is when every maximal independent set is a facet.  The
        void complex is not flag; the complex whose only face is the empty
        set is.
        """
        full = (1 << len(self.vertices)) - 1
        conflict = tuple(full & ~c | 1 << i for i, c in enumerate(self.cofacets))
        if all(m in self.facet_masks for m in maximal_independent_sets(conflict, full)):
            return conflict
        return None

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """Entry k counts the faces of k vertices, from the empty face up to
        the largest; empty for the void complex.  A flag complex's faces are
        the independent sets of its conflict graph, so it counts them
        without listing them; any other complex counts ``face_masks``."""
        if self.flag_conflicts is not None:
            return tuple(_independence_counts(self.flag_conflicts, (1 << len(self.vertices)) - 1))
        sizes = Counter(map(int.bit_count, self.face_masks))
        return tuple(sizes[k] for k in range(len(sizes)))

    @cached_property
    def node_count(self) -> int:
        """Number of nodes of the unfolded game tree: one per play sequence,
        that is one per ordering of each face, or a lone root for the void
        complex."""
        return sum(factorial(k) * f for k, f in enumerate(self.f_vector)) or 1

    def face_names(self, mask: int) -> frozenset[str]:
        """The vertices of ``mask``, by name."""
        return frozenset(self.vertices[i] for i in bits(mask))

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    @property
    def is_empty(self) -> bool:
        """True when the complex has no vertices (the void and {{}} complexes)."""
        return not self.vertices

    @property
    def left(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.part[v] == "L")

    @property
    def right(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.part[v] == "R")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledComplex):
            return NotImplemented
        return self.facet_masks == other.facet_masks and dict(self.part) == dict(other.part)

    def __hash__(self) -> int:
        return hash((self.vertices, self.facet_masks))

    def __repr__(self) -> str:
        if self.is_void:
            return "LabeledComplex(void)"
        names = sorted("".join(sorted(f)) if f else "{}" for f in self.facets)
        return f"LabeledComplex<{','.join(names)}>"


def from_facets(facets: Iterable[Iterable[str]], part: Mapping[str, str] | None = None) -> LabeledComplex:
    """Build a complex from a facet family, dropping dominated faces.

    An empty family yields the void complex.  A family whose maximal element is
    the empty set yields the complex whose only face is the empty set.  Every
    vertex of the normalised facets must carry a part in ``part``; entries for
    unused names are ignored.
    """
    part = dict(part or {})
    maximal = _maximal({frozenset(f) for f in facets})
    used = sorted(set().union(*maximal)) if maximal else []
    for v in used:
        if v not in part:
            raise ValueError(f"vertex {v!r} has no part assignment")
        if part[v] not in PARTS:
            raise ValueError(f"vertex {v!r} has part {part[v]!r}, expected one of {PARTS}")
    kept = {v: part[v] for v in used}
    order = canonical_vertex_order(used, kept)
    bit = {v: 1 << i for i, v in enumerate(order)}
    return LabeledComplex(order, kept, frozenset(sum(map(bit.__getitem__, f)) for f in maximal))


def from_masks(names: Sequence[str], parts: Mapping[str, str], facet_masks: frozenset[int],
               faces: Optional[frozenset[int]] = None, conflict: Optional[Sequence[int]] = None,
               ) -> LabeledComplex:
    """The complex whose facets are ``facet_masks``, an antichain of masks
    over ``names`` (bit i is ``names[i]``), with the masks it is handed.

    The vertices are the names in some facet, in canonical order, and each
    mask moves into that order through per-byte tables, which drop the
    other names.  ``faces``, every face, fills ``face_masks``; ``conflict``,
    a conflict mask per name whose independent sets are the faces (each
    mask holding its own bit), fills ``flag_conflicts``.
    """
    at = {names[i]: i for i in bits(reduce(or_, facet_masks, 0))}
    order = canonical_vertex_order(at, parts)
    tables = _byte_tables([1 << order.index(v) if v in at else 0 for v in names])
    delta = LabeledComplex(order, {v: parts[v] for v in order},
                           frozenset(_by_bytes(tables, m) for m in facet_masks))
    if faces is not None:  # a vertex order that is the names' own moves no mask
        moved = faces if order == tuple(names[:len(order)]) else (_by_bytes(tables, m) for m in faces)
        object.__setattr__(delta, "face_masks", frozenset(moved))
    if conflict is not None:
        object.__setattr__(delta, "flag_conflicts",
                           tuple(_by_bytes(tables, conflict[at[v]]) for v in order))
    return delta


def void_complex() -> LabeledComplex:
    return from_facets([])


def empty_face_complex() -> LabeledComplex:
    """The complex whose single face is the empty set."""
    return from_facets([[]])


def faces(delta: LabeledComplex) -> frozenset[frozenset[str]]:
    """All faces, i.e. all subsets of facets.  Empty for the void complex."""
    return frozenset(delta.face_names(m) for m in delta.face_masks)


def dimension(delta: LabeledComplex) -> int:
    if delta.is_void:
        raise ValueError("the void complex has no faces and no dimension")
    return max(map(int.bit_count, delta.facet_masks)) - 1


def is_pure(delta: LabeledComplex) -> bool:
    """True when all facets share one dimension (vacuously true for void)."""
    return len(set(map(int.bit_count, delta.facet_masks))) <= 1


def minimal_nonfaces(delta: LabeledComplex) -> frozenset[frozenset[str]]:
    """Inclusion-minimal subsets of the vertex set that are not faces: the
    generators of :func:`sr_ideal`."""
    return sr_ideal(delta).generators


@dataclass(frozen=True, eq=False)
class SquareFreeIdeal:
    """An ordered variable list plus an antichain of square-free generators,
    stored as int masks over the variables (bit i is ``variables[i]``) and
    named by ``generators`` when read.

    The zero ideal has no generators.  The unit ideal is stored as the single
    empty generator.  Variables may be absent from every generator; the list is
    the ambient ring, not the support.
    """

    variables: tuple[str, ...]
    part: Mapping[str, str]
    generator_masks: frozenset[int]

    @cached_property
    def generators(self) -> frozenset[frozenset[str]]:
        """Every generator as a set of variable names."""
        return frozenset(frozenset(self.variables[i] for i in bits(m)) for m in self.generator_masks)

    @property
    def is_zero(self) -> bool:
        return not self.generator_masks

    @property
    def is_unit(self) -> bool:
        return 0 in self.generator_masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareFreeIdeal):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.generator_masks == other.generator_masks
            and dict(self.part) == dict(other.part)
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.generator_masks))

    def __repr__(self) -> str:
        gens = sorted("".join(sorted(g)) if g else "1" for g in self.generators)
        return f"SquareFreeIdeal({','.join(self.variables)}; <{','.join(gens)}>)"


def ideal(
    variables: Iterable[str],
    part: Mapping[str, str],
    generators: Iterable[Iterable[str]],
) -> SquareFreeIdeal:
    """Normalise a generating family to its minimal antichain, as masks."""
    variables = tuple(variables)
    vset = set(variables)
    if len(vset) != len(variables):
        raise ValueError("duplicate variable names")
    gens = {frozenset(g) for g in generators}
    for g in gens:
        extra = g - vset
        if extra:
            raise ValueError(f"generator uses undeclared variables {sorted(extra)}")
    part = {v: part[v] for v in variables}
    for v, p in part.items():
        if p not in PARTS:
            raise ValueError(f"variable {v!r} has part {p!r}, expected one of {PARTS}")
    bit = {v: 1 << i for i, v in enumerate(variables)}
    masks = (sum(map(bit.__getitem__, g)) for g in _minimal(gens))
    return SquareFreeIdeal(variables, part, frozenset(masks))


def facet_ideal(delta: LabeledComplex) -> SquareFreeIdeal:
    """Generators are the facets; variables are the complex's vertices."""
    return SquareFreeIdeal(delta.vertices, delta.part, delta.facet_masks)


def sr_ideal(delta: LabeledComplex) -> SquareFreeIdeal:
    """Generators are the minimal nonfaces; variables are the complex's vertices.

    The void complex's only minimal nonface is the empty set: nothing at all
    is a face of it.  A vertex in every facet is in no minimal nonface, so those are
    masked out first and a simplex has none.  Any other minimal nonface is a face
    plus a vertex above all of that face's vertices (drop its last vertex in
    ``vertices`` order), so only those extensions are tried, each once.
    """
    if delta.is_void:
        return SquareFreeIdeal(delta.vertices, delta.part, frozenset({0}))
    common = -1
    for m in delta.facet_masks:
        common &= m
    free = (1 << len(delta.vertices)) - 1 & ~common
    masks = submasks(m & free for m in delta.facet_masks) if common else delta.face_masks
    out: set[int] = set()
    for f in masks:
        for i in bits(free & -1 << f.bit_length()):
            cand = f | 1 << i
            if cand not in masks and all(cand ^ 1 << j in masks for j in bits(f)):
                out.add(cand)
    return SquareFreeIdeal(delta.vertices, delta.part, frozenset(out))


def facet_complex(ideal_: SquareFreeIdeal) -> LabeledComplex:
    """The complex whose facets are the ideal's minimal generators."""
    return from_masks(ideal_.variables, ideal_.part, ideal_.generator_masks)


def sr_complex(ideal_: SquareFreeIdeal) -> LabeledComplex:
    """The complex whose faces are the variable subsets containing no generator.

    Facets are computed as the maximal generator-avoiding sets: each generator
    must be broken by removing at least one of its variables.
    """
    if ideal_.is_unit:
        return void_complex()
    candidates: set[frozenset[str]] = {frozenset(ideal_.variables)}
    for g in sorted(ideal_.generators, key=lambda s: tuple(sorted(s))):
        nxt: set[frozenset[str]] = set()
        for cand in candidates:
            if g <= cand:
                nxt.update(cand - {v} for v in g)
            else:
                nxt.add(cand)
        candidates = nxt
    return from_facets(candidates, ideal_.part)


def is_flag(delta: LabeledComplex) -> bool:
    """True when every minimal nonface has exactly two vertices."""
    return delta.flag_conflicts is not None


def is_simplex(delta: LabeledComplex) -> bool:
    """True when the vertex set itself is a face (a single full facet)."""
    return delta.facet_masks == {(1 << len(delta.vertices)) - 1}


def independence_complex(
    vertices: Iterable[str],
    edges: Iterable[Iterable[str]],
    part: Mapping[str, str],
) -> LabeledComplex:
    """The complex of independent sets of a graph given by vertices and edges."""
    verts = tuple(dict.fromkeys(vertices))
    edge_set = {frozenset(e) for e in edges}
    for e in edge_set:
        if len(e) != 2 or not e <= set(verts):
            raise ValueError(f"bad edge {sorted(e)}")
    index = {v: i for i, v in enumerate(verts)}
    conflict = [1 << i for i in range(len(verts))]
    for a, b in edge_set:
        conflict[index[a]] |= 1 << index[b]
        conflict[index[b]] |= 1 << index[a]
    maximal = maximal_independent_sets(conflict, (1 << len(verts)) - 1)
    return from_facets((frozenset(verts[i] for i in bits(t)) for t in maximal), part)


def relabel(delta: LabeledComplex, mapping: Mapping[str, str]) -> LabeledComplex:
    """Rename vertices through an injective mapping, carrying parts along."""
    missing = [v for v in delta.vertices if v not in mapping]
    if missing:
        raise ValueError(f"mapping misses vertices {missing}")
    if len({mapping[v] for v in delta.vertices}) != len(delta.vertices):
        raise ValueError("mapping is not injective on the vertex set")
    part = {mapping[v]: delta.part[v] for v in delta.vertices}
    return from_masks([mapping[v] for v in delta.vertices], part, delta.facet_masks)


def _vertex_profile(delta: LabeledComplex, family: frozenset[int],
                    ) -> tuple[list[tuple], list[int], list[list[list[int]]]]:
    """Per vertex index i: its signature (part, sizes of the sets of
    ``family`` holding it), its incidence mask over the family (bit j: the
    j-th set holds it), and the other vertices of each set whose last
    vertex is i."""
    inc = [0] * len(delta.vertices)
    sizes: list[list[int]] = [[] for _ in delta.vertices]
    closing: list[list[list[int]]] = [[] for _ in delta.vertices]
    for j, m in enumerate(family):
        members = list(bits(m))
        for i in members:
            inc[i] |= 1 << j
            sizes[i].append(len(members))
        if members:
            closing[members.pop()].append(members)
    sig = [(delta.part[v], tuple(sorted(s))) for v, s in zip(delta.vertices, sizes)]
    return sig, inc, closing


def _isomorphisms(a: LabeledComplex, b: LabeledComplex,
                  budget: float = float("inf")) -> Iterator[tuple[int, ...]]:
    """Every part-preserving vertex bijection carrying the facets of ``a``
    onto those of ``b``, as the tuple whose entry i is the index in ``b`` of
    ``a``'s vertex i, in lexicographic order.

    A bijection carries the facets onto facets exactly when it carries
    their complements onto complements.  When the facets of ``a`` are
    larger than their complements in total, the search runs on the
    complements, which close earlier in vertex order and so prune sooner;
    below, "facets" means the family searched.

    The multisets of vertex signatures (part, sizes of the facets holding the
    vertex) must agree first; that fixes the vertex count per part and, since
    a facet of size k is counted k times, the facet count per size.  Then a
    depth-first search maps ``a``'s vertices in order, trying ``b``'s in
    order.  Mapping i to k must keep the signature and, for each assigned
    u -> x, the number of facets holding both i and u (read off each
    vertex's incidence mask over the facets), and must carry each facet
    whose last vertex is i onto a facet of ``b``.  Every isomorphism keeps
    all three, so the pruning cuts only branches that hold none.  The search
    stops early after ``budget`` candidate tests.
    """
    if a.is_void != b.is_void:
        return
    n = len(a.vertices)
    fa, fb = a.facet_masks, b.facet_masks
    if 2 * sum(map(int.bit_count, fa)) > n * len(fa):
        fa = frozenset((1 << n) - 1 ^ m for m in fa)
        fb = frozenset((1 << len(b.vertices)) - 1 ^ m for m in fb)
    sig_a, inc_a, closing = _vertex_profile(a, fa)
    sig_b, inc_b, _ = _vertex_profile(b, fb) if b is not a else (sig_a, inc_a, closing)
    if sorted(sig_a) != sorted(sig_b):
        return
    assignment: list[int] = []  # assignment[i]: the index in b of a's vertex i
    used = 0

    def consistent(i: int, k: int) -> bool:
        """Whether ``i -> k`` keeps the signature, every assigned pair's
        count of shared facets, and every facet whose last vertex is i."""
        if sig_a[i] != sig_b[k]:
            return False
        ii, ik = inc_a[i], inc_b[k]
        for u, x in enumerate(assignment):
            if (ii & inc_a[u]).bit_count() != (ik & inc_b[x]).bit_count():
                return False
        for rest in closing[i]:
            image = 1 << k
            for u in rest:
                image |= 1 << assignment[u]
            if image not in fb:
                return False
        return True

    # Depth-first over an explicit stack: tried[i] counts the candidates
    # already tried for vertex i, so backtracking resumes there.  Every facet
    # has a last vertex, so a full assignment carries the facets into b's,
    # and the signatures fix the facet count, so onto them.
    tried = [0]
    while tried:
        i = len(tried) - 1
        if i == n:
            yield tuple(assignment)
            tried.pop()
            continue
        if len(assignment) > i:  # back from a failed extension: undo it
            used ^= 1 << assignment.pop()
        for k in range(tried[i], n):
            if used >> k & 1:
                continue
            budget -= 1
            if budget < 0:
                return
            if consistent(i, k):
                assignment.append(k)
                used |= 1 << k
                tried[i] = k + 1
                tried.append(0)
                break
        else:
            tried.pop()


def are_isomorphic(a: LabeledComplex, b: LabeledComplex) -> Optional[dict[str, str]]:
    """A part-preserving vertex bijection carrying facets onto facets, or None.

    Deterministic: the witness is the first of :func:`_isomorphisms`, which
    tries candidates in canonical vertex order, so equal inputs always
    produce the same witness bijection.
    """
    for image in _isomorphisms(a, b):
        return {a.vertices[u]: b.vertices[x] for u, x in enumerate(image)}
    return None


# ---------------------------------------------------------------------------
# JSON interchange


def complex_to_obj(delta: LabeledComplex) -> dict:
    facets = sorted(list(bits(m)) for m in delta.facet_masks if m)
    return {
        "vertices": [{"id": v, "part": delta.part[v]} for v in delta.vertices],
        "facets": [[delta.vertices[i] for i in f] for f in facets],
        "void": delta.is_void,
    }


def _is_name_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def complex_from_obj(obj: Mapping) -> LabeledComplex:
    try:
        entries = [(entry["id"], entry["part"]) for entry in obj["vertices"]]
        facets = obj["facets"]
        void = obj.get("void", False)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex object: {exc}") from exc
    if not isinstance(void, bool):
        raise ValueError(f"malformed complex object: 'void' must be true or false, got {void!r}")
    if not (_is_name_list([vid for vid, _ in entries]) and isinstance(facets, list)
            and all(_is_name_list(f) for f in facets)):
        raise ValueError("malformed complex object: vertex ids and facet entries must be names")
    part: dict[str, str] = {}
    for vid, p in entries:
        if vid in part:
            raise ValueError(f"duplicate vertex {vid!r}")
        part[vid] = p
    if void:
        if facets or part:
            raise ValueError("a void complex must have no vertices and no facets")
        return void_complex()
    if not facets:
        if part:
            raise ValueError("vertices listed but no facet covers them")
        return empty_face_complex()
    delta = from_facets(facets, part)
    if set(delta.vertices) != set(part):
        unused = sorted(set(part) - set(delta.vertices))
        raise ValueError(f"vertices {unused} appear in no facet")
    return delta


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def ideal_to_obj(ideal_: SquareFreeIdeal) -> dict:
    gens = sorted(list(bits(m)) for m in ideal_.generator_masks)
    return {
        "variables": list(ideal_.variables),
        "generators": [[ideal_.variables[i] for i in g] for g in gens],
        "parts": {v: ideal_.part[v] for v in ideal_.variables},
    }


def ideal_from_obj(obj: Mapping) -> SquareFreeIdeal:
    """The ideal of an ideal object; a variable with no entry in ``parts``
    gets part L, and ``parts`` may name variables only."""
    try:
        variables, generators = obj["variables"], obj["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError("ideal files need 'variables' and 'generators'") from exc
    if not (_is_name_list(variables) and isinstance(generators, list)
            and all(_is_name_list(g) for g in generators)):
        raise ValueError("'variables' and each generator must be lists of names")
    parts = obj.get("parts", {})
    if not isinstance(parts, dict):
        raise ValueError("'parts' must map variable names to L or R")
    unknown = sorted(set(parts) - set(variables))
    if unknown:
        raise ValueError(f"'parts' names {unknown}, which are not variables")
    return ideal(variables, {v: parts.get(v, "L") for v in variables}, generators)

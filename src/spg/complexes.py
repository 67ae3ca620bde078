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
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


def _norm_faces(faces: Iterable[Iterable[str]]) -> set[frozenset[str]]:
    return {frozenset(f) for f in faces}


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
    order.  Every vertex appears in at least one facet.
    """

    vertices: tuple[str, ...]
    part: Mapping[str, str]
    facets: frozenset[frozenset[str]]

    @cached_property
    def face_masks(self) -> frozenset[int]:
        """Every face as an int mask over ``vertices`` (bit i is vertex i),
        enumerated once from the facets.  Empty for the void complex."""
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        out: set[int] = set()
        for f in self.facets:
            full = sum(bit[v] for v in f)
            sub = full
            while True:
                out.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & full
        return frozenset(out)

    @cached_property
    def node_count(self) -> int:
        """Number of nodes of the unfolded game tree: one per play sequence,
        that is one per ordering of each face, or a lone root for the void
        complex."""
        return sum(factorial(f.bit_count()) for f in self.face_masks) or 1

    def face_names(self, mask: int) -> frozenset[str]:
        """The vertices of ``mask``, by name."""
        return frozenset(self.vertices[i] for i in bits(mask))

    @property
    def is_void(self) -> bool:
        return not self.facets

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
        return self.facets == other.facets and dict(self.part) == dict(other.part)

    def __hash__(self) -> int:
        return hash((self.facets, frozenset(self.part.items())))

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
    maximal = _maximal(_norm_faces(facets))
    used = sorted(set().union(*maximal)) if maximal else []
    for v in used:
        if v not in part:
            raise ValueError(f"vertex {v!r} has no part assignment")
        if part[v] not in PARTS:
            raise ValueError(f"vertex {v!r} has part {part[v]!r}, expected one of {PARTS}")
    kept = {v: part[v] for v in used}
    order = canonical_vertex_order(used, kept)
    return LabeledComplex(order, kept, maximal)


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
    return max(len(f) for f in delta.facets) - 1


def is_pure(delta: LabeledComplex) -> bool:
    """True when all facets share one dimension (vacuously true for void)."""
    return len({len(f) for f in delta.facets}) <= 1


def minimal_nonfaces(delta: LabeledComplex) -> frozenset[frozenset[str]]:
    """Inclusion-minimal subsets of the vertex set that are not faces.

    The void complex has exactly the empty set: nothing at all is a face of
    it.  A vertex in every facet is in no minimal nonface, so those are
    dropped first and a simplex has none.  Any other minimal nonface is a face
    plus a vertex above all of that face's vertices (drop its last vertex in
    ``vertices`` order), so only those extensions are tried, each once.
    """
    if delta.is_void:
        return frozenset({frozenset()})
    common = frozenset.intersection(*delta.facets)
    if common:
        delta = from_facets([f - common for f in delta.facets], delta.part)
    masks = delta.face_masks
    out: set[int] = set()
    for f in masks:
        for i in range(f.bit_length(), len(delta.vertices)):
            cand = f | 1 << i
            if cand not in masks and all(cand ^ 1 << j in masks for j in bits(f)):
                out.add(cand)
    return frozenset(delta.face_names(m) for m in out)


@dataclass(frozen=True, eq=False)
class SquareFreeIdeal:
    """An ordered variable list plus an antichain of square-free generators.

    The zero ideal has no generators.  The unit ideal is stored as the single
    empty generator.  Variables may be absent from every generator; the list is
    the ambient ring, not the support.
    """

    variables: tuple[str, ...]
    part: Mapping[str, str]
    generators: frozenset[frozenset[str]]

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return frozenset() in self.generators

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareFreeIdeal):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.generators == other.generators
            and dict(self.part) == dict(other.part)
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.generators))

    def __repr__(self) -> str:
        gens = sorted("".join(sorted(g)) if g else "1" for g in self.generators)
        return f"SquareFreeIdeal({','.join(self.variables)}; <{','.join(gens)}>)"


def ideal(
    variables: Iterable[str],
    part: Mapping[str, str],
    generators: Iterable[Iterable[str]],
) -> SquareFreeIdeal:
    """Normalise a generating family to its minimal antichain."""
    variables = tuple(variables)
    vset = set(variables)
    if len(vset) != len(variables):
        raise ValueError("duplicate variable names")
    gens = _norm_faces(generators)
    for g in gens:
        extra = g - vset
        if extra:
            raise ValueError(f"generator uses undeclared variables {sorted(extra)}")
    part = {v: part[v] for v in variables}
    for v, p in part.items():
        if p not in PARTS:
            raise ValueError(f"variable {v!r} has part {p!r}, expected one of {PARTS}")
    return SquareFreeIdeal(variables, part, _minimal(gens))


def facet_ideal(delta: LabeledComplex) -> SquareFreeIdeal:
    """Generators are the facets; variables are the complex's vertices."""
    return ideal(delta.vertices, delta.part, delta.facets)


def sr_ideal(delta: LabeledComplex) -> SquareFreeIdeal:
    """Generators are the minimal nonfaces; variables are the complex's vertices."""
    return ideal(delta.vertices, delta.part, minimal_nonfaces(delta))


def facet_complex(ideal_: SquareFreeIdeal) -> LabeledComplex:
    """The complex whose facets are the ideal's minimal generators."""
    return from_facets(ideal_.generators, ideal_.part)


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


def _cofacets(delta: LabeledComplex, bit: Mapping[str, int]) -> dict[str, int]:
    """Per vertex, the mask (over ``bit``) of the vertices sharing a facet with it."""
    together = dict.fromkeys(delta.vertices, 0)
    for f in delta.facets:
        mask = sum(bit[v] for v in f)
        for v in f:
            together[v] |= mask
    return together


def flag_conflicts(delta: LabeledComplex) -> Optional[list[int]]:
    """The conflict mask of each vertex of a flag complex, or None when the
    complex is not flag.

    Vertex i's mask holds i and every vertex that shares no facet with it.
    The complex is flag (every minimal nonface has two vertices) exactly when
    its faces are the independent sets of that conflict graph, that is when
    every maximal independent set is a facet.  The void complex is not flag;
    the complex whose only face is the empty set is.
    """
    full = (1 << len(delta.vertices)) - 1
    bit = {v: 1 << i for i, v in enumerate(delta.vertices)}
    together = _cofacets(delta, bit)
    conflict = [full & ~together[v] | bit[v] for v in delta.vertices]
    facets = {sum(bit[v] for v in f) for f in delta.facets}
    if all(m in facets for m in maximal_independent_sets(conflict, full)):
        return conflict
    return None


def is_flag(delta: LabeledComplex) -> bool:
    """True when every minimal nonface has exactly two vertices."""
    return flag_conflicts(delta) is not None


def is_simplex(delta: LabeledComplex) -> bool:
    """True when the vertex set itself is a face (a single full facet)."""
    return not delta.is_void and delta.facets == frozenset({frozenset(delta.vertices)})


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
    return from_facets([{mapping[v] for v in f} for f in delta.facets], part)


def _vertex_signature(delta: LabeledComplex, v: str) -> tuple:
    sizes = sorted(len(f) for f in delta.facets if v in f)
    return (delta.part[v], tuple(sizes))


def are_isomorphic(a: LabeledComplex, b: LabeledComplex) -> Optional[dict[str, str]]:
    """A part-preserving vertex bijection carrying facets onto facets, or None.

    Deterministic: candidates are tried in canonical vertex order, so equal
    inputs always produce the same witness bijection.  The multisets of
    vertex signatures (part, sizes of the facets holding the vertex) must
    agree first; that fixes the vertex count per part and, since a facet of
    size k is counted k times, the facet count per size.
    """
    if a.is_void != b.is_void:
        return None
    sig_a = {v: _vertex_signature(a, v) for v in a.vertices}
    sig_b = {v: _vertex_signature(b, v) for v in b.vertices}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None

    bit_a = {v: 1 << i for i, v in enumerate(a.vertices)}
    bit_b = {w: 1 << i for i, w in enumerate(b.vertices)}
    co_a, co_b = _cofacets(a, bit_a), _cofacets(b, bit_b)
    order, targets = a.vertices, b.vertices
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v: str, w: str) -> bool:
        """Whether ``v -> w`` keeps every assigned pair's sharing of a facet."""
        if sig_a[v] != sig_b[w]:
            return False
        cv, cw = co_a[v], co_b[w]
        return all(bool(cv & bit_a[u]) == bool(cw & bit_b[x]) for u, x in assignment.items())

    # Depth-first over an explicit stack: tried[i] counts the candidates in
    # ``targets`` already tried for order[i], so backtracking resumes there.
    tried = [0]
    while tried:
        i = len(tried) - 1
        if i == len(order):
            if frozenset(frozenset(assignment[v] for v in f) for f in a.facets) == b.facets:
                return dict(assignment)
            tried.pop()
            continue
        v = order[i]
        if v in assignment:  # back from a failed extension: undo it
            used.remove(assignment.pop(v))
        for k in range(tried[i], len(targets)):
            w = targets[k]
            if w not in used and consistent(v, w):
                assignment[v] = w
                used.add(w)
                tried[i] = k + 1
                tried.append(0)
                break
        else:
            tried.pop()
    return None


# ---------------------------------------------------------------------------
# JSON interchange


def complex_to_obj(delta: LabeledComplex) -> dict:
    index = {v: i for i, v in enumerate(delta.vertices)}
    facets = [sorted(f, key=index.__getitem__) for f in delta.facets if f]
    return {
        "vertices": [{"id": v, "part": delta.part[v]} for v in delta.vertices],
        "facets": sorted(facets, key=lambda f: [index[v] for v in f]),
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
    index = {v: i for i, v in enumerate(ideal_.variables)}
    gens = [sorted(g, key=index.__getitem__) for g in ideal_.generators]
    return {
        "variables": list(ideal_.variables),
        "generators": sorted(gens, key=lambda g: [index[v] for v in g]),
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

"""Game trees over legal complexes, and canonical normal-play values.

The game tree of a legal complex is the complex itself: its face lattice
(:attr:`~spg.complexes.LabeledComplex.face_masks`) read from the empty face,
in which a node is a face and its children are the faces one vertex larger,
in vertex order.  Equal faces are one node, so the structure is a DAG; its
unfolding is the move-sequence tree, in which every ordering of a face is a
play sequence, so the unfolded tree has sum-over-faces-of-|F|! nodes
(:attr:`~spg.complexes.LabeledComplex.node_count`, read off the f-vector, so
a flag complex's count lists no face).

:func:`fold` is the one walk of the tree.  Tree isomorphism, the DOT export
and the CLI's printed tree are folds: :func:`fold` combines the faces once
each, largest first, so children come before parents and the cost is
polynomial in the number of faces.  A face finds its moves without scanning
the vertices: each combined face pushes its result to the faces one vertex
smaller, so a face's moves are waiting for it when its turn comes.

The canonical value needs no face lattice when the complex is flag (the legal
complex of every pairwise ruleset): a position is then the set of vertices
still playable, a move at v removes v's conflicts, and a position whose
conflict graph is disconnected is the disjunctive sum of its connected
factors, so values are computed per factor, smallest playable set first.
Any other complex is valued by its own walk over the faces, largest first,
which values one face per orbit of some of the complex's automorphisms and
gives that value to the face's images, since isomorphic positions have one
value.

Values use the standard normal-play canonical form: options are simplified by
removing dominated options and bypassing reversible ones until a fixpoint,
and canonical values are interned so that equality of values is object
identity.  The intern table is keyed by the sorted creation numbers (``_seq``)
of each side's options.  Each interned option set keeps the canonical form it
reduces to, for the life of the process like the intern table; the memos of
sums and of factor values last one :func:`game_add` or :func:`canonical_value`
call.  :func:`value_str` prints each side's options sorted by their printed
form, so a printed value does not depend on the order values were interned in.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterable, Optional, TypeVar

from .complexes import (
    LabeledComplex, _by_bytes, _byte_tables, _isomorphisms, are_isomorphic, bits, factor_walk,
)

T = TypeVar("T")

# one move of a fold: the mover's label, the vertex played, the child's result
Move = tuple[str, str, T]


def build_tree(delta: LabeledComplex) -> LabeledComplex:
    """The game tree of a legal complex: the complex itself, read through
    :func:`fold` and :attr:`~spg.complexes.LabeledComplex.node_count`.  spg
    passes complexes straight to those; this name is kept for callers that
    build and time a tree by name."""
    return delta


def fold(delta: LabeledComplex, combine: Callable[[int, list[Move]], T]) -> T:
    """Combine every face of the complex, that is every node of its game
    tree, with ``combine(mask, moves)``, where ``moves`` lists ``(label,
    vertex, result)`` per child in move order, and return the root's result.

    The faces are combined in descending mask order, largest first: every
    face one vertex larger is a larger mask, so each face is combined once,
    after its children.  A combined face pushes its move onto the list of
    each face one vertex smaller; those pushes come in descending vertex
    order, so a face reverses its list to read its moves in vertex order.
    The void complex combines the empty root alone.
    """
    move = {1 << i: (delta.part[v], v) for i, v in enumerate(delta.vertices)}
    pending: dict[int, list[Move]] = {}
    for face in sorted(delta.face_masks or [0], reverse=True):
        kids = pending.pop(face, [])
        kids.reverse()
        result = combine(face, kids)
        rest = face
        while rest:
            low = rest & -rest
            rest ^= low
            label, v = move[low]
            pending.setdefault(face ^ low, []).append((label, v, result))
    return result


def trees_isomorphic(d1: LabeledComplex, d2: LabeledComplex) -> bool:
    """Root-preserving, player-label-preserving isomorphism of the game trees
    of two complexes.

    Each tree is folded once.  Children are compared as multisets via interned canonical codes, so the
    check is linear in the shared structure even when the unfolded trees are
    factorially large.
    """
    codes: dict[tuple, int] = {}

    def code(_: int, moves: list[Move]) -> int:
        key = tuple(sorted((label, kid) for label, _, kid in moves))
        return codes.setdefault(key, len(codes))

    return fold(d1, code) == fold(d2, code)


def tree_to_dot(delta: LabeledComplex) -> str:
    """DOT export of the game tree's shared DAG: one node per face, whose
    tooltip names the face, and one edge per move.

    Edge colour encodes the mover (L blue, R red).  Nodes are numbered
    children first, so the root is the last node.
    """
    lines = ["digraph tree {", "  node [shape=circle, label=\"\"];"]
    ids = count()

    def emit(mask: int, moves: list[Move]) -> int:
        my_id = next(ids)
        face = ",".join(sorted(delta.face_names(mask))) or "{}"
        lines.append(f'  n{my_id} [tooltip="{face}"];')
        for label, vertex, child_id in moves:
            color = "blue" if label == "L" else "red"
            lines.append(f'  n{my_id} -> n{child_id} [color={color}, label="{vertex}"];')
        return my_id

    fold(delta, emit)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Canonical normal-play values


class CanonicalValue:
    """A normal-play game value in canonical form.

    Instances are interned: two values are equal exactly when they are the
    same object.  Build them with :func:`make_value`; the constructor itself
    performs no simplification.
    """

    __slots__ = ("left", "right", "_seq", "_canon")

    left: tuple["CanonicalValue", ...]
    right: tuple["CanonicalValue", ...]

    def __le__(self, other: "CanonicalValue") -> bool:
        return le(self, other)

    def __ge__(self, other: "CanonicalValue") -> bool:
        return le(other, self)

    def __repr__(self) -> str:
        return f"CanonicalValue({value_str(self)})"


_INTERN: dict[tuple, CanonicalValue] = {}
_LE_MEMO: dict[tuple[int, int], bool] = {}


def _mk(left: Iterable[CanonicalValue], right: Iterable[CanonicalValue]) -> CanonicalValue:
    lseq = {g._seq: g for g in left}
    rseq = {g._seq: g for g in right}
    key = (tuple(sorted(lseq)), tuple(sorted(rseq)))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    g = CanonicalValue()
    object.__setattr__(g, "left", tuple(lseq[i] for i in key[0]))
    object.__setattr__(g, "right", tuple(rseq[i] for i in key[1]))
    object.__setattr__(g, "_seq", len(_INTERN))
    object.__setattr__(g, "_canon", None)
    _INTERN[key] = g
    return g


ZERO = _mk((), ())


def le(g: CanonicalValue, h: CanonicalValue) -> bool:
    """g <= h in the normal-play partial order.

    Holds exactly when no left option of g is >= h and no right option of h
    is <= g.
    """
    key = (g._seq, h._seq)
    hit = _LE_MEMO.get(key)
    if hit is not None:
        return hit
    out = True
    for gl in g.left:
        if le(h, gl):
            out = False
            break
    else:
        for hr in h.right:
            if le(hr, g):
                out = False
                break
    _LE_MEMO[key] = out
    return out


def make_value(
    left: Iterable[CanonicalValue], right: Iterable[CanonicalValue]
) -> CanonicalValue:
    """Canonical form of the game with the given (already canonical) options.

    Alternates two reductions to a fixpoint: drop dominated options, then
    bypass reversible options through the opponent's reply.  Each interned
    option set the fixpoint passes through keeps the form it reached, so a
    repeated option set skips the fixpoint.
    """
    g = _mk(left, right)
    if g._canon is not None:
        return g._canon
    seen = []
    while True:
        seen.append(g)
        # Left's options first, then Right's; an option is dropped when
        # another of its side is at least as good for that side
        nl, nr = [], []
        for options, kept, left in ((g.left, nl, True), (g.right, nr, False)):
            for a in options:
                for b in options:
                    if b is not a and (le(a, b) if left else le(b, a)):
                        break
                else:
                    kept.append(a)
        if len(nl) != len(g.left) or len(nr) != len(g.right):
            g = _mk(nl, nr)
            continue
        # an option is bypassed through the first reply that is at least as
        # good for the opponent as g
        changed = False
        lt, rt = [], []
        for options, kept, left in ((g.left, lt, True), (g.right, rt, False)):
            for a in options:
                for reply in a.right if left else a.left:
                    if le(reply, g) if left else le(g, reply):
                        kept.extend(reply.left if left else reply.right)
                        changed = True
                        break
                else:
                    kept.append(a)
        if not changed:
            break
        g = _mk(lt, rt)
    for raw in seen:
        object.__setattr__(raw, "_canon", g)
    return g


def _add(a: CanonicalValue, b: CanonicalValue, memo: dict[tuple[int, int], CanonicalValue]) -> CanonicalValue:
    """Canonical value of ``a + b``, memoised in ``memo`` by the unordered pair."""
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    key = (a._seq, b._seq) if a._seq <= b._seq else (b._seq, a._seq)
    out = memo.get(key)
    if out is None:
        out = memo[key] = make_value(
            [_add(al, b, memo) for al in a.left] + [_add(a, bl, memo) for bl in b.left],
            [_add(ar, b, memo) for ar in a.right] + [_add(a, br, memo) for br in b.right],
        )
    return out


def game_add(g: CanonicalValue, h: CanonicalValue) -> CanonicalValue:
    """Canonical value of the disjunctive sum: move in one summand per turn.

    The sums of option pairs are memoised for this call only.
    """
    return _add(g, h, {})


def canonical_value(delta: LabeledComplex) -> CanonicalValue:
    """Canonical value of the placement game on a legal complex.

    A flag complex (:attr:`~spg.complexes.LabeledComplex.flag_conflicts`) is
    valued one connected factor at a time: the position with playable vertex
    set ``S`` is the disjunctive sum of the positions on the connected
    components of ``S`` in the conflict graph, and a move at v on a
    connected ``S`` leaves ``S`` minus v's conflicts.  The
    :func:`~spg.complexes.factor_walk` collects every reachable playable set
    with its components, and they are valued smallest first, each from
    values already computed; values are kept by vertex mask and sums by
    pair of values, both for this call only.  Any other complex is valued
    one face per symmetry orbit (:func:`_orbit_value`).
    """
    conflict = delta.flag_conflicts
    if conflict is None:
        return _orbit_value(delta)
    left = sum(1 << i for i, v in enumerate(delta.vertices) if delta.part[v] == "L")
    full = (1 << len(conflict)) - 1
    sums: dict[tuple[int, int], CanonicalValue] = {}
    value: dict[int, CanonicalValue] = {}
    for s, parts in factor_walk(conflict, full, lambda s: [s & ~conflict[i] for i in bits(s)]):
        if len(parts) > 1:
            total = ZERO
            for part in parts:
                total = _add(total, value[part], sums)
            value[s] = total
        else:
            value[s] = make_value(
                [value[s & ~conflict[i]] for i in bits(s & left)],
                [value[s & ~conflict[i]] for i in bits(s & ~left)],
            )
    return value[full]


def _orbit_value(delta: LabeledComplex) -> CanonicalValue:
    """Canonical value of a complex read from its faces, largest first, one
    :func:`make_value` per orbit of faces under some of its automorphisms.

    A part-preserving automorphism maps the game left after a face onto the
    game left after the face's image, so a face's value is its image's too.
    The automorphisms are the first |V| that
    :func:`~spg.complexes._isomorphisms` of the complex onto itself yields
    within as many candidate tests as the complex has faces (any set of them
    is sound; the bounds keep complexes with a huge group, or with one the
    search finds slowly, cheap), each applied to masks through per-byte
    tables.  A face not yet valued reads its moves, in vertex order, from
    the faces one vertex larger, which every larger mask has already valued,
    and gives its value to each of its images.
    """
    n = len(delta.vertices)
    full = (1 << n) - 1
    left = sum(1 << i for i, v in enumerate(delta.vertices) if delta.part[v] == "L")
    # a face plus v is a face only if v shares a facet with each of its vertices
    blocked = _byte_tables([full & ~c | 1 << i for i, c in enumerate(delta.cofacets)])
    # the identity comes first (within n tests, and every vertex is a face)
    found = _isomorphisms(delta, delta, budget=len(delta.face_masks))
    maps = [_byte_tables([1 << k for k in image]) for image in islice(found, 1, n)]
    value: dict[int, CanonicalValue] = {}
    for face in sorted(delta.face_masks or [0], reverse=True):
        if face in value:
            continue
        lefts, rights = [], []
        rest = full & ~_by_bytes(blocked, face)
        while rest:
            low = rest & -rest
            rest ^= low
            kid = value.get(face | low)
            if kid is not None:
                (lefts if low & left else rights).append(kid)
        value[face] = g = make_value(lefts, rights)
        for tables in maps:
            value[_by_bytes(tables, face)] = g
    return value[0]


def outcome(delta: LabeledComplex) -> str:
    """Normal-play outcome class: L, R, P (second wins) or N (first wins)."""
    return outcome_of_value(canonical_value(delta))


def outcome_of_value(g: CanonicalValue) -> str:
    ge0 = le(ZERO, g)
    le0 = le(g, ZERO)
    if ge0 and le0:
        return "P"
    if ge0:
        return "L"
    if le0:
        return "R"
    return "N"


def _as_int(g: CanonicalValue) -> Optional[int]:
    """The integer ``g`` is, read down its chain of lone options, or None."""
    n = 0
    while g is not ZERO:
        if not g.right and len(g.left) == 1 and n >= 0:
            n, g = n + 1, g.left[0]
        elif not g.left and len(g.right) == 1 and n <= 0:
            n, g = n - 1, g.right[0]
        else:
            return None
    return n


def value_str(g: CanonicalValue) -> str:
    """Bracket notation with shorthand for integers, star and switches.

    Each side's options are printed sorted by their printed form, so the
    string depends on the value alone, not on the order values were made in.
    A bracketed value is printed once per call, however many options share it.
    """
    memo: dict[CanonicalValue, str] = {}  # the bracketed values printed so far

    def text(g: CanonicalValue) -> str:
        if g in memo:
            return memo[g]
        n = _as_int(g)
        if n is not None:
            return str(n)
        if g.left == (ZERO,) and g.right == (ZERO,):
            return "*"
        if len(g.left) == 1 and len(g.right) == 1:
            a, b = _as_int(g.left[0]), _as_int(g.right[0])
            if a is not None and b is not None and a == -b and a > 0:
                return f"+-{a}"
        left = ",".join(sorted(text(x) for x in g.left))
        right = ",".join(sorted(text(x) for x in g.right))
        return memo.setdefault(g, f"{{{left}|{right}}}")

    return text(g)


# ---------------------------------------------------------------------------
# Two-route agreement harness


@dataclass(frozen=True)
class IsoAgreementReport:
    """Complex isomorphism and tree isomorphism evaluated independently."""

    complexes_isomorphic: bool
    trees_isomorphic: bool

    @property
    def agree(self) -> bool:
        return self.complexes_isomorphic == self.trees_isomorphic


def legal_iso_iff_tree_iso(d1: LabeledComplex, d2: LabeledComplex) -> IsoAgreementReport:
    """Evaluate both sides of the complex-iso vs tree-iso equivalence.

    Both routes are computed from scratch; the report's ``agree`` flag is the
    property under test, never assumed.
    """
    complexes = are_isomorphic(d1, d2) is not None
    trees = trees_isomorphic(d1, d2)
    return IsoAgreementReport(complexes, trees)

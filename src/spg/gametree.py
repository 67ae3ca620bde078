"""Game trees over legal complexes, and canonical normal-play values.

The tree of a complex is built from its face masks
(:attr:`~spg.complexes.LabeledComplex.face_masks`): one node per face, whose
children are the faces one vertex larger, in vertex order.  Equal faces share
one node, so the structure is a DAG; its unfolding is the move-sequence tree,
in which every ordering of a face is a play sequence, so the unfolded tree has
sum-over-faces-of-|F|! nodes.

Everything read off a tree is a fold of it: :func:`fold` walks the DAG once,
children before parents, without recursion.  The canonical value, the node
count of the unfolded tree, tree isomorphism and the DOT export are each one
such fold, so their cost is polynomial in the number of faces.

Values use the standard normal-play canonical form: options are simplified by
removing dominated options and bypassing reversible ones until a fixpoint,
and canonical values are interned so that equality of values is object
identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Callable, Iterable, Optional, TypeVar

from .complexes import LabeledComplex, are_isomorphic

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class GameTree:
    """A shared-subtree game tree node.

    ``children`` pairs each extension vertex with the moving player's label.
    Equal faces share one node object, so the structure is a DAG whose
    unfolding is the move-sequence tree.
    """

    face: frozenset[str]
    children: tuple[tuple[str, str, "GameTree"], ...]

    @cached_property
    def node_count(self) -> int:
        """Number of nodes of the unfolded move-sequence tree."""
        return fold(self, lambda _, counts: 1 + sum(counts))

    def __repr__(self) -> str:
        face = ",".join(sorted(self.face)) or "{}"
        return f"GameTree({face}; {len(self.children)} children)"


def build_tree(delta: LabeledComplex) -> GameTree:
    """The move tree of a legal complex, rooted at the empty position.

    Nodes are built largest face first, so every child exists before its
    parent.  The void complex and the single-face complex both yield a lone
    root: in either case no move is available.
    """
    moves = [(1 << i, delta.part[v], v) for i, v in enumerate(delta.vertices)]
    nodes: dict[int, GameTree] = {}
    for mask in sorted(delta.face_masks, key=int.bit_count, reverse=True):
        kids = tuple(
            (label, v, nodes[mask | b])
            for b, label, v in moves
            if not mask & b and mask | b in nodes
        )
        nodes[mask] = GameTree(delta.face_names(mask), kids)
    return nodes[0] if nodes else GameTree(frozenset(), ())


def fold(tree: GameTree, combine: Callable[[GameTree, list[T]], T]) -> T:
    """``combine(node, results)`` over the DAG below ``tree``, where
    ``results`` holds the children's results in move order.

    Each node is combined once, after its children.  An explicit stack walks
    the children in move order and finishes each child's subtree before the
    next, so the combines run in the order of a recursive depth-first walk.
    """
    done: dict[GameTree, T] = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        todo = [child for _, _, child in reversed(node.children) if child not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        done[node] = combine(node, [done[child] for _, _, child in node.children])
    return done[tree]


def trees_isomorphic(t1: GameTree, t2: GameTree) -> bool:
    """Root-preserving, player-label-preserving tree isomorphism.

    Children are compared as multisets via interned canonical codes, so the
    check is linear in the shared structure even when the unfolded trees are
    factorially large.
    """
    codes: dict[tuple, int] = {}

    def code(node: GameTree, kids: list[int]) -> int:
        key = tuple(sorted(zip((label for label, _, _ in node.children), kids)))
        return codes.setdefault(key, len(codes))

    return fold(t1, code) == fold(t2, code)


def tree_to_dot(t: GameTree, name: str = "tree") -> str:
    """DOT export of the shared DAG: one node per face, whose tooltip names
    the face, and one edge per move.

    Edge colour encodes the mover (L blue, R red).  Nodes are numbered
    children first, so the root is the last node.
    """
    lines = [f"digraph {name} {{", "  node [shape=circle, label=\"\"];"]
    ids = count()

    def emit(node: GameTree, kids: list[int]) -> int:
        my_id = next(ids)
        face = ",".join(sorted(node.face)) or "{}"
        lines.append(f'  n{my_id} [tooltip="{face}"];')
        for (label, vertex, _), child_id in zip(node.children, kids):
            color = "blue" if label == "L" else "red"
            lines.append(f'  n{my_id} -> n{child_id} [color={color}, label="{vertex}"];')
        return my_id

    fold(t, emit)
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

    __slots__ = ("left", "right", "_seq")

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
    lt = tuple(sorted(set(left), key=lambda g: g._seq))
    rt = tuple(sorted(set(right), key=lambda g: g._seq))
    key = (tuple(g._seq for g in lt), tuple(g._seq for g in rt))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    g = CanonicalValue()
    object.__setattr__(g, "left", lt)
    object.__setattr__(g, "right", rt)
    object.__setattr__(g, "_seq", len(_INTERN))
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
    out = not any(le(h, gl) for gl in g.left) and not any(le(hr, g) for hr in h.right)
    _LE_MEMO[key] = out
    return out


def make_value(
    left: Iterable[CanonicalValue], right: Iterable[CanonicalValue]
) -> CanonicalValue:
    """Canonical form of the game with the given (already canonical) options.

    Alternates two reductions to a fixpoint: drop dominated options, then
    bypass reversible options through the opponent's reply.
    """
    lt = list(dict.fromkeys(left))
    rt = list(dict.fromkeys(right))
    while True:
        g = _mk(lt, rt)
        nl = [a for a in g.left if not any(b is not a and le(a, b) for b in g.left)]
        nr = [a for a in g.right if not any(b is not a and le(b, a) for b in g.right)]
        if len(nl) != len(g.left) or len(nr) != len(g.right):
            lt, rt = nl, nr
            continue
        changed = False
        lt, rt = [], []
        for a in g.left:
            reply = next((ar for ar in a.right if le(ar, g)), None)
            if reply is None:
                lt.append(a)
            else:
                lt.extend(reply.left)
                changed = True
        for a in g.right:
            reply = next((al for al in a.left if le(g, al)), None)
            if reply is None:
                rt.append(a)
            else:
                rt.extend(reply.right)
                changed = True
        if not changed:
            return g


def game_add(g: CanonicalValue, h: CanonicalValue) -> CanonicalValue:
    """Canonical value of the disjunctive sum: move in one summand per turn."""
    memo: dict[tuple[int, int], CanonicalValue] = {}

    def add(a: CanonicalValue, b: CanonicalValue) -> CanonicalValue:
        key = (a._seq, b._seq)
        hit = memo.get(key)
        if hit is not None:
            return hit
        left = [add(al, b) for al in a.left] + [add(a, bl) for bl in b.left]
        right = [add(ar, b) for ar in a.right] + [add(a, br) for br in b.right]
        out = make_value(left, right)
        memo[key] = out
        memo[(b._seq, a._seq) if a is not b else key] = out
        return out

    return add(g, h)


def canonical_value(delta: LabeledComplex) -> CanonicalValue:
    """Canonical value of the placement game on a legal complex.

    A fold of :func:`build_tree`: one :func:`make_value` per face, from the
    values of the faces one move further, so evaluation is polynomial in the
    number of faces.
    """
    return fold(build_tree(delta), _value_of)


def _value_of(node: GameTree, values: list[CanonicalValue]) -> CanonicalValue:
    left = [g for (label, _, _), g in zip(node.children, values) if label == "L"]
    right = [g for (label, _, _), g in zip(node.children, values) if label == "R"]
    return make_value(left, right)


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
    if g is ZERO:
        return 0
    if not g.right and len(g.left) == 1:
        n = _as_int(g.left[0])
        return n + 1 if n is not None and n >= 0 else None
    if not g.left and len(g.right) == 1:
        n = _as_int(g.right[0])
        return n - 1 if n is not None and n <= 0 else None
    return None


def value_str(g: CanonicalValue) -> str:
    """Bracket notation with shorthand for integers, star and switches."""
    n = _as_int(g)
    if n is not None:
        return str(n)
    if g.left == (ZERO,) and g.right == (ZERO,):
        return "*"
    if len(g.left) == 1 and len(g.right) == 1:
        a, b = _as_int(g.left[0]), _as_int(g.right[0])
        if a is not None and b is not None and a == -b and a > 0:
            return f"+-{a}"
    left = ",".join(value_str(x) for x in g.left)
    right = ",".join(value_str(x) for x in g.right)
    return f"{{{left}|{right}}}"


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
    trees = trees_isomorphic(build_tree(d1), build_tree(d2))
    return IsoAgreementReport(complexes, trees)

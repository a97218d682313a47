"""And-or explanation trees and explanation extraction.

The entry points are :func:`create_tree`, :func:`shortest_explanation`,
:func:`k_different` and the brute-force oracle
:func:`enumerate_explanations`.
"""
from __future__ import annotations

import math
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Union

from .ground import GroundingIndex, instantiate_for_head
from .model import Atom, Program, Rule, AtomSet, supports
from .trees import EMPTY_TREE, Explanation, FrozenIdMap, IdMap, Label, VertexLabeledTree

DEFAULT_ENUM_CAP = 10_000
# Most vertices an and-or tree may hold while it is built.
MAX_TREE_VERTICES = 1_000_000


def create_tree(P: Program, X: AtomSet, d: Union[Atom, Rule]) -> VertexLabeledTree:
    """The and-or explanation tree for ``d`` under the answer set ``X``.

    An atom vertex gets one rule child per rule supporting it with the
    vertex's ancestor atoms (and the atom itself) excluded; a rule
    vertex gets one atom child per positive body atom. Subtrees that
    cannot be completed are dropped, and the whole result is the empty
    tree when nothing remains. Raises ``ValueError`` ("cap exceeded")
    once the tree holds more than :data:`MAX_TREE_VERTICES` vertices.

    One depth-first pass numbers the vertices in preorder. An incomplete
    subtree is always the one numbered last, so dropping it truncates.
    The supporting rules of an atom are instantiated when its first
    vertex opens, through a :class:`~aspexplain.ground.GroundingIndex`
    built for this call: it files the rules of ``P`` up front, and
    groups ``X`` by predicate only if a non-ground rule is joined.

    The subtree under an atom vertex depends only on the atom and the
    set of its ancestor atoms, so it is built once per such state: a
    completed one is a contiguous range of ids, and a repeat takes the
    next ids as a copy of that range; a state that cannot be completed
    is not opened again, and the rule vertex that needs it is dropped at
    once.
    Only atoms in two or more positive-body positions of the rules found
    so far are keyed, which keeps chains linear; the subtree of any
    other atom repeats only inside a repeat of a keyed ancestor. The
    keys hold at most :data:`MAX_TREE_VERTICES` atoms in all; past that,
    states are expanded as they come. The cap counts the ids this walk
    assigns, copies included, which on the way can be fewer than a walk
    expanding every repeat would assign.

    A copied range is resolved, not stored: it costs one ``(v, s, e)``
    entry, a copy at ``v`` of the range ``s`` to ``e``, and labels and
    child ids are stored only for the vertices built. The tree's
    ``labels`` and ``children`` are :class:`~aspexplain.trees.IdMap` s
    over every id, which read a copied id at its source, with child ids
    shifted. Child ids are stored as each vertex completes, so their
    keys come children first. Dropping a vertex cuts the entries made
    since it opened, those with ids from its own, from the stored
    vertices, the copies and the ranges.
    """
    if isinstance(d, Atom):
        if d not in X:
            raise ValueError("unknown explanandum: %s" % d.text)
    elif d not in P.rules:
        raise ValueError("unknown explanandum: %s" % d.text)
    index = GroundingIndex(P, X)
    # Per atom, its supporting rules with no ancestor atom excluded; the
    # atoms seen in one, and in two or more, body positions of those.
    candidates: dict[Atom, list[Rule]] = {}
    once: set[Atom] = set()
    shared: set[Atom] = set()
    # Keyed by (atom, ancestor atoms): the id range of each completed
    # subtree, oldest first, and the states that cannot complete.
    spans: dict[tuple[Atom, frozenset[Atom]], tuple[int, int]] = {}
    dead: set[tuple[Atom, frozenset[Atom]]] = set()
    # Atoms the keys may still hold: as many as the tree may hold
    # vertices, so that deep paths with no repeats cost bounded memory.
    room = MAX_TREE_VERTICES
    # The label of each vertex built, added as it opens, its child ids,
    # added as it completes, and each copy (v, s, e), added as it is
    # made: in all three, the entries made since a vertex opened are the
    # last ones, those with ids from its own.
    labels: dict[int, Label] = {}
    children: dict[int, tuple[int, ...]] = {}
    copies: list[tuple[int, int, int]] = []
    size = 0  # the next id
    path: set[Atom] = set()
    # Per open vertex: its id, its child ids so far, the children left
    # to try and its key.
    stack: list[tuple[int, list[int], Iterator[Label], Optional[tuple]]] = []
    todo: Optional[Label] = d

    def drop(v: int) -> None:
        """Drop ``v``, the vertices after it, their copies and their
        id ranges."""
        nonlocal size
        size = v
        for built in (labels, children):
            while built and next(reversed(built)) >= v:
                built.popitem()
        while copies and copies[-1][0] >= v:
            copies.pop()
        while spans:  # forget the ranges that were dropped
            key, (s, e) = spans.popitem()
            if s < v:
                spans[key] = (s, e)
                break

    while True:
        if todo is not None:  # open a vertex for todo, or copy its subtree
            v = size
            key = None
            if isinstance(todo, Atom) and todo in shared and len(path) < room:
                room -= len(path)
                key = (todo, frozenset(path))
            s, e = spans.get(key, (v, v + 1))
            if v + e - s > MAX_TREE_VERTICES:
                raise ValueError(
                    "cap exceeded: more than %d and-or tree vertices"
                    % MAX_TREE_VERTICES
                )
            if key in dead:
                # It cannot complete, nor can the rule vertex above it,
                # which has an atom vertex above it in turn.
                drop(stack.pop()[0])
                stack[-1][1].pop()
            elif key in spans:
                stack[-1][1].append(v)
                copies.append((v, s, e))
                size += e - s
            else:
                if stack:
                    stack[-1][1].append(v)
                labels[v] = todo
                size += 1
                if isinstance(todo, Atom):
                    if todo not in candidates:
                        candidates[todo] = [
                            r for r in instantiate_for_head(index, todo)
                            if supports(r, todo, X, frozenset())
                        ]
                        for r in candidates[todo]:
                            for a in r.body_pos:
                                (shared if a in once else once).add(a)
                    path.add(todo)
                    kids = [
                        r for r in candidates[todo] if path.isdisjoint(r.body_pos)
                    ]
                else:
                    kids = todo.body_pos
                stack.append((v, [], iter(kids), key))
        v, ids, rest, key = stack[-1]
        todo = next(rest, None)
        if todo is not None:
            continue
        stack.pop()  # v has no child left to try
        children[v] = tuple(ids)
        label = labels[v]
        if isinstance(label, Atom):
            path.remove(label)
        if key is not None:
            if ids:
                spans[key] = (v, size)
            else:
                dead.add(key)
        complete = bool(ids) or not isinstance(label, Atom)
        while not complete:
            # Drop v; a rule vertex that loses a body atom goes with it.
            drop(v)
            if not stack:
                return EMPTY_TREE
            u, ids = stack[-1][:2]
            ids.pop()
            complete = isinstance(labels[u], Atom)
            if not complete:
                stack.pop()
                v = u
        if not stack:
            table = (
                [v for v, s, e in copies],
                [v + e - s for v, s, e in copies],
                [v - s for v, s, e in copies],
            )
            return VertexLabeledTree(
                0,
                FrozenIdMap(table, size, labels),
                FrozenIdMap(table, size, children, shifted=True),
            )


def _fold(
    T: VertexLabeledTree,
    vertices: Iterable[int],
    at_atom: Callable[[Iterator[int]], int],
    at_rule: Callable[[int, Iterator[int]], int],
    F: Optional[dict[int, int]] = None,
) -> dict[int, int]:
    """One value per vertex of ``vertices``, which come children first:
    an atom vertex combines an iterator over its children's values with
    ``at_atom``, a rule vertex ``u`` with ``at_rule(u, values)``. The
    values go into ``F``, a new map unless one is given to update; every
    child of a vertex must be in ``vertices`` or already in ``F``.

    The folds over a subtree pass it in reversed preorder. The update in
    :func:`k_different` passes only the vertices above the explanation
    it just took, to re-fold them over the values of its one difference
    fold. A fold over a whole tree from :func:`create_tree` passes the
    ids of its stored child entries, in the order they were stored, and
    an :class:`~aspexplain.trees.IdMap` of the tree's copies, so it
    computes and stores a value only at each vertex built, and a copied
    id reads its source's value. This is exact only for a fold that
    ignores ids, one whose value at a vertex depends on the labels and
    shape of its subtree alone: a copy has its source's labels and
    shape, not its ids."""
    child_ids, labels = T.child_reader(), T.labels
    if F is None:
        F = {}
    value = F.__getitem__
    for u in vertices:
        values = map(value, child_ids(u))
        F[u] = at_atom(values) if isinstance(labels[u], Atom) else at_rule(u, values)
    return F


def _fold_from(
    T: VertexLabeledTree,
    v: int,
    at_atom: Callable[[Iterator[int]], int],
    at_rule: Callable[[int, Iterator[int]], int],
    ignores_ids: bool = True,
) -> dict[int, int]:
    """:func:`_fold` over the subtree at ``v``. From the root of an
    and-or tree, a fold that ignores ids follows the stored child
    entries in the order they were stored, computing a value only at
    each vertex :func:`create_tree` built; any other fold walks the
    subtree and passes it in reversed preorder."""
    if v == T.root and ignores_ids and isinstance(T.children, FrozenIdMap):
        values = IdMap(T.labels.copies, len(T))
        return _fold(T, dict.keys(T.children), at_atom, at_rule, values)
    return _fold(T, reversed(T.preorder_from(v)), at_atom, at_rule)


def calculate_weight(T: VertexLabeledTree, v: int) -> dict[int, int]:
    """Weights for the subtree at ``v``: an atom vertex takes the
    minimum of its children, a rule vertex one plus their sum. From the
    root of an and-or tree, weights are stored at built ids, and a
    copied id reads its source's."""
    return _fold_from(T, v, min, lambda u, values: 1 + sum(values))


def _unseen(R: AbstractSet[int]) -> Callable[[int, Iterator[int]], int]:
    """The difference at a rule vertex: one if it is not in ``R``, plus
    the sum of its children."""
    return lambda u, values: (u not in R) + sum(values)


def calculate_difference(
    T: VertexLabeledTree, v: int, R: frozenset[int]
) -> dict[int, int]:
    """Per-vertex contribution to the distance from the explanations
    whose rule vertices are ``R``: an atom vertex takes the maximum of
    its children, a rule vertex the sum of its children plus one if it
    is not yet in ``R``. From the root of an and-or tree with ``R``
    empty, differences are stored at built ids, and a copied id reads
    its source's; a non-empty ``R`` names ids, which a copy does not
    share with its source, so that fold walks the tree."""
    return _fold_from(T, v, max, _unseen(R), not R)


def extract_exp(
    T: VertexLabeledTree, v: int, W: dict[int, int], op: Callable = min
) -> Explanation:
    """Extract the explanation that follows the ``op``-weighted child at
    every atom vertex, ties broken by the least rule text, and all
    children at every rule vertex. Rule vertices keep their and-or-tree
    ids."""

    child_ids, labels = T.child_reader(), T.labels

    def pick(u: int) -> int:
        kids = child_ids(u)
        best = op(map(W.__getitem__, kids))
        tied = [c for c in kids if W[c] == best]
        if len(tied) == 1:  # no rule text to build
            return tied[0]
        return min(tied, key=lambda c: labels[c].text)

    return _collapse(T, v, pick)


def _collapse(
    T: VertexLabeledTree, v: int, pick: Callable[[int], int]
) -> Explanation:
    """The explanation below ``v`` in the and-or tree ``T``: every atom
    vertex gives way to the rule child ``pick`` chooses, and every rule
    vertex keeps all of its children."""

    tree_children, tree_labels = T.child_reader(), T.labels

    def rule_below(u: int) -> int:
        while isinstance(tree_labels[u], Atom):
            u = pick(u)
        return u

    labels: dict[int, Label] = {}
    children: dict[int, tuple[int, ...]] = {}
    root = rule_below(v)
    stack = [root]
    while stack:
        u = stack.pop()
        labels[u] = tree_labels[u]
        kids = tuple(map(rule_below, tree_children(u)))
        children[u] = kids
        stack.extend(reversed(kids))
    return Explanation(root, labels, children, andor=T)


def shortest_explanation(P: Program, X: AtomSet, p: Atom) -> Explanation:
    """A smallest explanation for ``p``, or the empty explanation when
    the and-or tree is empty."""
    if p not in X:
        raise ValueError("atom not in answer set: %s" % p.text)
    T = create_tree(P, X, p)
    if T.is_empty:
        return Explanation(None, andor=T)
    W = calculate_weight(T, T.root)
    return extract_exp(T, T.root, W, min)


def distance(Z: frozenset[int], S: Explanation) -> int:
    """How many of ``S``'s rule vertices are not already in ``Z``. Both
    must name vertices of ``S``'s and-or tree, whose ids are ``0`` to
    ``len(S.andor) - 1``."""
    ids = Z | S.rule_vertex_ids
    if ids and not (min(ids) >= 0 and max(ids) < len(S.andor)):
        raise ValueError("mismatched trees")
    return len(S.rule_vertex_ids - Z)


class _Overlay(dict):
    """Values written over ``base``, which gives every other one."""

    __slots__ = ("base",)

    def __init__(self, base: dict[int, int]) -> None:
        self.base = base

    def __missing__(self, u: int) -> int:
        return self.base[u]


def k_different(P: Program, X: AtomSet, p: Atom, k: int) -> list[Explanation]:
    """Up to ``k`` explanations, each maximizing the number of rule
    vertices unseen in the previous ones; stops early once every
    extractable explanation is fully covered.

    One difference fold over the whole tree is made per call, with
    nothing seen. A vertex's difference depends only on its subtree, so
    taking an explanation changes it only at the vertices above the
    explanation's rule vertices: those rule vertices, their atom
    children, each of which leads to one of them, and the root. Each
    later round re-folds just these, in decreasing id order, which is
    children first as the ids are preorder positions. The map then
    equals a whole-tree fold with every explanation taken so far seen.
    The re-folded values go into an overlay over the shared ones, since
    a copied vertex and its source may no longer agree."""
    if k < 1:
        raise ValueError("k must be positive")
    if p not in X:
        raise ValueError("atom not in answer set: %s" % p.text)
    T = create_tree(P, X, p)
    if T.is_empty:
        return []
    D = _Overlay(calculate_difference(T, T.root, frozenset()))
    R: set[int] = set()
    out = [extract_exp(T, T.root, D, max)]
    while len(out) < k:
        taken = out[-1].rule_vertex_ids
        R |= taken
        above = {T.root, *taken}
        for u in taken:
            above.update(T.children[u])
        _fold(T, sorted(above, reverse=True), max, _unseen(R), D)
        if D[T.root] == 0:
            break
        out.append(extract_exp(T, T.root, D, max))
    return out


def _tree_count(T: VertexLabeledTree) -> int:
    if T.root is None:
        return 0
    return _fold_from(T, T.root, sum, lambda u, values: math.prod(values))[T.root]


def enumerate_explanations(
    P: Program,
    X: AtomSet,
    p: Atom,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Explanation, ...]:
    """Every explanation for ``p``, exactly once, smallest first. This
    is the brute-force oracle the fast paths are tested against.

    Each explanation is read by :func:`_collapse`, whose ``pick`` is an
    odometer over the atom vertices in the order they are reached: the
    last one with another rule child advances, and the ones after it
    start over. An atom is reached only after every atom its presence
    depends on, so each choice of rule children is read once."""
    if p not in X:
        raise ValueError("atom not in answer set: %s" % p.text)
    T = create_tree(P, X, p)
    if cap < 1:
        raise ValueError("cap must be positive")
    if T.is_empty:
        return ()
    if _tree_count(T) > cap:
        raise ValueError("cap exceeded: more than %d explanation trees" % cap)
    child_ids = T.child_reader()
    choice: dict[int, int] = {}  # an atom vertex not in it takes its first child
    reached: list[int] = []

    def pick(u: int) -> int:
        reached.append(u)
        return child_ids(u)[choice.get(u, 0)]

    found = []
    while True:
        reached.clear()
        found.append(_collapse(T, T.root, pick))
        while reached and choice.get(reached[-1], 0) + 1 == len(child_ids(reached[-1])):
            choice.pop(reached.pop(), None)
        if not reached:
            return tuple(sorted(found, key=lambda e: (e.size, sorted(e.rule_vertex_ids))))
        u = reached[-1]
        choice[u] = choice.get(u, 0) + 1

"""And-or explanation trees and explanation extraction.

The entry points are :func:`create_tree`, :func:`shortest_explanation`,
:func:`k_different` and the brute-force oracle
:func:`enumerate_explanations`.
"""
from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Union

from .ground import GroundingIndex, instantiate_for_head
from .model import Atom, Program, Rule, AtomSet, supports
from .trees import EMPTY_TREE, Explanation, Label, VertexLabeledTree

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
    """
    if isinstance(d, Atom):
        if d not in X:
            raise ValueError("unknown explanandum: %s" % d.text)
    elif d not in set(P.rules):
        raise ValueError("unknown explanandum: %s" % d.text)
    index = GroundingIndex(P, X)
    # Per atom, its supporting rules with no ancestor atom excluded.
    candidates: dict[Atom, list[Rule]] = {}
    labels: list[Label] = []
    children: list[list[int]] = []
    path: set[Atom] = set()
    stack: list[tuple[int, Iterator[Label]]] = []
    todo: Optional[Label] = d
    while True:
        if todo is not None:  # open a vertex for todo
            v = len(labels)
            if v >= MAX_TREE_VERTICES:
                raise ValueError(
                    "cap exceeded: more than %d and-or tree vertices"
                    % MAX_TREE_VERTICES
                )
            if stack:
                children[stack[-1][0]].append(v)
            labels.append(todo)
            children.append([])
            if isinstance(todo, Atom):
                if todo not in candidates:
                    candidates[todo] = [
                        r for r in instantiate_for_head(index, todo)
                        if supports(r, todo, X, frozenset())
                    ]
                path.add(todo)
                kids = [r for r in candidates[todo] if path.isdisjoint(r.body_pos)]
            else:
                kids = todo.body_pos
            stack.append((v, iter(kids)))
        v, rest = stack[-1]
        todo = next(rest, None)
        if todo is not None:
            continue
        stack.pop()  # v has no child left to try
        if isinstance(labels[v], Atom):
            path.remove(labels[v])
        complete = bool(children[v]) or not isinstance(labels[v], Atom)
        while not complete:
            # Drop v; a rule vertex that loses a body atom goes with it.
            del labels[v:], children[v:]
            if not stack:
                return EMPTY_TREE
            u = stack[-1][0]
            children[u].pop()
            complete = isinstance(labels[u], Atom)
            if not complete:
                stack.pop()
                v = u
        if not stack:
            return VertexLabeledTree(
                0, dict(enumerate(labels)), dict(enumerate(map(tuple, children)))
            )


def _fold(
    T: VertexLabeledTree,
    v: int,
    at_atom: Callable[[list[int]], int],
    at_rule: Callable[[int, list[int]], int],
) -> dict[int, int]:
    """One value per vertex of the subtree at ``v``, children first: an
    atom vertex combines its children's values with ``at_atom``, a rule
    vertex ``u`` with ``at_rule(u, values)``."""
    F: dict[int, int] = {}
    for u in reversed(T.preorder_from(v)):
        values = [F[c] for c in T.child_ids(u)]
        F[u] = at_atom(values) if T.is_atom_vertex(u) else at_rule(u, values)
    return F


def calculate_weight(T: VertexLabeledTree, v: int) -> dict[int, int]:
    """Weights for the subtree at ``v``: an atom vertex takes the
    minimum of its children, a rule vertex one plus their sum."""
    return _fold(T, v, min, lambda u, values: 1 + sum(values))


def calculate_difference(
    T: VertexLabeledTree, v: int, R: frozenset[int]
) -> dict[int, int]:
    """Per-vertex contribution to the distance from the explanations
    whose rule vertices are ``R``: an atom vertex takes the maximum of
    its children, a rule vertex the sum of its children plus one if it
    is not yet in ``R``."""
    return _fold(T, v, max, lambda u, values: (u not in R) + sum(values))


def extract_exp(
    T: VertexLabeledTree, v: int, W: dict[int, int], op: Callable = min
) -> Explanation:
    """Extract the explanation that follows the ``op``-weighted child at
    every atom vertex, ties broken by the least rule text, and all
    children at every rule vertex. Rule vertices keep their and-or-tree
    ids."""

    def pick(u: int) -> int:
        kids = T.child_ids(u)
        best = op(W[c] for c in kids)
        return min(
            (c for c in kids if W[c] == best), key=lambda c: T.labels[c].text
        )

    return _collapse(T, v, pick)


def _collapse(
    T: VertexLabeledTree, v: int, pick: Callable[[int], int]
) -> Explanation:
    """The explanation below ``v`` in the and-or tree ``T``: every atom
    vertex gives way to the rule child ``pick`` chooses, and every rule
    vertex keeps all of its children."""

    def rule_below(u: int) -> int:
        while T.is_atom_vertex(u):
            u = pick(u)
        return u

    labels: dict[int, Label] = {}
    children: dict[int, tuple[int, ...]] = {}
    root = rule_below(v)
    stack = [root]
    while stack:
        u = stack.pop()
        labels[u] = T.labels[u]
        kids = tuple(rule_below(c) for c in T.child_ids(u))
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
    """How many of ``S``'s rule vertices are not already in ``Z``."""
    tree_ids = set(S.andor.labels)
    if not (set(Z) <= tree_ids and set(S.rule_vertex_ids) <= tree_ids):
        raise ValueError("mismatched trees")
    return len(S.rule_vertex_ids - Z)


def k_different(P: Program, X: AtomSet, p: Atom, k: int) -> list[Explanation]:
    """Up to ``k`` explanations, each maximizing the number of rule
    vertices unseen in the previous ones; stops early once every
    extractable explanation is fully covered."""
    if k < 1:
        raise ValueError("k must be positive")
    if p not in X:
        raise ValueError("atom not in answer set: %s" % p.text)
    T = create_tree(P, X, p)
    if T.is_empty:
        return []
    out: list[Explanation] = []
    R: frozenset[int] = frozenset()
    for i in range(k):
        D = calculate_difference(T, T.root, R)
        if D[T.root] == 0 and out:
            break
        e = extract_exp(T, T.root, D, max)
        out.append(e)
        R = R | e.rule_vertex_ids
    return out


def _tree_count(T: VertexLabeledTree) -> int:
    if T.root is None:
        return 0
    return _fold(T, T.root, sum, lambda u, values: math.prod(values))[T.root]


def enumerate_explanation_trees(
    T: VertexLabeledTree, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[VertexLabeledTree]:
    """All explanation trees inside the and-or tree ``T``: every atom
    vertex picks exactly one rule child, every rule vertex keeps all of
    its children. Vertex ids are shared with ``T``."""
    if T.is_empty:
        return
    if _tree_count(T) > cap:
        raise ValueError(
            "cap exceeded: more than %d explanation trees" % cap
        )

    # An odometer over the reached atom vertices in preorder: the last one
    # with another rule child advances, and the ones after it start over.
    choice = dict.fromkeys(T.labels, 0)
    while True:
        kept: dict[int, tuple[int, ...]] = {}
        reached: list[int] = []
        stack = [T.root]
        while stack:
            u = stack.pop()
            kids = T.child_ids(u)
            if T.is_atom_vertex(u):
                reached.append(u)
                kids = (kids[choice[u]],)
            kept[u] = kids
            stack.extend(reversed(kids))
        yield VertexLabeledTree(T.root, {u: T.labels[u] for u in kept}, kept)
        while reached and choice[reached[-1]] + 1 == len(T.child_ids(reached[-1])):
            choice[reached.pop()] = 0
        if not reached:
            return
        choice[reached[-1]] += 1


def explanation_of_tree(E: VertexLabeledTree, T: VertexLabeledTree) -> Explanation:
    """Collapse an explanation tree inside the and-or tree ``T`` to its
    rule vertices, connecting each rule vertex to the rule vertices
    chosen under its body atoms."""
    if E.is_empty:
        return Explanation(None, andor=T)
    return _collapse(T, E.root, lambda u: E.child_ids(u)[0])


def enumerate_explanations(
    P: Program,
    X: AtomSet,
    p: Atom,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Explanation, ...]:
    """Every explanation for ``p``, exactly once, smallest first. This
    is the brute-force oracle the fast paths are tested against."""
    if p not in X:
        raise ValueError("atom not in answer set: %s" % p.text)
    T = create_tree(P, X, p)
    trees = enumerate_explanation_trees(T, cap=cap)
    found = (explanation_of_tree(E, T) for E in trees)
    return tuple(sorted(found, key=lambda e: (e.size, sorted(e.rule_vertex_ids))))

"""Vertex-labeled trees: and-or explanation trees, explanation trees and
rule-only explanations.

Vertices are integer ids, numbered the same way on every run, so
identical inputs always produce identical trees. Each builder numbers
its own way: :func:`aspexplain.engine.create_tree` in preorder and
:func:`aspexplain.justify.justification_to_explanation` breadth-first.
An :class:`Explanation` keeps the ids of its and-or tree, and a tree
read from JSON the ids it was written with.
Labels are atoms or rules and may repeat across vertices.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

from .model import Atom, Rule

Label = Union[Atom, Rule]


class IdMap(dict):
    """A map over the ids ``0`` to ``size - 1`` of an and-or tree that
    stores entries only at the ids the tree built. Every other id lies
    in a range the tree copied and reads its source's entry. ``copies``
    holds the sorted first ids of those ranges, their ends and their
    shifts: an id ``u`` in the range ``v`` to ``v + e - s``, copied from
    ``s`` to ``e``, reads ``u - (v - s)``, resolved again while that id
    is itself copied. With ``shifted``, an entry is a tuple of ids,
    which a copied id reads shifted by the same amount. A stored id is
    read as from a plain dict, with no Python-level call; every method
    that a dict would answer from its stored entries alone answers for
    all ids."""

    __slots__ = ("copies", "size", "shifted")

    def __init__(self, copies: tuple, size: int, entries=(), shifted=False) -> None:
        dict.__init__(self, entries)
        self.copies, self.size, self.shifted = copies, size, shifted

    def __missing__(self, u: int):
        starts, ends, shifts = self.copies
        try:
            i, w = bisect_right(starts, u) - 1, u
        except TypeError:  # not an id, so not a key, as in a plain dict
            raise KeyError(u) from None
        while i >= 0 and w < ends[i]:  # a source lies before its copy
            w -= shifts[i]
            i = bisect_right(starts, w, 0, i) - 1
        if w == u:
            raise KeyError(u)
        entry = self[w]
        return tuple(map((u - w).__add__, entry)) if self.shifted else entry

    def __iter__(self):
        return iter(range(self.size))

    def __reversed__(self):
        return reversed(range(self.size))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return repr(self.copy())

    def copy(self) -> dict:
        return dict(self.items())

    def __or__(self, other):
        return self.copy() | other

    def __ror__(self, other):
        return other | self.copy()

    def __reduce__(self):  # the stored entries only: dict.copy would read every id
        return type(self), (self.copies, self.size, dict(dict.items(self)), self.shifted)

    __contains__, get, keys, items, values, __eq__ = (
        Mapping.__contains__, Mapping.get, Mapping.keys, Mapping.items,
        Mapping.values, Mapping.__eq__,
    )
    __ne__ = object.__ne__


class FrozenIdMap(IdMap):
    """An :class:`IdMap` that cannot be written: the labels and child
    ids of an and-or tree."""

    __slots__ = ()

    def _frozen(self, *args, **kwargs):
        raise TypeError("the vertices of an and-or tree are read-only")

    __setitem__ = __delitem__ = __ior__ = _frozen
    clear = pop = popitem = setdefault = update = _frozen


@dataclass(frozen=True)
class VertexLabeledTree:
    """A rooted tree whose vertices carry atom or rule labels.

    ``root is None`` encodes the empty tree. An and-or tree from
    :func:`aspexplain.engine.create_tree` stores nothing for a range of
    ids it copied: its ``labels`` and ``children`` are read-only
    :class:`IdMap` s that resolve a copied id to its source, and it has
    an entry at every vertex. The child ids it stores are in the order
    its vertices completed, children before parents.
    """

    root: Optional[int]
    labels: dict[int, Label] = field(default_factory=dict)
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return self.root is None

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.labels)

    def is_atom_vertex(self, v: int) -> bool:
        return isinstance(self.labels[v], Atom)

    def is_rule_vertex(self, v: int) -> bool:
        return isinstance(self.labels[v], Rule)

    def child_ids(self, v: int) -> tuple[int, ...]:
        return self.children.get(v, ())

    def child_reader(self) -> Callable[[int], tuple[int, ...]]:
        """:meth:`child_ids` as fast as the tree allows. An and-or tree
        has an entry at every vertex, read with no Python-level call at
        a built id; another tree may leave out a leaf's entry."""
        andor = isinstance(self.children, FrozenIdMap)
        return self.children.__getitem__ if andor else self.child_ids

    @cached_property
    def _depths(self) -> dict[int, int]:
        out: dict[int, int] = {}
        stack = [] if self.root is None else [(self.root, 0)]
        while stack:
            u, d = stack.pop()
            out[u] = d
            stack.extend((c, d + 1) for c in self.child_ids(u))
        return out

    def depth(self, v: int) -> int:
        return self._depths[v]

    def preorder(self) -> tuple[int, ...]:
        """All vertex ids in preorder."""
        return () if self.root is None else self.preorder_from(self.root)

    def preorder_from(self, v: int) -> tuple[int, ...]:
        out: list[int] = []
        stack = [v]
        child_ids = self.child_reader()
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(child_ids(u)))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.labels)


EMPTY_TREE = VertexLabeledTree(None)


@dataclass(frozen=True)
class Explanation(VertexLabeledTree):
    """A rule-vertex-only tree obtained from an explanation tree by
    skipping atom vertices.

    Vertex ids are the ids of the corresponding rule vertices in the
    originating and-or tree, which is what makes distances between
    explanations of the same tree well defined.
    """

    andor: VertexLabeledTree = field(default=EMPTY_TREE, compare=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def rule_vertex_ids(self) -> frozenset[int]:
        return frozenset(self.labels)

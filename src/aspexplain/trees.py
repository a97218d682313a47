"""Vertex-labeled trees: and-or explanation trees, explanation trees and
rule-only explanations.

Vertices are integer ids assigned in preorder during construction, so
identical inputs always produce identical trees. Labels are atoms or
rules and may repeat across vertices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .model import Atom, Rule

Label = Union[Atom, Rule]


@dataclass(frozen=True)
class VertexLabeledTree:
    """A rooted tree whose vertices carry atom or rule labels.

    ``root is None`` encodes the empty tree. ``completion`` is empty but
    on an and-or tree from :func:`aspexplain.engine.create_tree`, which
    lists there the order in which its vertices completed: the id of
    each vertex it built, and ``(first id, source start, source end)``
    for each range of ids it copied from the range ``source start`` to
    ``source end``. Children come before parents, and each copy after
    its source, so a fold over the whole tree can follow it.
    """

    root: Optional[int]
    labels: dict[int, Label] = field(default_factory=dict)
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)
    completion: tuple[Union[int, tuple[int, int, int]], ...] = field(
        default=(), compare=False, repr=False
    )

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

    @cached_property
    def _preorder(self) -> tuple[int, ...]:
        return () if self.root is None else self.preorder_from(self.root)

    def preorder(self) -> tuple[int, ...]:
        """All vertex ids in preorder, walked once per tree."""
        return self._preorder

    def preorder_from(self, v: int) -> tuple[int, ...]:
        out: list[int] = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(self.child_ids(u)))
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

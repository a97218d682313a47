"""Offline justifications: e-graphs, local consistent explanations, and
the conversions between justifications and explanation trees."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Union

from . import engine
from .model import Atom, Program, Rule, AtomSet
from .trees import Explanation, Label, VertexLabeledTree

ASSUME = "assume"
TOP = "top"
BOT = "bot"
MARKERS = (ASSUME, TOP, BOT)

MARKER_DISPLAY = {ASSUME: "assume", TOP: "⊤", BOT: "⊥"}


@dataclass(frozen=True, order=True)
class AnnotatedAtom:
    """An atom marked as true (``+``) or false (``-``)."""

    atom: Atom
    sign: str

    def __post_init__(self) -> None:
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be + or -")
        if not self.atom.is_ground:
            raise ValueError("non-ground annotated atom: %s" % self.atom.text)

    @property
    def text(self) -> str:
        return self.atom.text + self.sign


Node = Union[AnnotatedAtom, str]
Edge = tuple[Node, Node, str]


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its default negation, as used in rule bodies and LCEs."""

    atom: Atom
    negated: bool = False


def _node_key(n: Node):
    return (0, n) if isinstance(n, str) else (1, n.atom, n.sign)


def _node_error(n: Node, out: list[Edge]) -> str:
    """Why ``n`` with the out-edges ``out`` breaks an e-graph condition,
    or the empty string."""
    if isinstance(n, str):
        return "marker node %s cannot have out-edges" % n if out else ""
    if not out:
        return "only assume/top/bot may be sinks: %s" % n.text
    marks = [(dst, sign) for _, dst, sign in out if isinstance(dst, str)]
    if n.sign == "+" and ((ASSUME, "-") in marks or (BOT, "-") in marks):
        return "positive node %s with a negative marker edge" % n.text
    if n.sign == "-" and ((ASSUME, "+") in marks or (TOP, "+") in marks):
        return "negative node %s with a positive marker edge" % n.text
    if marks and len(out) > 1:
        return "marker edge of %s must be its only out-edge" % n.text
    return ""


@dataclass(frozen=True)
class EGraph:
    """A labeled directed graph over annotated atoms and the marker
    nodes assume, ⊤ and ⊥; the structural conditions are enforced at
    construction time. A violation is reported for the smallest
    offending node in :func:`_node_key` order."""

    nodes: frozenset[Node]
    edges: frozenset[Edge]
    _out: dict[Node, tuple[Edge, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if any(s not in self.nodes or d not in self.nodes for s, d, _ in self.edges):
            raise ValueError("edge endpoint not among the nodes")
        if any(sign not in ("+", "-") for _, _, sign in self.edges):
            raise ValueError("edge label must be + or -")
        out: dict[Node, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            out[e[0]].append(e)
        errors = [(n, msg) for n in self.nodes if (msg := _node_error(n, out[n]))]
        if errors:
            raise ValueError(min(errors, key=lambda x: _node_key(x[0]))[1])
        object.__setattr__(self, "_out", {
            n: tuple(sorted(es, key=lambda e: (_node_key(e[1]), e[2])))
            for n, es in out.items()
        })

    def out_edges(self, n: Node) -> tuple[Edge, ...]:
        """The edges leaving ``n``, ordered by target node and sign."""
        return self._out.get(n, ())


def support_of(b: AnnotatedAtom, G: EGraph) -> Union[str, frozenset[Literal]]:
    """What a node directly rests on: the marker its single edge points
    to, or the literal set read off its outgoing edges."""
    if b not in G.nodes:
        raise ValueError("node not in graph: %s" % b.text)
    out = G.out_edges(b)
    for _, dst, _ in out:
        if isinstance(dst, str):
            return dst
    return frozenset(
        Literal(dst.atom, negated=(sign == "-")) for _, dst, sign in out
    )


def _atoms_by_sign(S: frozenset[Literal]) -> tuple[set[Atom], set[Atom]]:
    """The atoms of the positive and of the negated literals of ``S``."""
    pos: set[Atom] = set()
    neg: set[Atom] = set()
    for l in S:
        (neg if l.negated else pos).add(l.atom)
    return pos, neg


def _is_positive_lce(
    rules: list[Rule], b: Atom, pos: set[Atom], neg: set[Atom],
    plus: frozenset[Atom], minus_or_u: frozenset[Atom],
) -> bool:
    """``rules`` are the rules of the program with head ``b``; ``pos``
    and ``neg`` are the atoms of the positive and of the negated
    literals of the support."""
    if b not in plus or not (pos <= plus and neg <= minus_or_u):
        return False
    return any(pos == set(r.body_pos) and neg == set(r.body_neg) for r in rules)


def _falsifies_all(rules: list[Rule], pos: set[Atom], neg: set[Atom]) -> bool:
    return all(not pos.isdisjoint(r.body_pos) or not neg.isdisjoint(r.body_neg)
               for r in rules)


def _is_negative_lce(
    rules: list[Rule], b: Atom, pos: set[Atom], neg: set[Atom],
    plus: frozenset[Atom], minus_or_u: frozenset[Atom],
) -> bool:
    """``rules`` are the rules of the program with head ``b``. The
    support must falsify each of them, and none with one literal fewer
    may: one atom fewer in ``pos`` or in ``neg``."""
    if b not in minus_or_u or not (pos <= minus_or_u and neg <= plus):
        return False
    return _falsifies_all(rules, pos, neg) and not (
        any(_falsifies_all(rules, pos - {a}, neg) for a in pos)
        or any(_falsifies_all(rules, pos, neg - {a}) for a in neg)
    )


def _has_positive_cycle(G: EGraph) -> bool:
    """Kahn's algorithm over the positive edges between atom nodes: the
    nodes never freed of incoming edges are those on or below a cycle."""
    below = {
        n: [d for _, d, s in G.out_edges(n) if s == "+" and not isinstance(d, str)]
        for n in G.nodes
        if not isinstance(n, str)
    }
    incoming = dict.fromkeys(below, 0)
    for targets in below.values():
        for d in targets:
            incoming[d] += 1
    free = [n for n, k in incoming.items() if not k]
    freed = 0
    while free:
        freed += 1
        for d in below[free.pop()]:
            incoming[d] -= 1
            if not incoming[d]:
                free.append(d)
    return freed < len(below)


def is_offline_justification(
    P: Program, G: EGraph, b: AnnotatedAtom, M: AtomSet, U: AtomSet
) -> bool:
    """Check every condition that makes ``G`` an offline justification
    of ``b`` with respect to the answer set ``M`` and assumption ``U``:
    reachability from ``b``, every node's support being a local
    consistent explanation, no positive cycle, no assumed true atom,
    and assume edges exactly for the false atoms in ``U``. ``P`` must be
    ground; raises ``ValueError`` otherwise."""
    if not P.is_ground:
        raise ValueError("non-ground program")
    minus_or_u = (P.herbrand_base - M) | U
    by_head: dict[Atom, list[Rule]] = {}
    for r in P.rules:
        by_head.setdefault(r.head, []).append(r)
    if b not in G.nodes:
        return False
    reached = {b}
    frontier = deque([b])
    while frontier:
        n = frontier.popleft()
        if isinstance(n, str):
            continue
        for _, dst, _ in G.out_edges(n):
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    if reached != set(G.nodes):
        return False
    for n in G.nodes:
        if isinstance(n, str):
            continue
        sup = support_of(n, G)
        assumed = n.sign == "-" and n.atom in U
        if sup == ASSUME or assumed:
            ok = sup == ASSUME and assumed
        elif isinstance(sup, str) and sup != (TOP if n.sign == "+" else BOT):
            ok = False  # ⊤ supports only true atoms, and ⊥ only false ones
        else:
            lce = _is_positive_lce if n.sign == "+" else _is_negative_lce
            pos, neg = (set(), set()) if isinstance(sup, str) else _atoms_by_sign(sup)
            ok = lce(by_head.get(n.atom, []), n.atom, pos, neg, M, minus_or_u)
        if not ok:
            return False
    return not _has_positive_cycle(G)


def justification_to_explanation(
    X: AtomSet, p: Atom, G: EGraph
) -> VertexLabeledTree:
    """Read an explanation tree off a justification of ``p``: each atom
    vertex gets one rule child whose rule has the atom as head and the
    node's support as body; each rule vertex gets one atom child per
    positive body atom. Raises ``ValueError`` ("cap exceeded") once the
    tree holds more than :data:`engine.MAX_TREE_VERTICES` vertices.

    One breadth-first pass numbers the vertices, so the children of
    each vertex have consecutive ids.
    """
    if p not in X:
        raise ValueError("atom not in answer set: %s" % p.text)
    if AnnotatedAtom(p, "+") not in G.nodes:
        raise ValueError("justification does not mention %s" % p.text)
    if _has_positive_cycle(G):
        raise ValueError("malformed justification: positive cycle")
    cap = engine.MAX_TREE_VERTICES
    labels: list[Label] = [p]
    first: list[int] = []  # per vertex, the id of its first child
    rule_of: dict[Atom, Rule] = {}
    for lbl in labels:  # labels grows while it is read
        first.append(len(labels))
        if isinstance(lbl, Rule):
            labels.extend(lbl.body_pos)
        else:
            if lbl not in rule_of:
                node = AnnotatedAtom(lbl, "+")
                if node not in G.nodes:
                    raise ValueError("justification does not mention %s" % node.text)
                body = support_of(node, G)
                if isinstance(body, str):
                    if body != TOP:
                        raise ValueError(
                            "true atom %s rests on %s, not a rule" % (lbl.text, body)
                        )
                    body = frozenset()
                pos, neg = _atoms_by_sign(body)
                rule_of[lbl] = Rule(lbl, tuple(sorted(pos)), tuple(sorted(neg)))
            labels.append(rule_of[lbl])
        if len(labels) > cap:
            raise ValueError(
                "cap exceeded: more than %d explanation tree vertices" % cap
            )
    first.append(len(labels))
    return VertexLabeledTree(0, dict(enumerate(labels)), {
        v: tuple(range(first[v], first[v + 1])) for v in range(len(labels))
    })


def explanation_to_justification(
    P: Program, X: AtomSet, p: Atom, T: VertexLabeledTree
) -> EGraph:
    """Build the justification of ``p`` in the reduct of ``P`` encoded
    by an explanation tree, read as one map from each atom to the rule
    it heads. In an :class:`Explanation` each rule vertex maps its head
    to itself; in a plain tree each atom vertex maps its atom to its one
    rule child, which must have that atom as head. The root's atom must
    be ``p``, the atoms below each rule must be its positive body atoms,
    and an atom met again must head the same rule.

    Each mapped atom points to ⊤ if its rule has no positive body and
    it is a fact of the reduct, and to each positive body atom of its
    rule otherwise, once however often the body writes it. No positive
    cycle arises: each atom keeps one rule and the atoms below a rule
    are its body, so a cycle would run down the finite tree forever."""
    if p not in X:
        raise ValueError("atom not in answer set: %s" % p.text)
    if T.is_empty:
        raise ValueError("empty explanation tree")
    explanation = isinstance(T, Explanation)

    def atom_of(v: int) -> Atom:
        """The atom of vertex ``v``: its label, or in an explanation its head."""
        lbl = T.labels[v]
        if explanation and (not isinstance(lbl, Rule) or lbl.is_constraint):
            raise ValueError("explanation vertex %s is not a rule with a head"
                             % lbl.text)
        if not explanation and not isinstance(lbl, Atom):
            raise ValueError("rule vertex %s where an atom vertex belongs" % lbl.text)
        return lbl.head if explanation else lbl

    if (root := atom_of(T.root)) != p:
        raise ValueError("explanation of %s, not of the queried atom %s"
                         % (root.text, p.text))
    rule_of: dict[Atom, Rule] = {}
    stack = [(T.root, root)]
    while stack:
        v, atom = stack.pop()
        rule, below = T.labels[v], T.child_ids(v)
        if not explanation:
            if len(below) != 1:
                raise ValueError("atom vertex %s does not have exactly one child"
                                 % atom.text)
            rule, below = T.labels[below[0]], T.child_ids(below[0])
            if not isinstance(rule, Rule):
                raise ValueError("child of an atom vertex must be a rule vertex")
            if rule.head != atom:
                raise ValueError("atom vertex %s has the rule child %s of another "
                                 "head" % (atom.text, rule.text))
        if rule_of.setdefault(atom, rule) != rule:
            raise ValueError("atom %s heads two rules" % atom.text)
        below = [(c, atom_of(c)) for c in below]
        if {a for _, a in below} != set(rule.body_pos):
            raise ValueError("the atoms below rule %s are not its positive body"
                             % rule.text)
        stack += below
    if not P.is_ground:
        raise ValueError("non-ground program")
    # The atoms whose rule has no positive body point to ⊤ if they are
    # facts of the reduct P^X.
    node = {a: AnnotatedAtom(a, "+") for a in rule_of}
    bare = {a for a, r in rule_of.items() if not r.body_pos}
    edges = {(node[r.head], TOP, "+") for r in P.rules if r.head in bare
             and not r.body_pos and not r.body_card and X.isdisjoint(r.body_neg)}
    edges.update((node[a], node[b], "+")
                 for a, r in rule_of.items() for b in r.body_pos)
    return EGraph(frozenset([*node.values(), TOP]), frozenset(edges))

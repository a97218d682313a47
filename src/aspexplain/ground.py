"""Grounding by joining positive bodies against an atom set.

Every ground rule that matters for explaining an atom of an answer set
``X``, or for checking that ``X`` is an answer set, has its positive
body inside ``X``. A :class:`GroundingIndex` holds the rules of a
program and the atoms of ``X``; rule variables are bound by joining the
positive body, left to right, against those atoms, as a bottom-up
grounder does. :func:`ground_program` grounds every rule this way and
:func:`instantiate_for_head` only the rules for one head atom. The
whole grounding over the Herbrand universe is
``ground_program(P, P.herbrand_base)``.
"""
from __future__ import annotations

import itertools
from typing import Optional

from .model import (
    Atom,
    CardinalityExpression,
    Program,
    Rule,
    Term,
    AtomSet,
)


class GroundingError(ValueError):
    pass


Subst = dict[str, Term]


def _subst_atom(atom: Atom, subst: Subst) -> Atom:
    if atom.is_ground:
        return atom
    return Atom(atom.predicate, tuple(subst.get(t, t) for t in atom.args))


def _expand_card(
    card: CardinalityExpression, subst: Subst, universe: tuple[Term, ...]
) -> CardinalityExpression:
    """Apply ``subst`` to the member atoms, then expand variables local
    to the expression over the universe."""
    members: list[Atom] = []
    for pattern in card.atoms:
        pattern = _subst_atom(pattern, subst)
        local = sorted(pattern.variables())
        if not local:
            members.append(pattern)
            continue
        for combo in itertools.product(universe, repeat=len(local)):
            extra = dict(zip(local, combo))
            members.append(_subst_atom(pattern, extra))
    return CardinalityExpression(card.lower, card.upper, tuple(dict.fromkeys(members)))


def _check_groundable(r: Rule, universe: tuple[Term, ...]) -> None:
    """Every variable outside the cardinality expressions must occur in
    a positive body atom, and there must be constants to substitute;
    cardinality-expression variables not bound elsewhere are local and
    expanded in place."""
    pos_vars: set[str] = set()
    for a in r.body_pos:
        pos_vars |= a.variables()
    needed: set[str] = set()
    if r.head is not None:
        needed |= r.head.variables()
    for a in r.body_neg:
        needed |= a.variables()
    unbound = sorted(needed - pos_vars)
    if unbound:
        raise GroundingError(
            "unsafe rule %r: variable %s does not occur in a positive body atom"
            % (r.display, unbound[0])
        )
    if not universe:
        raise GroundingError(
            "cannot ground rule %r: the program has no constants" % r.display
        )


def _instance(r: Rule, subst: Subst, universe: tuple[Term, ...]) -> Rule:
    return Rule(
        None if r.head is None else _subst_atom(r.head, subst),
        tuple(_subst_atom(a, subst) for a in r.body_pos),
        tuple(_subst_atom(a, subst) for a in r.body_neg),
        tuple(_expand_card(c, subst, universe) for c in r.body_card),
    )


def _match_atom(pattern: Atom, ground: Atom, subst: Subst) -> Optional[Subst]:
    """Extend ``subst`` so that ``pattern`` becomes ``ground``, an atom
    of the same predicate and arity, or give up with None."""
    out = dict(subst)
    for t, g in zip(pattern.args, ground.args):
        if t.is_variable:
            bound = out.get(t)
            if bound is None:
                out[t] = g
            elif bound != g:
                return None
        elif t != g:
            return None
    return out


class GroundingIndex:
    """The rules of ``P`` by head, the atoms of ``X`` by predicate and
    arity, and the sorted Herbrand universe of ``P``, for
    :func:`ground_program` and :func:`instantiate_for_head`. Atoms of
    ``X`` with a constant outside the universe are left out, as no
    instance over the universe holds them. Raises
    :class:`GroundingError` for the first rule, in program order, that
    is unsafe or has variables in a program without constants.
    """

    def __init__(self, P: Program, X: AtomSet):
        self.universe = tuple(sorted(P.herbrand_universe))
        self.constants = P.herbrand_universe
        # Ground heads keyed by atom, others by predicate and arity; the
        # program position decides whose source text a duplicate keeps.
        self.rules: dict[object, list[tuple[int, Rule]]] = {}
        for i, r in enumerate(P.rules):
            if not r.is_ground:
                _check_groundable(r, self.universe)
            if r.head is not None:
                key = r.head if r.head.is_ground else (r.head.predicate, r.head.arity)
                self.rules.setdefault(key, []).append((i, r))
        self.atoms: dict[tuple[str, int], list[Atom]] = {}
        for a in X:
            if self.constants.issuperset(a.args):
                self.atoms.setdefault((a.predicate, a.arity), []).append(a)
        # Built on first use: (predicate, arity, bound positions) ->
        # values at those positions -> atoms.
        self._tables: dict[tuple, dict[tuple[Term, ...], list[Atom]]] = {}

    def candidates(self, pattern: Atom) -> list[Atom]:
        """The indexed atoms that agree with ``pattern`` on its constant
        arguments."""
        bound = tuple(i for i, t in enumerate(pattern.args) if not t.is_variable)
        key = (pattern.predicate, pattern.arity, bound)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
            for a in self.atoms.get(key[:2], ()):
                table.setdefault(tuple(a.args[i] for i in bound), []).append(a)
        return table.get(tuple(pattern.args[i] for i in bound), [])


def _join(index: GroundingIndex, r: Rule, subst: Subst) -> list[Rule]:
    """The instances of ``r`` that extend ``subst`` and whose positive
    body lies in the indexed atom set: the positive body is joined, left
    to right, against the atom set, and variables local to a cardinality
    expression range over the universe."""
    substs = [subst]
    for pattern in r.body_pos:
        substs = [
            m
            for s in substs
            for a in index.candidates(_subst_atom(pattern, s))
            if (m := _match_atom(pattern, a, s)) is not None
        ]
    return [r if r.is_ground else _instance(r, s, index.universe) for s in substs]


def ground_program(P: Program, X: AtomSet) -> Program:
    """The ground instances, over the constants of ``P``, of the rules
    of ``P``, constraints included, whose positive body lies in ``X``.

    Instances of one rule come out sorted by text and rules keep program
    order; a duplicate keeps the source text of the first rule in
    program order. ``ground_program(P, P.herbrand_base)`` is the whole
    grounding. Raises :class:`GroundingError` as :class:`GroundingIndex`
    does.
    """
    index = GroundingIndex(P, X)
    rules: list[Rule] = []
    for r in P.rules:
        rules.extend(sorted(_join(index, r, {}), key=lambda g: g.text))
    return Program(tuple(rules)).deduplicated()


def instantiate_for_head(index: GroundingIndex, p: Atom) -> tuple[Rule, ...]:
    """Ground instances, over the Herbrand universe, of the indexed
    rules whose head is ``p`` and whose positive body lies in the
    indexed atom set.

    The head is unified with ``p``; the other variables are bound by
    the join :func:`ground_program` uses. The result is deduplicated,
    the first rule in program order keeping its source text, and sorted
    by text.
    """
    if not p.is_ground:
        raise GroundingError("non-ground query atom: %s" % p.text)
    if not index.constants.issuperset(p.args):
        return ()
    out: list[Rule] = []
    rules = index.rules.get(p, []) + index.rules.get((p.predicate, p.arity), [])
    for _, r in sorted(rules):
        head = _match_atom(r.head, p, {})
        if head is not None:
            out.extend(_join(index, r, head))
    return tuple(sorted(dict.fromkeys(out), key=lambda g: g.text))

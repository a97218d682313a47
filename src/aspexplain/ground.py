"""Grounding by joining positive bodies against an atom set.

Every ground rule that matters for explaining an atom of an answer set
``X``, or for checking that ``X`` is an answer set, has its positive
body inside ``X``. A :class:`GroundingIndex` holds the rules of a
program and the atoms of ``X``; rule variables are bound by joining the
positive body against those atoms, the most bound atom first, as a
bottom-up grounder does; each instance is built from the body as
written, so the order of the join changes no instance. A cardinality
member with a variable local to its expression is looked up the same
way, and stands for the atoms of ``X`` it matches: a member outside
``X`` never counts towards a bound.
:func:`ground_program` grounds every rule this way and
:func:`instantiate_for_head` only the rules for one head atom. The
whole grounding over the Herbrand universe is
``ground_program(P, P.herbrand_base)``. What a grounding holds at one
time is bounded: one step of a join holds at most
:data:`MAX_JOIN_WIDTH` partial substitutions, and one grounding of the
program, or one grounding of the rules for one head atom, builds at
most :data:`MAX_GROUND_INSTANCES` instances; an input past either fails
with "cap exceeded" before it fills memory. The budget is reset on each
call of :func:`instantiate_for_head`, so a query that visits several
atoms may build that many for each.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import AbstractSet, Optional

from .model import (
    Atom,
    CardinalityExpression,
    Program,
    Rule,
    Term,
    AtomSet,
)


# Most ground instances one call of ground_program or
# instantiate_for_head may build, the cardinality members that a local
# variable finds in the indexed atom set included. An instance of a
# five-atom rule takes about 1 KB once grounded and sorted, so this is
# about 250 MB.
MAX_GROUND_INSTANCES = 250_000
# Most partial substitutions one step of a join may hold, at about
# 250 bytes each. A body atom none of whose variables is bound yet
# matches every atom of its predicate, so this is also the largest
# relation such an atom is joined over.
MAX_JOIN_WIDTH = 1_000_000


class GroundingError(ValueError):
    pass


Subst = dict[str, Term]
_ARGS = itemgetter(1)


def _subst_atom(atom: Atom, subst: Subst) -> Atom:
    if atom.is_ground:
        return atom
    return Atom(atom.predicate, tuple(subst.get(t, t) for t in atom.args))


def _expand_card(
    card: CardinalityExpression, subst: Subst, index: "GroundingIndex"
) -> CardinalityExpression:
    """Apply ``subst`` to the member atoms. A member that still holds a
    variable, one local to the expression, stands for the indexed atoms
    it matches, in sorted order, each spent from the budget of
    ``index``; a ground member stays as it is."""
    members: list[Atom] = []
    for pattern in card.atoms:
        pattern = _subst_atom(pattern, subst)
        found = [pattern]
        if not pattern.is_ground:
            # A match binds a variable, so it is a non-empty dict.
            found = sorted(a for a in index.candidates(pattern) if _match_atom(pattern, a, {}))
            index.spend(len(found))
        members.extend(found)
    return CardinalityExpression(card.lower, card.upper, tuple(dict.fromkeys(members)))


def _check_groundable(r: Rule, constants: AbstractSet[Term]) -> None:
    """Every variable outside the cardinality expressions must occur in
    a positive body atom, and there must be constants to substitute;
    cardinality-expression variables not bound elsewhere are local, and
    each member holding one stands for the indexed atoms it matches."""
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
    if not constants:
        raise GroundingError(
            "cannot ground rule %r: the program has no constants" % r.display
        )


def _instance(r: Rule, subst: Subst, index: "GroundingIndex") -> Rule:
    return Rule(
        None if r.head is None else _subst_atom(r.head, subst),
        tuple(_subst_atom(a, subst) for a in r.body_pos),
        tuple(_subst_atom(a, subst) for a in r.body_neg),
        tuple(_expand_card(c, subst, index) for c in r.body_card),
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
    """The rules of ``P`` by head, joined against the atoms of ``X`` by
    :func:`ground_program` and :func:`instantiate_for_head`. Raises
    :class:`GroundingError` for the first rule, in program order, that
    is unsafe or has variables in a program without constants.

    Only the rules are filed up front, from
    :attr:`FiledFacts.others <aspexplain.model.FiledFacts>`, in program
    order, so the first unsafe one is the one reported; ``P.rules`` is
    not read. The ground facts, the bulk of a knowledge base, stay in
    the columns the parser filed them in, and a fact's rule is built for
    :func:`instantiate_for_head` from :attr:`FiledFacts.by_head`, which
    is built on the first lookup. A ground pattern, and the body of a
    ground rule, is looked up in ``X``. ``X`` is grouped by predicate
    name in one pass, once, when a pattern with a variable is first
    joined; the join order reads the size of each group. A relation, the
    atoms of one predicate and arity without those with a constant
    outside the universe, which no instance holds, is split off its
    group on first use, and each table of bound positions over it is
    built on first use too.

    Each call of :func:`ground_program` or :func:`instantiate_for_head`
    may build :data:`MAX_GROUND_INSTANCES` instances, cardinality
    members included, and each step of a join may hold
    :data:`MAX_JOIN_WIDTH` partial substitutions; one more of either
    raises :class:`GroundingError` with "cap exceeded".
    """

    def __init__(self, P: Program, X: AtomSet):
        self.X = X
        self.constants = P.herbrand_universe
        self.filed = P.filed_facts
        # The other rules: ground heads keyed by atom, others by
        # predicate and arity; the program position decides whose
        # source text a duplicate keeps.
        self.rules: dict[object, list[tuple[int, Rule]]] = {}
        self.nonground: set[int] = set()
        self.room = MAX_GROUND_INSTANCES
        variables = P.variables
        for i, r in self.filed.others:
            head = r.head
            if variables and not r.is_ground:
                _check_groundable(r, self.constants)
                self.nonground.add(i)
                if head is not None and not head.is_ground:
                    head = (head.predicate, head.arity)
            if head is not None:
                self.rules.setdefault(head, []).append((i, r))
        # (predicate, arity) -> atoms, and (predicate, arity, bound
        # positions) -> values at those positions -> atoms.
        self._relations: dict[tuple[str, int], list[Atom]] = {}
        self._tables: dict[tuple, dict[object, list[Atom]]] = {}

    def spend(self, n: int) -> None:
        """Take ``n`` instances from the budget of the current call."""
        self.room -= n
        if self.room < 0:
            raise GroundingError(
                "cap exceeded: more than %d ground instances" % MAX_GROUND_INSTANCES
            )

    @cached_property
    def by_predicate(self) -> dict[str, list[Atom]]:
        """The atoms of ``X`` by predicate name."""
        groups: defaultdict[str, list[Atom]] = defaultdict(list)
        for a in self.X:
            groups[a[0]].append(a)
        return groups

    def _relation(self, predicate: str, arity: int) -> list[Atom]:
        key = (predicate, arity)
        atoms = self._relations.get(key)
        if atoms is None:
            atoms = [a for a in self.by_predicate.get(predicate, ()) if len(a[1]) == arity]
            if not self.constants.issuperset(chain.from_iterable(map(_ARGS, atoms))):
                atoms = [a for a in atoms if self.constants.issuperset(a[1])]
            self._relations[key] = atoms
        return atoms

    def candidates(self, pattern: Atom) -> list[Atom]:
        """The indexed atoms that agree with ``pattern`` on its constant
        arguments."""
        args = pattern.args
        bound = tuple(i for i, t in enumerate(args) if not t[0].isupper())
        if len(bound) == len(args):
            return [pattern] if pattern in self.X else []
        atoms = self._relation(pattern.predicate, len(args))
        if not bound:
            return atoms
        key = (pattern.predicate, len(args), bound)
        get = itemgetter(*bound)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
            for a, k in zip(atoms, map(get, map(_ARGS, atoms))):
                table.setdefault(k, []).append(a)
        return table.get(get(args), [])


def _next_atom(index: GroundingIndex, rest: list[Atom], bound: set[str]) -> Atom:
    """The atom of ``rest`` to join next, given the ``bound`` variables.
    The first atom with every variable bound is taken at once, as it is
    only looked up, before ``X`` is grouped. Of the others, an atom that
    holds a constant or a bound variable, or whose predicate has at most
    one atom in the indexed set, comes before a cross product, which
    multiplies the width of the join by the size of its relation; then
    the one with the fewest variables not yet bound; then the one whose
    predicate has the fewest atoms in the indexed set; then the first."""
    for a in rest:
        if bound.issuperset(a.variables()):
            return a
    groups = index.by_predicate

    def rank(a: Atom) -> tuple[bool, int, int]:
        free = a.variables() - bound
        size = len(groups.get(a.predicate, ()))
        return (size > 1 and free.issuperset(a.args), len(free), size)

    return min(rest, key=rank)


def _join(index: GroundingIndex, i: int, r: Rule, subst: Subst) -> list[Rule]:
    """The instances of ``r``, the rule at position ``i`` of the
    program, that extend ``subst`` and whose positive body lies in the
    indexed atom set: the positive body is joined against the atom set
    in the order :func:`_next_atom` picks, and a cardinality member with
    a variable local to its expression is looked up in the atom set by
    :func:`_expand_card`. Each instance is built from the body in source
    order."""
    if i not in index.nonground:
        return [r] if index.X.issuperset(r.body_pos) else []
    substs = [subst]
    rest = list(r.body_pos)
    bound = set(subst)
    while rest and substs:
        pattern = _next_atom(index, rest, bound)
        rest.remove(pattern)
        bound |= pattern.variables()
        # One past the width is made at most, which raises.
        substs = list(islice((
            m
            for s in substs
            for a in index.candidates(_subst_atom(pattern, s))
            if (m := _match_atom(pattern, a, s)) is not None
        ), MAX_JOIN_WIDTH + 1))
        if len(substs) > MAX_JOIN_WIDTH:
            raise GroundingError(
                "cap exceeded: more than %d partial substitutions in one join"
                % MAX_JOIN_WIDTH
            )
    index.spend(len(substs))
    return [_instance(r, s, index) for s in substs]


def _by_text(rules: list[Rule]) -> list[Rule]:
    """``rules`` sorted by text, which is not built for a single rule."""
    return sorted(rules, key=lambda g: g.text) if len(rules) > 1 else rules


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
    for i, r in enumerate(P.rules):
        rules.extend(_by_text(_join(index, i, r, {})))
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
    index.room = MAX_GROUND_INSTANCES
    out: list[Rule] = []
    rules = index.rules.get(p, []) + index.rules.get((p.predicate, p.arity), [])
    for i, r in sorted(rules):
        head = _match_atom(r.head, p, {})
        if head is not None:
            out.extend(_join(index, i, r, head))
    # No instance of another rule is a fact: its body is not empty, or
    # its head holds a variable no positive body atom binds.
    source = index.filed.by_head.get(p)
    if source is not None:
        out.append(Rule(p, source_text=source))
    return tuple(_by_text(list(dict.fromkeys(out))))

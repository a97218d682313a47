"""Core data model for ground answer-set programs.

Terms, atoms, rules and programs are immutable value objects; two rules
with the same head and body are the same rule no matter how they were
spelled in the input (``source_text`` is carried for display only).
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Optional


class Term(str):
    """A constant or a variable, as its surface text.

    The text decides the kind: names starting with an uppercase letter
    are variables; lowercase identifiers, integers and double-quoted
    strings are constants. A term is a ``str``, so it hashes, compares
    and sorts as its text and equals the plain string.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Term":
        if not name:
            raise ValueError("empty term name")
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return str.__str__(self)

    @property
    def is_variable(self) -> bool:
        return self[0].isupper()

    @property
    def unquoted(self) -> str:
        """Constant text with surrounding double quotes stripped."""
        if len(self) >= 2 and self[0] == '"' and self[-1] == '"':
            return self[1:-1]
        return self.name

    def __repr__(self) -> str:
        return "Term(name=%s)" % str.__repr__(self)


class Atom(NamedTuple):
    """A predicate applied to terms. An atom is the tuple
    ``(predicate, args)``, so it hashes, compares and sorts as one and
    equals the plain tuple."""

    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def is_ground(self) -> bool:
        for t in self.args:
            if t[0].isupper():  # Term.is_variable, inlined
                return False
        return True

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def text(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(self.args))

    def variables(self) -> frozenset[str]:
        return frozenset(t for t in self.args if t.is_variable)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class CardinalityExpression:
    """A body cardinality expression ``lower {a; b; ...} upper``.

    ``upper`` is ``None`` when there is no upper bound; a missing lower
    bound defaults to 0.
    """

    lower: int = 0
    upper: Optional[int] = None
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError("negative lower bound")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def is_ground(self) -> bool:
        for a in self.atoms:
            if not a.is_ground:
                return False
        return True

    @property
    def text(self) -> str:
        inner = "{%s}" % "; ".join(a.text for a in self.atoms)
        parts = []
        if self.lower > 0:
            parts.append(str(self.lower))
        parts.append(inner)
        if self.upper is not None:
            parts.append(str(self.upper))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.text


class _RuleFields(NamedTuple):
    head: Optional[Atom]
    body_pos: tuple[Atom, ...] = ()
    body_neg: tuple[Atom, ...] = ()
    body_card: tuple[CardinalityExpression, ...] = ()


class Rule(_RuleFields):
    """A rule ``head :- body``; ``head is None`` encodes a constraint.

    A rule is the tuple ``(head, body_pos, body_neg, body_card)``, so it
    hashes and compares as one and equals the plain tuple; an atom is a
    2-tuple and never equals a rule. ``source_text`` is kept in the
    instance ``__dict__``, outside equality and hashing.
    """

    source_text = ""

    def __new__(cls, head: Optional[Atom], body_pos: tuple[Atom, ...] = (),
                body_neg: tuple[Atom, ...] = (),
                body_card: tuple[CardinalityExpression, ...] = (),
                source_text: str = "") -> "Rule":
        self = tuple.__new__(cls, (head, body_pos, body_neg, body_card))
        if source_text:
            self.source_text = source_text
        return self

    @property
    def is_fact(self) -> bool:
        return not self.body_pos and not self.body_neg and not self.body_card

    @property
    def is_constraint(self) -> bool:
        return self.head is None

    @property
    def is_ground(self) -> bool:
        if self.head is not None and not self.head.is_ground:
            return False
        for a in self.body_pos:
            if not a.is_ground:
                return False
        for a in self.body_neg:
            if not a.is_ground:
                return False
        for c in self.body_card:
            if not c.is_ground:
                return False
        return True

    @property
    def text(self) -> str:
        body = [a.text for a in self.body_pos]
        body += ["not %s" % a.text for a in self.body_neg]
        body += [c.text for c in self.body_card]
        head = self.head.text if self.head is not None else ""
        if not body:
            return head
        if not head:
            return ":- %s" % ", ".join(body)
        return "%s :- %s" % (head, ", ".join(body))

    @property
    def display(self) -> str:
        """The rule as written, or its text when the source holds a
        comment or a line break, which would not print as one line."""
        s = self.source_text
        return s if s and "%" not in s and s.splitlines() == [s] else self.text

    def __str__(self) -> str:
        return self.text


def _atom_instantiations(atom: Atom, universe: tuple[Term, ...]) -> Iterator[Atom]:
    if atom.is_ground:
        yield atom
        return
    names = sorted(atom.variables())
    for combo in itertools.product(universe, repeat=len(names)):
        subst = dict(zip(names, combo))
        args = tuple(subst.get(t, t) for t in atom.args)
        yield Atom(atom.predicate, args)


class FiledFacts:
    """The ground facts of a program, held as columns, and its other
    rules.

    ``atoms`` and ``sources`` hold the head and the source text of each
    ground fact, in program order; no :class:`Rule` is kept for a fact.
    ``others`` holds each other rule, a fact with a variable in its head
    among them, with its position; the facts take the positions the
    other rules leave, in order. Built from the columns when first asked
    for: :attr:`heads`, for reading an answer set against the program;
    :attr:`by_head`, for the grounder; and :meth:`rules`, for
    ``Program.rules``. A knowledge base is mostly ground facts, so filing
    them once, as they are read, spares each later use a pass over every
    rule, and a fact costs a rule only where one is asked for.
    """

    def __init__(self) -> None:
        self.atoms: list[Atom] = []
        self.sources: list[str] = []
        self.others: list[tuple[int, Rule]] = []

    def add_facts(self, atoms: list[Atom], sources: list[str]) -> None:
        """File ground facts, given as their heads and source texts."""
        self.atoms += atoms
        self.sources += sources

    def file(self, r: Rule) -> None:
        """File ``r``, the rule after those filed so far, as a fact if it
        is one with a ground head; else among the other rules."""
        head = r[0]
        if head is None or r[1] or r[2] or r[3] or not head.is_ground:
            self.others.append((len(self.atoms) + len(self.others), r))
        else:
            self.atoms.append(head)
            self.sources.append(r.source_text)

    @cached_property
    def heads(self) -> dict[str, Atom]:
        """The source text of each ground fact to its head."""
        return dict(zip(self.sources, self.atoms))

    @cached_property
    def by_head(self) -> dict[Atom, str]:
        """Each head to the source text of the first fact with that head,
        for the grounder: a later duplicate is the same rule, and
        grounding keeps the first."""
        return dict(zip(reversed(self.atoms), reversed(self.sources)))

    def rules(self) -> tuple[Rule, ...]:
        """Every rule in program order, a :class:`Rule` built for each
        fact."""
        facts = list(map(tuple.__new__, repeat(Rule),
                         zip(self.atoms, repeat(()), repeat(()), repeat(()))))
        deque(map(setattr, facts, repeat("source_text"), self.sources), 0)
        out: list[Rule] = []
        rest = iter(facts)
        for i, r in self.others:
            if i > len(out):
                out += islice(rest, i - len(out))
            out.append(r)
        out += rest
        return tuple(out)


class Program:
    """A tuple of rules, compared and hashed as its rules. A program read
    by ``parse_program`` holds its ground facts as the columns of its
    :attr:`filed_facts`, and its ``rules`` are built from them, whole,
    the first time they are read."""

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        self.__dict__["rules"] = rules

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return self.filed_facts.rules()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.rules,))

    def __repr__(self) -> str:
        return "Program(rules=%r)" % (self.rules,)

    @property
    def is_ground(self) -> bool:
        return not self.variables

    def _atom_patterns(self) -> Iterator[Atom]:
        rules = self.rules
        cards = chain.from_iterable(map(itemgetter(3), rules))
        return chain(
            filter(None, map(itemgetter(0), rules)),
            chain.from_iterable(map(itemgetter(1), rules)),
            chain.from_iterable(map(itemgetter(2), rules)),
            chain.from_iterable(map(attrgetter("atoms"), cards)),
        )

    @cached_property
    def _terms(self) -> frozenset[Term]:
        """The distinct terms of the rules. ``parse_program`` fills it in
        with the terms it interned, which are exactly these."""
        return frozenset(chain.from_iterable(map(itemgetter(1), self._atom_patterns())))

    @cached_property
    def variables(self) -> frozenset[Term]:
        """All variables occurring anywhere in the rules."""
        return frozenset([t for t in self._terms if t[0].isupper()])

    @cached_property
    def herbrand_universe(self) -> frozenset[Term]:
        """All constants occurring anywhere in the rules."""
        return self._terms.difference(self.variables)

    @cached_property
    def filed_facts(self) -> FiledFacts:
        """The ground facts as columns, and the other rules with their
        positions. ``parse_program`` files each rule as it reads it; this
        walk files them the same way for a program built any other way."""
        filed = FiledFacts()
        for r in self.rules:
            filed.file(r)
        return filed

    @cached_property
    def herbrand_base(self) -> frozenset[Atom]:
        """All ground atoms obtained by instantiating the rules' atoms
        over the constants of the program."""
        universe = tuple(sorted(self.herbrand_universe))
        base: set[Atom] = set()
        for pattern in self._atom_patterns():
            base.update(_atom_instantiations(pattern, universe))
        return frozenset(base)

    def deduplicated(self) -> "Program":
        """Drop structurally duplicate rules; the first occurrence (and
        its source text) wins."""
        return Program(tuple(dict.fromkeys(self.rules)))

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)


class AnswerSet(frozenset):
    """A set of ground atoms, typically produced by a solver. It is a
    ``frozenset`` that rejects non-ground atoms, so it equals and hashes
    as the frozenset of the same atoms."""

    __slots__ = ()

    def __new__(cls, atoms: Iterable[Atom] = ()) -> "AnswerSet":
        X = frozenset.__new__(cls, atoms)
        for a in X:
            if not a.is_ground:
                raise ValueError("non-ground atom in answer set: %s" % a.text)
        return X

    @classmethod
    def _of_ground(cls, atoms: Iterable[Atom]) -> "AnswerSet":
        """An answer set of atoms the caller has already checked to be
        ground, built without checking them again."""
        return frozenset.__new__(cls, atoms)

    @property
    def atoms(self) -> "AnswerSet":
        return self


AtomSet = AbstractSet[Atom]


class NotInAnswerSet(ValueError):
    """A query's "no", which is an answer and not an input error: the
    atom is not in the answer set, or the set is not an answer set of
    the program. The command line exits 1 with its message as the one
    line on stderr."""


def satisfies_card(X: AtomSet, C: CardinalityExpression) -> bool:
    """True iff the number of members of ``C`` in ``X`` lies within the
    bounds."""
    if not C.is_ground:
        raise ValueError("non-ground cardinality expression: %s" % C.text)
    n = len(X.intersection(C.atoms))
    return C.lower <= n and (C.upper is None or n <= C.upper)


def satisfies_rule(I: AtomSet, r: Rule) -> bool:
    """Classical satisfaction of a single (possibly negated) rule."""
    body_holds = (
        I.issuperset(r.body_pos)
        and I.isdisjoint(r.body_neg)
        and all(satisfies_card(I, c) for c in r.body_card)
    )
    if not body_holds:
        return True
    return r.head is not None and r.head in I


def reduct(P: Program, I: AtomSet) -> Program:
    """Drop every rule whose negative body meets ``I`` and strip the
    negative bodies from the rest; cardinality expressions are kept."""
    if not P.is_ground:
        raise ValueError("non-ground program")
    kept = []
    for r in P.rules:
        if not I.isdisjoint(r.body_neg):
            continue
        kept.append(Rule(r.head, r.body_pos, (), r.body_card))
    return Program(tuple(kept))


def least_model(P: Program, I: AtomSet) -> frozenset[Atom]:
    """The least model of the reduct ``P^I`` with its constraints
    dropped: every head derivable from the facts by the rules whose
    negative body avoids ``I``.

    Each rule counts its positive body atoms not yet derived; deriving
    an atom decrements the counters of the rules it occurs in, and a
    rule whose counter reaches zero derives its head. The work queue
    replaces recursion, and the cost is linear in the size of ``P``
    (Dowling & Gallier 1984). Only normal programs are accepted.
    """
    heads: list[Atom] = []
    missing: list[int] = []
    watchers: dict[Atom, list[int]] = {}
    queue: list[Atom] = []
    for r in P.rules:
        if r.body_card:
            raise ValueError("normal programs only")
        if r.head is None or not I.isdisjoint(r.body_neg):
            continue
        if not r.body_pos:
            queue.append(r.head)
            continue
        # A body atom listed twice is watched twice and, once derived,
        # decrements the counter twice.
        i = len(heads)
        heads.append(r.head)
        missing.append(len(r.body_pos))
        for b in r.body_pos:
            watchers.setdefault(b, []).append(i)
    model: set[Atom] = set()
    while queue:
        a = queue.pop()
        if a in model:
            continue
        model.add(a)
        for i in watchers.get(a, ()):
            missing[i] -= 1
            if not missing[i]:
                queue.append(heads[i])
    return frozenset(model)


def is_answer_set(P: Program, I: AtomSet) -> bool:
    """Answer-set check: ``I`` must satisfy the reduct and equal its
    least model (Gelfond & Lifschitz 1988).

    Only ground programs without cardinality expressions are accepted.
    """
    ok, _ = verify_answer_set(P, I)
    return ok


def verify_answer_set(P: Program, I: AtomSet) -> tuple[bool, str]:
    """Like :func:`is_answer_set` but reports the violated condition.

    When ``I`` satisfies the reduct, every subset of ``I`` that does so
    contains the least model, which satisfies the reduct itself; so the
    least model is the smallest such subset, and the one reported when
    ``I`` is not minimal.
    """
    if not P.is_ground:
        raise ValueError("non-ground program")
    if any(r.body_card for r in P.rules):
        raise ValueError("cardinality expressions not supported in verification")
    # A rule whose negative body meets I is satisfied classically, just
    # as it is absent from the reduct; a failing rule is reported as it
    # stands in the reduct.
    for r in P.rules:
        if not satisfies_rule(I, r):
            r = Rule(r.head, r.body_pos, (), r.body_card)
            return False, "unsatisfied rule: %s." % r.display
    least = least_model(P, I)
    if least != I:
        return False, (
            "not subset-minimal: {%s} already satisfies the reduct"
            % ", ".join(a.text for a in sorted(least))
        )
    return True, ""


def supports(r: Rule, p: Atom, Y: AtomSet, Z: AtomSet) -> bool:
    """True iff ``r`` supports ``p`` using atoms in ``Y`` but not in
    ``Z``: the head is ``p``, the positive body lies in ``Y`` minus
    ``Z``, the negative body avoids ``Y`` and ``Y`` satisfies the body
    cardinality expressions."""
    return (
        r.head == p
        and Y.issuperset(r.body_pos)
        and Z.isdisjoint(r.body_pos)
        and Y.isdisjoint(r.body_neg)
        and all(satisfies_card(Y, c) for c in r.body_card)
    )

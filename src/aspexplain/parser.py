"""Parsing of programs, answer sets and predicate look-up tables.

The program grammar is deliberately small: rules of the form
``head :- body.`` where body elements are atoms, ``not`` atoms, or
cardinality expressions ``l {a; b} u`` with optional bounds. ``%``
starts a line comment. Integer intervals ``1..n`` are accepted in facts
only and desugared into one fact per value, at most
:data:`MAX_INTERVAL_FACTS` per fact and per program.

There are two readers. One regular-expression match reads a fact or
a rule of atoms: a head atom, then optionally ``:-`` and a body of
atoms and ``not`` atoms, then the period, after any whitespace and
whole-line comments. One ``split`` around the atoms reads an answer set
(below). Everything else goes to the token grammar, a recursive descent
over tokens: a query atom; a constraint, a statement with a cardinality
body, an interval or a comment inside, or of more than 10,000
characters, that statement alone; an answer set with an ``Answer: N``
line, a variable or a comment, or an atom the split cannot read, whole.
Every message, line and column of a refused program is the one the
token grammar gives on the whole text: a statement it refuses raises
the first lexical error of the rest of the text, if there is one, and
its own error otherwise.

A fact the match reads is built inline as its atom and its rule, two
tuples; its first two arguments are groups of the match, so only a
third and further ones are read again. Terms are interned once per
text, and the program is given the interned terms as its
:attr:`Program._terms`: every term interned is in a rule, as a
:class:`ParseError` leaves no program, so the program's variables and
constants take no pass over its atoms.

Each rule, whichever reader read it, is filed once as it is built in
the program's :attr:`Program.filed_facts`: a ground fact by source text
for the answer-set reader and by head for the grounder, which then take
the facts as they are instead of walking every rule again; every other
rule, a fact whose head holds a variable among them, by its position.
The interned terms record each variable as it is first read, so a fact
read by the match is tested against the variables read so far, and
only once the text has shown one.

An answer set is read against the facts of its program:
:attr:`FiledFacts.heads` maps the source text of each ground fact to
its head, and without a program the map is empty. The text is split at
whitespace; a piece found in the map is that head, and the other
pieces, joined by line breaks, go to one ``split`` around atoms, in
which no atom may hold a line break. A text with ``%``, or with a piece
that is not such atoms, such as a piece of ``p( a )``, is read by the
token grammar.
"""
from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .model import (
    AnswerSet,
    Atom,
    CardinalityExpression,
    FiledFacts,
    Program,
    Rule,
    Term,
)

# Most facts one interval fact, and all interval facts of one program
# together, may expand to; checked before expanding.
MAX_INTERVAL_FACTS = 100_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


def _error(message: str, text: str, offset: int) -> ParseError:
    """A :class:`ParseError` at ``offset`` of ``text``. Lines are counted
    by ``\\n`` only when an error is raised, so parsing never tracks them."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(
        message, text.count("\n", 0, line_start) + 1, offset - line_start + 1
    )


_TOKEN_RE = re.compile(r"""
      (?P<SKIP>\s+|%[^\n]*)
    | (?P<STRING>"[^"\n]*")
    | (?P<DOTS>\.\.)
    | (?P<NUMBER>-?\d+)
    | (?P<IMPL>:-)
    | (?P<IDENT>[a-z_][A-Za-z0-9_]*)
    | (?P<VAR>[A-Z][A-Za-z0-9_]*)
    | (?P<SYM>[(){},;.])
    | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)


def _unexpected(m: re.Match, text: str) -> ParseError:
    """The error of a BAD match of :data:`_TOKEN_RE` in ``text``."""
    return _error("unexpected character %r" % m.group(), text, m.start())


# (kind, value, offset). A token list ends with an END token whose offset
# is just past the last token, where "unexpected end of input" points.
Token = tuple[str, str, int]


def _tokenize(text: str, pos: int = 0, one_statement: bool = False) -> list[Token]:
    """The tokens of ``text`` from ``pos``: to its end, or with
    ``one_statement`` through the first period only."""
    out: list[Token] = []
    end = pos
    for m in _TOKEN_RE.finditer(text, pos):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "BAD":
            raise _unexpected(m, text)
        value = m.group()
        out.append((kind, value, m.start()))
        end = m.end()
        if one_statement and value == ".":
            break
    out.append(("END", "", end))
    return out


# The regular-expression reader. Each piece reads exactly the tokens the
# token grammar reads there: a term is one STRING, NUMBER, IDENT or VAR
# token, and every token ends where the next piece cannot continue it.
# Each repetition is separated by a character that cannot start the
# next piece, and a comment runs to the end of its line, so a failed
# match backtracks in linear time and never reads a comment as atoms.
_TERM = r'"[^"\n]*"|-?\d+|[A-Za-z_][A-Za-z0-9_]*'
_TERM_RE = re.compile(_TERM)
# Ground terms of an answer set: no VAR, and no line break of
# str.splitlines in a string, as the token grammar reads answer sets by
# those lines.
_GROUND_TERM = r'"[^"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*"|-?\d+|[a-z_][A-Za-z0-9_]*'
_SKIP = r"(?:\s|%[^\n]*(?![^\n]))*"


def _list(item: str, sep: str) -> str:
    """One or more ``item`` separated by ``sep`` and optional whitespace."""
    return r"(?:{i})(?:\s*{s}\s*(?:{i}))*".format(i=item, s=sep)


def _atom(term: str, g: str = "?:") -> str:
    """``name`` or ``name(term, ..., term)``; with ``g=""`` the name and
    the argument text are its two groups."""
    return r"({g}[a-z_][A-Za-z0-9_]*)(?:\s*\(\s*({g}{args})\s*\))?".format(
        g=g, args=_list(term, ",")
    )


def _literal(g: str = "?:") -> str:
    """A body atom or "not" atom; only a "not" literal starts with the
    token "not". With ``g=""`` its groups are the "not" and the atom's
    two."""
    return r"({g}not\s+|(?!not(?![A-Za-z0-9_]))){a}".format(g=g, a=_atom(_TERM, g))


# Groups: source text, head name, first head argument, second head
# argument, the text of the further head arguments, body. The period
# must be followed by a character other than a period, which the token
# grammar would read with it as "..": at the end of the text, or of the
# characters a match is given, the statement goes to the token grammar.
# A match keeps a backtracking record of several hundred bytes per item
# of each list it reads, so it is given at most _MAX_STATEMENT
# characters; a longer statement, with the whitespace and comments
# before it, is read by the token grammar.
_HEAD = r"([a-z_][A-Za-z0-9_]*)(?:\s*\(\s*({t})(?:\s*,\s*({t})(?:\s*,\s*({a}))?)?\s*\))?".format(
    t=_TERM, a=_list(_TERM, ",")
)
_STATEMENT_RE = re.compile(r"{s}({h}(?:\s*:-\s*({b}))?)\s*\.(?=[^.])".format(
    s=_SKIP, h=_HEAD, b=_list(_literal(), ",")
))
_MAX_STATEMENT = 10_000
_END_RE = re.compile(_SKIP + r"\Z")
_LITERAL_RE = re.compile(_literal(""))
_GROUND_ATOM_RE = re.compile(_atom(_GROUND_TERM, ""))


_TERM_KINDS = frozenset(("IDENT", "STRING", "VAR", "NUMBER"))


class _Terms(dict):
    """Interned terms by name: each name gets one :class:`Term`, and
    each variable among them is also in ``variables``."""

    def __init__(self) -> None:
        super().__init__()
        self.variables: set[Term] = set()

    def __missing__(self, name: str) -> Term:
        t = self[name] = Term(name)
        if name[0].isupper():  # Term.is_variable, inlined
            self.variables.add(t)
        return t


def _atom_of(name: str, args: Optional[str], intern: Callable[[str], Term]) -> Atom:
    """The atom of the two groups of :func:`_atom`, built as the tuple it
    is, without the call of ``Atom.__new__``."""
    terms = tuple(map(intern, _TERM_RE.findall(args))) if args else ()
    return tuple.__new__(Atom, (name, terms))


def _rule_of(source: str, head: Atom, body: str,
             intern: Callable[[str], Term]) -> Rule:
    """The rule of one :data:`_STATEMENT_RE` match with a body, given
    its source text, its head and the body group."""
    body_pos: list[Atom] = []
    body_neg: list[Atom] = []
    for neg, name, args in _LITERAL_RE.findall(body):
        (body_neg if neg else body_pos).append(_atom_of(name, args, intern))
    return Rule(head, tuple(body_pos), tuple(body_neg), (), source)


def _read_program(text: str) -> Program:
    """Read ``text`` a statement per match of :data:`_STATEMENT_RE`,
    sending each statement it cannot read, alone, to the token grammar,
    which raises :class:`ParseError` on a refused one. The head
    arguments are the match's groups; only a third and further ones are
    read again. A fact is built here as the two tuples it is and filed
    in the program's :class:`FiledFacts`, among the other rules if its
    head holds a variable interned so far; a rule with a body is built
    by :func:`_rule_of`."""
    terms = _Terms()
    intern, variables = terms.__getitem__, terms.variables
    findall = _TERM_RE.findall
    new = tuple.__new__
    plain = _Parser(text, terms)
    filed = FiledFacts()
    heads, file_head, others = filed.heads, filed.by_head.setdefault, filed.others
    rules: list[Rule] = []
    append = rules.append
    pos = 0
    while True:
        m = _STATEMENT_RE.match(text, pos, pos + _MAX_STATEMENT)
        if m is not None:
            source, name, first, second, more, body = m.groups()
            if second is None:
                args = () if first is None else (intern(first),)
            elif more is None:
                args = (intern(first), intern(second))
            else:
                args = (intern(first), intern(second), *map(intern, findall(more)))
            head = new(Atom, (name, args))
            if body is None:  # a fact
                rule = new(Rule, (head, (), (), ()))
                rule.source_text = source
                # FiledFacts.file for a fact, inlined: the call adds
                # 2-18 % to parse_program on a knowledge base.
                if variables and not variables.isdisjoint(args):
                    others.append(len(rules))
                else:
                    heads[source] = head
                    file_head(head, (len(rules), rule))
            else:
                rule = _rule_of(source, head, body, intern)
                filed.file(len(rules), rule)
            append(rule)
            pos = m.end()
            continue
        if _END_RE.match(text, pos):
            P = Program(tuple(rules))
            # Each term interned here is in a rule: every statement read
            # ended in rules holding each term read from it, since one
            # that raises ParseError leaves no program.
            P.__dict__["_terms"] = frozenset(terms.values())
            P.__dict__["filed_facts"] = filed
            return P
        start = len(rules)
        pos = plain.statement(pos, rules)
        for i in range(start, len(rules)):
            filed.file(i, rules[i])


class _Parser:
    """Recursive descent over the tokens of one text. Symbols are
    recognised by their value alone, which no other kind of token can
    have. Terms are interned per text."""

    def __init__(self, text: str, terms: Optional[_Terms] = None):
        self.text = text
        self.terms = _Terms() if terms is None else terms
        self.expanded = 0  # facts from the interval facts read so far
        self.tokens: list[Token] = []
        self.i = 0

    def read(self, pos: int = 0, one_statement: bool = False) -> None:
        self.tokens = _tokenize(self.text, pos, one_statement)
        self.i = 0

    def error(self, message: str, tok: Token) -> ParseError:
        return _error(message, self.text, tok[2])

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t[0] == "END":
            raise self.error("unexpected end of input", t)
        self.i += 1
        return t

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise self.error(
                "expected %s, found %r" % (value or kind.lower(), t[1]), t
            )
        return t

    def number(self, t: Token) -> int:
        try:
            return int(t[1])
        except ValueError:  # more digits than int() converts
            raise self.error("number too large", t) from None

    def parse_term(self, allow_interval: bool):
        t = self.next()
        if t[0] not in _TERM_KINDS:
            raise self.error("expected a term, found %r" % (t[1],), t)
        if allow_interval and t[0] == "NUMBER" and self.tokens[self.i][0] == "DOTS":
            self.i += 1
            lo, hi = self.number(t), self.number(self.expect("NUMBER"))
            if hi < lo:
                raise self.error("empty interval", t)
            return (lo, hi)
        return self.terms[t[1]]

    def parse_atom(self, allow_interval: bool = False) -> tuple[str, tuple]:
        tokens = self.tokens
        pred = self.expect("IDENT")[1]
        if tokens[self.i][1] != "(":
            return pred, ()
        self.i += 1
        args = [self.parse_term(allow_interval)]
        while tokens[self.i][1] == ",":
            self.i += 1
            args.append(self.parse_term(allow_interval))
        self.expect("SYM", ")")
        return pred, tuple(args)

    def parse_card(self) -> CardinalityExpression:
        lower = 0
        t = self.tokens[self.i]
        if t[0] == "NUMBER":
            self.i += 1
            lower = self.number(t)
            if lower < 0:
                raise self.error("negative bound", t)
        self.expect("SYM", "{")
        members: list[Atom] = []
        if self.tokens[self.i][1] != "}":
            members.append(Atom(*self.parse_atom()))
            while self.tokens[self.i][1] == ";":
                self.i += 1
                members.append(Atom(*self.parse_atom()))
        self.expect("SYM", "}")
        upper: Optional[int] = None
        t = self.tokens[self.i]
        if t[0] == "NUMBER":
            self.i += 1
            upper = self.number(t)
            if upper < 0:
                raise self.error("negative bound", t)
            if upper < lower:
                raise self.error("lower bound exceeds upper bound", t)
        return CardinalityExpression(lower, upper, tuple(members))

    def expand_intervals(self, predicate: str, args: tuple) -> Iterator[Atom]:
        fixed = [
            [self.terms[str(v)] for v in range(a[0], a[1] + 1)]
            if isinstance(a, tuple) else [a]
            for a in args
        ]
        for combo in itertools.product(*fixed):
            yield Atom(predicate, combo)

    def parse_rules(self) -> Iterator[Rule]:
        tokens = self.tokens
        while tokens[self.i][0] != "END":
            start = tokens[self.i]
            head_raw = None
            if start[1] != ":-":
                head_raw = self.parse_atom(allow_interval=True)
            body_pos: list[Atom] = []
            body_neg: list[Atom] = []
            body_card: list[CardinalityExpression] = []
            if tokens[self.i][1] == ":-":
                self.i += 1
                while True:
                    t = tokens[self.i]
                    if t[0] == "END":
                        raise self.error("unexpected end of input", start)
                    if t[1] == "not":
                        self.i += 1
                        body_neg.append(Atom(*self.parse_atom()))
                    elif t[0] == "NUMBER" or t[1] == "{":
                        body_card.append(self.parse_card())
                    else:
                        body_pos.append(Atom(*self.parse_atom()))
                    if tokens[self.i][1] != ",":
                        break
                    self.i += 1
            end = self.expect("SYM", ".")
            source = self.text[start[2]:end[2]].strip()
            if head_raw is None:
                head = None
            elif tuple in map(type, head_raw[1]):  # an interval
                if body_pos or body_neg or body_card:
                    raise self.error("intervals are only allowed in facts", start)
                spans = (a[1] - a[0] + 1 for a in head_raw[1] if isinstance(a, tuple))
                n = math.prod(spans)
                if n > MAX_INTERVAL_FACTS:
                    msg = "cap exceeded: more than %d facts from one interval fact"
                    raise self.error(msg % MAX_INTERVAL_FACTS, start)
                self.expanded += n
                if self.expanded > MAX_INTERVAL_FACTS:
                    msg = "cap exceeded: more than %d facts from the interval facts of one program"
                    raise self.error(msg % MAX_INTERVAL_FACTS, start)
                for atom in self.expand_intervals(*head_raw):
                    yield Rule(atom, source_text=atom.text)
                continue
            else:
                head = Atom(*head_raw)
            yield Rule(
                head, tuple(body_pos), tuple(body_neg), tuple(body_card), source
            )

    def statement(self, pos: int, rules: list[Rule]) -> int:
        """Read the statement at ``pos`` into ``rules``; return the offset
        just past its period. A statement refused for its grammar, not
        for a character, raises the first lexical error of the rest of
        the text instead, if there is one, as reading the whole text
        would: the rest is scanned, and no token of it kept."""
        self.read(pos, one_statement=True)
        end = self.tokens[-1][2]
        try:
            rules.extend(self.parse_rules())
        except ParseError:
            for m in _TOKEN_RE.finditer(self.text, end):
                if m.lastgroup == "BAD":
                    raise _unexpected(m, self.text) from None
            raise
        return end

    def single_atom(self) -> Atom:
        self.read()
        atom = Atom(*self.parse_atom())
        t = self.tokens[self.i]
        if t[0] != "END":
            raise self.error("trailing input after atom", t)
        return atom

    def answer_set(self) -> AnswerSet:
        self.text = _blank_headers(self.text)
        self.read()
        tokens = self.tokens
        atoms: list[Atom] = []
        while tokens[self.i][0] != "END":
            start = tokens[self.i]
            atom = Atom(*self.parse_atom())
            if not atom.is_ground:
                raise self.error("non-ground atom in answer set: %s" % atom.text, start)
            atoms.append(atom)
        return AnswerSet._of_ground(atoms)


_HEADER_RE = re.compile(r"\s*Answer:\s*\d+\s*$")


def _blank_headers(text: str) -> str:
    """``text`` with each ``Answer: N`` header line blanked and its lines
    joined by ``\\n``, counted as :meth:`str.splitlines` counts them."""
    return "\n".join("" if _HEADER_RE.match(ln) else ln for ln in text.splitlines())


def parse_program(text: str) -> Program:
    """Parse rule text into a :class:`Program`, keeping each rule's
    verbatim source (without the trailing period) for display. The text
    is read once, by :func:`_read_program`; on a refused program the
    :class:`ParseError` and its position are those the token grammar
    gives on the whole text."""
    return _read_program(text)


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a query argument."""
    return _Parser(text).single_atom()


def _read_by_facts(text: str, heads: dict[str, Atom]) -> Optional[AnswerSet]:
    """The atoms of ``text`` if each whitespace-separated token is a key
    of ``heads`` or a run of ground atoms; None otherwise. The tokens
    that are not keys are joined by line breaks and read by one
    ``split`` around atoms, and each break must fall between two atoms,
    so no atom reaches across tokens. A text with ``%`` is left to the
    token grammar: a fact's source text may end in a comment, which the
    same token would start in an answer set. A text that fails and holds
    ``Answer:`` is read once more with its header lines blanked, as the
    token grammar reads it."""
    if "%" in text:
        return None
    atoms = _split_by_facts(text, heads)
    if atoms is None and "Answer:" in text:
        atoms = _split_by_facts(_blank_headers(text), heads)
    return atoms


def _split_by_facts(text: str, heads: dict[str, Atom]) -> Optional[AnswerSet]:
    tokens = text.split()
    misses = list(itertools.filterfalse(heads.__contains__, tokens))
    # [text before the first atom, name, arguments, text before the next
    # atom, ...].
    parts = _GROUND_ATOM_RE.split("\n".join(misses))
    if "".join(parts[::3]) != "\n" * (len(misses) - 1):
        return None
    found = filter(None, map(heads.get, tokens))
    intern = itertools.repeat(_Terms().__getitem__)
    atoms = map(_atom_of, parts[1::3], parts[2::3], intern)
    return AnswerSet._of_ground(itertools.chain(found, atoms))


def parse_answer_set(text: str, program: Optional[Program] = None) -> AnswerSet:
    """Whitespace-separated ground atoms. An ``Answer: N`` header line is
    skipped; error positions still count it, and count lines as
    :meth:`str.splitlines` does.

    With ``program``, an atom spelled as the source text of one of its
    ground facts is that fact's head, read once by the parser of the
    program; the result and every error are the same as without it.
    Without it, the map of those facts is empty. The text is read by
    :func:`_read_by_facts` or else by the token grammar."""
    heads = {} if program is None else program.filed_facts.heads
    atoms = _read_by_facts(text, heads)
    return _Parser(text).answer_set() if atoms is None else atoms


@dataclass(frozen=True)
class LookupTable:
    """Natural-language templates per predicate name and arity, with
    ``$1..$n`` standing for the argument positions."""

    templates: dict[tuple[str, int], str] = field(default_factory=dict)

    def get(self, predicate: str, arity: int) -> Optional[str]:
        return self.templates.get((predicate, arity))


_LOOKUP_LINE_RE = re.compile(
    r"^\s*(?P<pred>[a-z_][A-Za-z0-9_]*)\s*/\s*(?P<arity>\d+)\s*:\s*(?P<tpl>.*\S)\s*$"
)


def parse_lookup(text: str) -> LookupTable:
    """One mapping per line: ``predicate/arity: template``. Blank lines
    and ``%`` comments are skipped; a repeated key overrides the earlier
    one with a warning."""
    templates: dict[tuple[str, int], str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        m = _LOOKUP_LINE_RE.match(line)
        if m is None:
            raise ParseError("malformed look-up entry", lineno, 1)
        pred = m.group("pred")
        arity = int(m.group("arity"))
        tpl = m.group("tpl")
        for ph in re.findall(r"\$(\d+)", tpl):
            if not 1 <= int(ph) <= arity:
                raise ParseError(
                    "placeholder $%s out of range for %s/%d"
                    % (ph, pred, arity),
                    lineno, 1,
                )
        if (pred, arity) in templates:
            warnings.warn(
                "duplicate look-up entry for %s/%d; the later one wins"
                % (pred, arity)
            )
        templates[(pred, arity)] = tpl
    return LookupTable(templates)

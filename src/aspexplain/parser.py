"""Parsing of programs, answer sets and predicate look-up tables.

The program grammar is deliberately small: rules of the form
``head :- body.`` where body elements are atoms, ``not`` atoms, or
cardinality expressions ``l {a; b} u`` with optional bounds. ``%``
starts a line comment. Integer intervals ``1..n`` are accepted in facts
only and desugared into one fact per value, at most
:data:`MAX_INTERVAL_FACTS` per fact and per program.

There are two readers. One regular-expression match reads a whole
statement: an optional head atom, then ``:-`` and a body of atoms,
``not`` atoms and cardinality expressions with plain bounds, then the
period, after any whitespace and whole-line comments. One ``split``
around the atoms reads an answer set of ground atoms separated by
whitespace, and one full match reads a query atom. Everything else goes
to the token grammar, a recursive descent over tokens: a statement with
an interval or a comment inside, or of more than 10,000 characters,
that statement alone; an answer set with an ``Answer: N`` line, a
variable or a comment, or an atom the match cannot read, whole. If
either reader raises :class:`ParseError`, the token grammar reads the
whole text again and raises the error, so every message, line and
column is that grammar's.

A fact the match reads is built inline as its atom and its rule, two
tuples. Terms are interned once per text, and the program is given the
interned terms as its :attr:`Program._terms`: every term interned is in
a rule, as a statement that is not read into rules makes the whole text
be read again, so the program's variables and constants take no pass
over its atoms.

An answer set read with its program is first looked up against the
program's facts: :attr:`Program.fact_heads` maps the source text of
each ground fact to its head. The text is split at whitespace; a piece
found there is that head, and the other pieces, joined by line breaks,
go to one ``split`` around atoms, in which no atom may hold a line
break. A text with ``%``, or with a piece that is not such atoms, is
read as above.
"""
from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, TypeVar

from .model import (
    AnswerSet,
    Atom,
    CardinalityExpression,
    Program,
    Rule,
    Term,
)

_T = TypeVar("_T")

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
            raise _error("unexpected character %r" % m.group(), text, m.start())
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
    """A body literal; only a "not" literal starts with the token "not".
    With ``g=""`` its groups are the "not", the atom's two, the lower
    bound, the members and the upper bound."""
    return (
        r"({g}not\s+|(?!not(?![A-Za-z0-9_]))){a}"
        r"|(?:({g}\d+)\s*)?\{{\s*({g}(?:{m}\s*)?)\}}(?:\s*({g}\d+))?"
    ).format(g=g, a=_atom(_TERM, g), m=_list(_atom(_TERM), ";"))


# Groups: source text, head name, head arguments, body. A statement
# without a head starts with ":-" and has a body. A match keeps a
# backtracking record of several hundred bytes per item of each list it
# reads, so it is given at most _MAX_STATEMENT characters; a longer
# statement, with the whitespace and comments before it, is read by the
# token grammar.
_STATEMENT_RE = re.compile(r"{s}((?:{h}|(?=:-))(?:\s*:-\s*({b}))?)\s*\.".format(
    s=_SKIP, h=_atom(_TERM, ""), b=_list(_literal(), ",")
))
_MAX_STATEMENT = 10_000
_END_RE = re.compile(_SKIP + r"\Z")
_LITERAL_RE = re.compile(_literal(""))
_ATOM_RE = re.compile(_atom(_TERM, ""))
_GROUND_ATOM_RE = re.compile(_atom(_GROUND_TERM, ""))


_TERM_KINDS = frozenset(("IDENT", "STRING", "VAR", "NUMBER"))


class _Terms(dict):
    """Interned terms by name: each name gets one :class:`Term`."""

    def __missing__(self, name: str) -> Term:
        t = self[name] = Term(name)
        return t


def _atom_of(name: str, args: Optional[str], intern: Callable[[str], Term]) -> Atom:
    """The atom of the two groups of :func:`_atom`, built as the tuple it
    is, without the call of ``Atom.__new__``."""
    terms = tuple(map(intern, _TERM_RE.findall(args))) if args else ()
    return tuple.__new__(Atom, (name, terms))


def _rule_of(source: str, name: Optional[str], args: Optional[str],
             body: str, intern: Callable[[str], Term]) -> Rule:
    """The rule of the groups of one :data:`_STATEMENT_RE` match with a
    body. Raises ValueError on a cardinality bound that int() cannot
    convert or on bounds out of order."""
    head = None if name is None else _atom_of(name, args, intern)
    body_pos: list[Atom] = []
    body_neg: list[Atom] = []
    body_card: list[CardinalityExpression] = []
    for neg, name, args, lower, members, upper in _LITERAL_RE.findall(body):
        if name:
            (body_neg if neg else body_pos).append(_atom_of(name, args, intern))
        else:
            body_card.append(CardinalityExpression(
                int(lower or 0), int(upper) if upper else None,
                tuple(_atom_of(n, a, intern) for n, a in _ATOM_RE.findall(members)),
            ))
    return Rule(head, tuple(body_pos), tuple(body_neg), tuple(body_card), source)


def _read_program(text: str) -> Program:
    """Read ``text`` a statement per match of :data:`_STATEMENT_RE`,
    sending each statement it cannot read to the token grammar. A fact
    is built here as the two tuples it is; other statements by
    :func:`_rule_of`."""
    terms = _Terms()
    intern = terms.__getitem__
    findall = _TERM_RE.findall
    new = tuple.__new__
    plain = _Parser(text, terms)
    rules: list[Rule] = []
    append = rules.append
    pos = 0
    while True:
        m = _STATEMENT_RE.match(text, pos, pos + _MAX_STATEMENT)
        if m is not None:
            source, name, args, body = groups = m.groups()
            if body is None:  # a fact: a statement without a body has a head
                rule = new(Rule, (
                    new(Atom, (name, tuple(map(intern, findall(args))) if args else ())),
                    (), (), (),
                ))
                rule.source_text = source
                append(rule)
                pos = m.end()
                continue
            try:
                append(_rule_of(*groups, intern))
                pos = m.end()
                continue
            except ValueError:  # a bound int() cannot convert, or bounds out of order
                pass
        elif _END_RE.match(text, pos):
            P = Program(tuple(rules))
            # Each term interned here is in a rule: every statement read
            # ended in rules holding each term read from it, since one
            # that raises ParseError has the whole text read again.
            P.__dict__["_terms"] = frozenset(terms.values())
            return P
        pos = plain.statement(pos, rules)


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
        just past its period."""
        self.read(pos, one_statement=True)
        rules.extend(self.parse_rules())
        return self.tokens[-1][2]

    def program(self) -> Program:
        self.read()
        return Program(tuple(self.parse_rules()))

    def single_atom(self) -> Atom:
        self.read()
        atom = Atom(*self.parse_atom())
        t = self.tokens[self.i]
        if t[0] != "END":
            raise self.error("trailing input after atom", t)
        return atom

    def answer_set(self) -> AnswerSet:
        # An "Answer: N" header line is blanked, and lines are counted as
        # str.splitlines counts them.
        self.text = "\n".join(
            "" if _HEADER_RE.match(ln) else ln for ln in self.text.splitlines()
        )
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


def _parse(text: str, fast: Callable[[str], Optional[_T]],
           plain: Callable[[_Parser], _T]) -> _T:
    """``fast`` reads the text by regular expressions. If it returns None
    or raises :class:`ParseError`, the token grammar reads the whole text
    with ``plain``, which raises the error; so every message and position
    is that grammar's."""
    try:
        result = fast(text)
    except ParseError:
        result = None
    return plain(_Parser(text)) if result is None else result


def parse_program(text: str) -> Program:
    """Parse rule text into a :class:`Program`, keeping each rule's
    verbatim source (without the trailing period) for display."""
    return _parse(text, _read_program, _Parser.program)


def _read_atom(text: str) -> Optional[Atom]:
    m = _ATOM_RE.fullmatch(text.strip())
    return None if m is None else _atom_of(*m.groups(), _Terms().__getitem__)


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a query argument."""
    return _parse(text, _read_atom, _Parser.single_atom)


def _split_atoms(text: str) -> tuple[str, Iterator[Atom]]:
    """The text between the ground atoms of ``text``, joined, and the
    atoms."""
    # [text before the first atom, name, arguments, text before the next
    # atom, ...].
    parts = _GROUND_ATOM_RE.split(text)
    intern = itertools.repeat(_Terms().__getitem__)
    return "".join(parts[::3]), map(_atom_of, parts[1::3], parts[2::3], intern)


def _read_answer_set(text: str) -> Optional[AnswerSet]:
    between, atoms = _split_atoms(text)
    return None if between.strip() else AnswerSet._of_ground(atoms)


def _read_by_facts(text: str, heads: dict[str, Atom]) -> Optional[AnswerSet]:
    """The atoms of ``text`` if each whitespace-separated token is a key
    of ``heads`` or a run of ground atoms; None otherwise. The tokens
    that are not keys are read joined by line breaks, and each break
    must fall between two atoms, so no atom reaches across tokens. A
    text with ``%`` is left to the other readers: a fact's source text
    may end in a comment, which the same token would start in an answer
    set."""
    if "%" in text:
        return None
    tokens = text.split()
    misses = list(itertools.filterfalse(heads.__contains__, tokens))
    between, atoms = _split_atoms("\n".join(misses))
    if between != "\n" * (len(misses) - 1):
        return None
    found = filter(None, map(heads.get, tokens))
    return AnswerSet._of_ground(itertools.chain(found, atoms))


def parse_answer_set(text: str, program: Optional[Program] = None) -> AnswerSet:
    """Whitespace-separated ground atoms. An ``Answer: N`` header line is
    skipped; error positions still count it, and count lines as
    :meth:`str.splitlines` does.

    With ``program``, an atom spelled as the source text of one of its
    ground facts is that fact's head, read once by the parser of the
    program; the result and every error are the same as without it."""
    if program is not None:
        X = _read_by_facts(text, program.fact_heads)
        if X is not None:
            return X
    return _parse(text, _read_answer_set, _Parser.answer_set)


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

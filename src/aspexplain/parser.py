"""Parsing of programs, answer sets and predicate look-up tables.

The program grammar is deliberately small: rules of the form
``head :- body.`` where body elements are atoms, ``not`` atoms, or
cardinality expressions ``l {a; b} u`` with optional bounds. ``%``
starts a line comment. Integer intervals ``1..n`` are accepted in facts
only and desugared into one fact per value, at most
:data:`MAX_INTERVAL_FACTS` per fact and per program.

A text is read with atom tokens first: one regular-expression match
reads a simple atom ``name(term, ..., term)`` whole, and everything else
is read token by token. If that parse raises :class:`ParseError`, the
text is parsed again token by token only, which raises the error; so
every message, line and column is that of the token-level grammar.
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


_TOKENS = r"""
      (?P<SKIP>\s+|%%[^\n]*)
    | (?P<STRING>"[^"\n]*")
    | (?P<DOTS>\.\.)
    | (?P<NUMBER>-?\d+)
    | (?P<IMPL>:-)
    | (?P<IDENT>[a-z_][A-Za-z0-9_]*)%s
    | (?P<VAR>[A-Z][A-Za-z0-9_]*)
    | (?P<SYM>[(){},;.])
    | (?P<BAD>.)
"""
_TOKEN_RE = re.compile(_TOKENS % "", re.VERBOSE | re.DOTALL)

# One STRING, NUMBER, IDENT or VAR token.
_TERM = r'"[^"\n]*"|-?\d+|[A-Za-z_][A-Za-z0-9_]*'
_TERM_RE = re.compile(_TERM)

# _TOKEN_RE with an optional argument list after IDENT, and with the
# whitespace after each token folded into it. ``name(term, ..., term)``
# with only whitespace between its tokens is one ATOM token, whose terms
# are the very tokens the plain tokenizer reads: each is followed by
# whitespace, "," or ")". A predicate ending in "not" takes no arguments
# here, so ``not(a)`` is read token by token. Zero-arity atoms,
# intervals, comments inside an atom and malformed atoms stay plain.
_ARGS = r"""
      (?: (?<!not) \s*\(\s* (?P<ARGS>(?:%s)(?:\s*,\s*(?:%s))*) \s* (?P<ATOM>\)) )?
""" % (_TERM, _TERM)
_ATOM_TOKEN_RE = re.compile(r"(?:%s)\s*" % (_TOKENS % _ARGS), re.VERBOSE | re.DOTALL)


# (kind, value, offset). A token list ends with an END token whose offset
# is just past the last token, where "unexpected end of input" points. An
# ATOM token's value is its (predicate, args) with the terms interned.
Token = tuple[str, object, int]


def _tokenize(text: str, token_re: re.Pattern, terms: _Terms) -> list[Token]:
    out: list[Token] = []
    intern = terms.__getitem__
    last = None
    for m in token_re.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        last = m
        if kind == "ATOM":
            pred, args = m.group("IDENT", "ARGS")
            args = tuple(map(intern, _TERM_RE.findall(args)))
            out.append((kind, (pred, args), m.start()))
        elif kind == "BAD":
            raise _error("unexpected character %r" % m.group(kind), text, m.start())
        else:
            out.append((kind, m.group(kind), m.start()))
    out.append(("END", "", last.end(last.lastgroup) if last else 0))
    return out


_TERM_KINDS = frozenset(("IDENT", "STRING", "VAR", "NUMBER"))


class _Terms(dict):
    """Interned terms by name: each name gets one :class:`Term`."""

    def __missing__(self, name: str) -> Term:
        t = self[name] = Term(name)
        return t


class _Parser:
    """Recursive descent over the tokens of one text. Symbols are
    recognised by their value alone, which no other kind of token can
    have. Terms are interned per text."""

    def __init__(self, text: str, token_re: re.Pattern = _TOKEN_RE):
        self.text = text
        self.terms = _Terms()
        self.tokens = _tokenize(text, token_re, self.terms)
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
        t = tokens[self.i]
        if t[0] == "ATOM":
            self.i += 1
            return t[1]
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
        expanded = 0  # facts from interval facts so far
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
                expanded += n
                if expanded > MAX_INTERVAL_FACTS:
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

    def program(self) -> Program:
        return Program(tuple(self.parse_rules()))

    def single_atom(self) -> Atom:
        atom = Atom(*self.parse_atom())
        t = self.tokens[self.i]
        if t[0] != "END":
            raise self.error("trailing input after atom", t)
        return atom

    def answer_set(self) -> AnswerSet:
        tokens = self.tokens
        atoms: list[Atom] = []
        while tokens[self.i][0] != "END":
            start = tokens[self.i]
            atom = Atom(*self.parse_atom())
            if not atom.is_ground:
                raise self.error("non-ground atom in answer set: %s" % atom.text, start)
            atoms.append(atom)
        return AnswerSet.of(atoms)


def _parse(text: str, read: Callable[[_Parser], _T]) -> _T:
    """``read`` a parser over atom tokens. On a :class:`ParseError` the
    text is read again over plain tokens, which raises the error; so
    every message and position is the plain grammar's."""
    try:
        return read(_Parser(text, _ATOM_TOKEN_RE))
    except ParseError:
        return read(_Parser(text))


def parse_program(text: str) -> Program:
    """Parse rule text into a :class:`Program`, keeping each rule's
    verbatim source (without the trailing period) for display."""
    return _parse(text, _Parser.program)


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a query argument."""
    return _parse(text, _Parser.single_atom)


_HEADER_RE = re.compile(r"\s*Answer:\s*\d+\s*$")


def parse_answer_set(text: str) -> AnswerSet:
    """Whitespace-separated ground atoms. An ``Answer: N`` header line is
    skipped; error positions still count it, and count lines as
    :meth:`str.splitlines` does."""
    return _parse(
        "\n".join("" if _HEADER_RE.match(ln) else ln for ln in text.splitlines()),
        _Parser.answer_set,
    )


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

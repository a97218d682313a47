"""Parsing of programs, answer sets and predicate look-up tables.

The program grammar is deliberately small: rules of the form
``head :- body.`` where body elements are atoms, ``not`` atoms, or
cardinality expressions ``l {a; b} u`` with optional bounds. ``%``
starts a line comment. Integer intervals ``1..n`` are accepted in facts
only and desugared into one fact per value, at most
:data:`MAX_INTERVAL_FACTS` per fact and per program.

There are three readers. One ``split`` reads every fact line of a
program of 2,048 characters or more: a line that holds one ground fact
of at most :data:`_MAX_LINE_ARGS` arguments and, after its period, only
whitespace and a comment, in at most 10,000 characters; it builds those
facts column by column, with no Python step per fact. The text between
fact lines, and a shorter program whole, goes to one regular-expression
match per statement, which reads a
fact or a rule of atoms: a head atom, then optionally ``:-`` and a body
of atoms and ``not`` atoms, then the period, after any whitespace and
whole-line comments. A statement that runs on into the next fact line
takes that line with it. One ``split`` around the atoms reads an answer
set (below). Everything else goes to the token grammar, a recursive
descent over tokens: a query atom; a constraint, a statement with a
cardinality body, an interval or a comment inside, or of more than
10,000 characters, that statement alone; an answer set with an
``Answer: N`` line, a variable or a comment, or an atom the split
cannot read, whole. Every message, line and column of a refused program
is the one the token grammar gives on the whole text: a statement it
refuses raises the first lexical error of the rest of the text, if
there is one, and its own error otherwise.

Terms are interned once per text, and the program is given the
interned terms as its :attr:`Program._terms`: every term interned is in
a rule, as a :class:`ParseError` leaves no program, so the program's
variables and constants take no pass over its atoms.

Each statement, whichever reader read it, is filed once, in program
order, in the program's :attr:`Program.filed_facts`: a ground fact as
its head and source text in two columns, for the answer-set reader and
the grounder, which then take the facts as they are instead of walking
every rule again; every other rule, a fact whose head holds a variable
among them, with its position. No rule is built for a fact:
``Program.rules`` is built from the columns the first time it is read.

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
import operator
import re
import warnings
from collections import deque
from itertools import chain, compress, count, repeat
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


# Groups: source text, head name, head argument text, body. The period
# must be followed by a character other than a period, which the token
# grammar would read with it as "..": at the end of the text, or of the
# characters a match is given, the statement goes to the token grammar.
# A match keeps a backtracking record of several hundred bytes per item
# of each list it reads, so it is given at most _MAX_STATEMENT
# characters; a longer statement, with the whitespace and comments
# before it, is read by the token grammar.
_STATEMENT_RE = re.compile(r"{s}({h}(?:\s*:-\s*({b}))?)\s*\.(?=[^.])".format(
    s=_SKIP, h=_atom(_TERM, ""), b=_list(_literal(), ",")
))
_MAX_STATEMENT = 10_000
_END_RE = re.compile(_SKIP + r"\Z")
# The line reader: a line that holds one ground fact of at most
# _MAX_LINE_ARGS arguments, and after its period only whitespace and a
# comment, in at most _MAX_STATEMENT characters. A match starts at the
# line break before the line, which a search finds by one scan for the
# character, so a line is never read from inside it; the first line of a
# text goes to the statement match. It holds no unbounded list, and no
# word character may follow the predicate name, so a failed line costs
# time linear in its length. Groups: the whitespace before the fact, its
# source text, its predicate name, each argument (None past the last),
# and the rest of the line.
_MAX_LINE_ARGS = 10
_LINE_WS = r"[^\S\n]*"
_LINE_ARG = r'{w}("[^"\n]*"|-?\d+|[a-z_][A-Za-z0-9_]*)'.format(w=_LINE_WS)
_FACT_LINE_RE = re.compile(
    r"\n(?![^\n]{{{n}}})({w})(([a-z_][A-Za-z0-9_]*)(?![A-Za-z0-9_])"
    r"(?:{w}\({a}{more}{w}\))?)({w}\.{w}(?:%[^\n]*)?)$".format(
        n=_MAX_STATEMENT + 1, w=_LINE_WS, a=_LINE_ARG,
        more="(?:{w},{a}".format(w=_LINE_WS, a=_LINE_ARG) * (_MAX_LINE_ARGS - 1)
        + ")?" * (_MAX_LINE_ARGS - 1),
    ),
    re.M,
)
# A split of a text holds, per fact line, the text before it and each
# group. The text is split in slices of whole lines of about _SLICE
# characters, so the split holds one slice of group strings at a time.
# A slice shorter than _MIN_SPLIT characters, a program of a few dozen
# lines, is read by the statement match alone: there the split costs
# more than the facts it reads save.
_PER_LINE = _FACT_LINE_RE.groups + 1
_SLICE = 1 << 20
_MIN_SPLIT = 2048
_LITERAL_RE = re.compile(_literal(""))
_GROUND_ATOM_RE = re.compile(_atom(_GROUND_TERM, ""))


_TERM_KINDS = frozenset(("IDENT", "STRING", "VAR", "NUMBER"))


class _Terms(dict):
    """Interned terms by name: each name gets one :class:`Term`, and
    each variable among them is also in ``variables``. None, the
    argument a fact line has not, is None."""

    def __init__(self) -> None:
        super().__init__({None: None})
        self.variables: set[Term] = set()

    def __missing__(self, name: str) -> Term:
        # Term(name), built without its check: no token is empty.
        t = self[name] = str.__new__(Term, name)
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
    """Read ``text`` a slice of whole lines at a time, by
    :func:`_read_lines`, and give the program the interned terms and the
    filed facts; its rules are built from them when first read."""
    plain = _Parser(text)
    filed = FiledFacts()
    predicates: dict[str, str] = {}
    pos = start = 0
    while start < len(text):
        stop = text.find("\n", start + _SLICE) + 1 or len(text)
        pos = _read_lines(plain, start, stop, pos, filed, predicates)
        start = stop
    P = object.__new__(Program)
    # Each term interned here is in a rule: every statement read ended in
    # rules holding each term read from it, since one that raises
    # ParseError leaves no program, and a fact line a statement takes is
    # an atom of that statement.
    P.__dict__.update(_terms=frozenset(filter(None, plain.terms.values())), filed_facts=filed)
    filed.heads  # built now: the answer-set reader takes it next
    return P


def _read_lines(plain: "_Parser", start: int, stop: int, pos: int,
                filed: FiledFacts, predicates: dict[str, str]) -> int:
    """Read the lines from ``start`` to ``stop`` of the text, whose
    statements are read up to ``pos``, and return how far its statements
    are read now. Every fact line is read by one ``split`` of
    :data:`_FACT_LINE_RE`, and its fact built column by column and filed
    as columns, with each predicate name held once in ``predicates``.
    The text between fact lines is read by :func:`_match_statements`,
    and on the whole text, where it cannot, by the token grammar. A
    statement that runs on into the next fact line takes that line with
    it, as the line is then no statement of its own."""
    lines = plain.text[start:stop]
    parts = _FACT_LINE_RE.split(lines) if len(lines) >= _MIN_SPLIT else [lines]
    n = _PER_LINE
    gaps, leads, sources, names = parts[::n], parts[1::n], parts[2::n], parts[3::n]
    tails = parts[n - 1::n]
    columns = []  # one per argument position a fact fills
    while len(columns) < _MAX_LINE_ARGS and any(parts[4 + len(columns)::n]):
        columns.append(parts[4 + len(columns)::n])
    # A row of terms per fact; None, a position a fact does not fill, is
    # interned as None and taken out of the rows that hold it.
    intern = plain.terms.__getitem__
    args = list(zip(*map(map, repeat(intern), columns))) if columns else [()] * len(names)
    if columns and None in columns[-1]:
        short = list(compress(count(), map(operator.is_, columns[-1], repeat(None))))
        rows = map(tuple, map(filter, repeat(None), map(args.__getitem__, short)))
        deque(map(args.__setitem__, short, rows), 0)
    atoms = list(map(tuple.__new__, repeat(Atom),
                     zip(map(predicates.setdefault, names, names), args)))
    done = at = 0  # fact lines filed; a gap whose offset is ``offset``
    offset = start
    for j in chain((0,), compress(count(1), map(str.strip, gaps[1:]))):
        filed.add_facts(atoms[done:j], sources[done:j])
        done = j
        # The gap and the line break after it, which the split matched
        # with fact line j. The first gap may go on with a statement of
        # the slice before.
        gap = gaps[j] + "\n"
        read = 0 if j == 0 and pos > start else _match_statements(gap, 0, len(gap), filed, intern)
        if read < len(gap):  # the token grammar reads on, in the whole text
            pieces = chain(gaps[at:j], leads[at:j], sources[at:j], tails[at:j])
            offset += j - at + sum(map(len, pieces))  # a line break per fact line
            at = j
            end = offset + len(gaps[j])  # where fact line j starts
            pos = max(pos, offset + read)
            while pos < end:
                pos = _match_statements(plain.text, pos, end, filed, intern)
                if pos < end:
                    pos = plain.statement(pos, filed)
            if pos > end:
                done = j + 1
    filed.add_facts(atoms[done:], sources[done:])
    return pos


def _match_statements(text: str, pos: int, end: int, filed: FiledFacts,
                      intern: Callable[[str], Term]) -> int:
    """File the statements from ``pos`` that :data:`_STATEMENT_RE` reads,
    one match each, until only whitespace and comments are left before
    ``end`` or a statement it cannot read; return ``end``, or where that
    statement starts, or how far the last match read if it ran on past
    ``end``."""
    file = filed.file
    while pos < end:
        m = _STATEMENT_RE.match(text, pos, pos + _MAX_STATEMENT)
        if m is None:
            return end if _END_RE.match(text, pos, end) else pos
        source, name, args, body = m.groups()
        # _atom_of, inlined: the call adds about a tenth to a statement.
        args = tuple(map(intern, _TERM_RE.findall(args))) if args else ()
        head = tuple.__new__(Atom, (name, args))
        if body is None:
            file(Rule(head, source_text=source))
        else:
            file(_rule_of(source, head, body, intern))
        pos = m.end()
    return pos


class _Parser:
    """Recursive descent over the tokens of one text. Symbols are
    recognised by their value alone, which no other kind of token can
    have. Terms are interned per text."""

    def __init__(self, text: str):
        self.text = text
        self.terms = _Terms()
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

    def statement(self, pos: int, filed: FiledFacts) -> int:
        """File the rules of the statement at ``pos``; return the offset
        just past its period. A statement refused for its grammar, not
        for a character, raises the first lexical error of the rest of
        the text instead, if there is one, as reading the whole text
        would: the rest is scanned, and no token of it kept."""
        self.read(pos, one_statement=True)
        end = self.tokens[-1][2]
        try:
            for r in self.parse_rules():
                filed.file(r)
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
    same token would start in an answer set. A text that holds
    ``Answer:`` is read with its header lines blanked, as the token
    grammar reads it; a header line never reads as atoms."""
    if "%" in text:
        return None
    if "Answer:" in text:
        text = _blank_headers(text)
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


class LookupTable:
    """Natural-language templates per predicate name and arity, with
    ``$1..$n`` standing for the argument positions; tables compare by
    their templates. A plain class: building a dataclass costs every
    command about 0.7 ms at import."""

    def __init__(self, templates: Optional[dict[tuple[str, int], str]] = None) -> None:
        self.templates = {} if templates is None else templates

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.templates == other.templates

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

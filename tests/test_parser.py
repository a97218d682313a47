import random
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from aspexplain import parser
from aspexplain.engine import shortest_explanation
from aspexplain.ground import GroundingError, GroundingIndex, instantiate_for_head
from aspexplain.model import AnswerSet, Atom, Program, Rule, Term
from aspexplain.parser import (
    LookupTable,
    ParseError,
    parse_answer_set,
    parse_atom,
    parse_lookup,
    parse_program,
)

from conftest import (
    chain_text, fixture_text, knowledge_base_text, random_program, render_program,
)


class TestParseProgram:
    def test_five_rule_program(self):
        P = parse_program("a :- b, c.  a :- d.  d.  b :- c.  c.")
        assert len(P) == 5
        assert P.rules[0] == Rule(Atom("a"), (Atom("b"), Atom("c")))
        assert P.rules[2] == Rule(Atom("d"))

    def test_single_fact(self):
        P = parse_program("p.")
        assert P.rules == (Rule(Atom("p"), source_text="p"),)

    def test_cardinality_rule(self):
        P = parse_program("a :- d, 1 {b; c} 2.")
        (r,) = P.rules
        card = r.body_card[0]
        assert card.lower == 1 and card.upper == 2
        assert card.atoms == (Atom("b"), Atom("c"))

    def test_cardinality_without_bounds(self):
        P = parse_program("a :- {b; c}.")
        card = P.rules[0].body_card[0]
        assert card.lower == 0 and card.upper is None

    def test_constraint(self):
        P = parse_program(":- a, not b.")
        (r,) = P.rules
        assert r.is_constraint
        assert r.body_pos == (Atom("a"),) and r.body_neg == (Atom("b"),)

    def test_source_text_preserved(self):
        P = parse_program("a :- b,    c.")
        assert P.rules[0].source_text == "a :- b,    c"

    def test_comments_skipped(self):
        P = parse_program("% comment\na. % trailing\nb.\n")
        assert len(P) == 2

    def test_comment_text_is_not_read(self):
        P = parse_program("% a. b :- c.\nd. % e.")
        assert [r.source_text for r in P.rules] == ["d"]

    def test_string_and_number_terms(self):
        P = parse_program('drug_gene("Epinephrine","ADRB1"). p(1,x).')
        assert P.rules[0].head.args[0] == Term('"Epinephrine"')
        assert P.rules[1].head.args == (Term("1"), Term("x"))

    def test_variables(self):
        P = parse_program("p(Xv) :- q(Xv).")
        assert not P.is_ground
        assert P.rules[0].head.args[0].is_variable

    def test_interval_fact_desugars(self):
        P = parse_program("index(1..3).")
        assert [r.head.text for r in P.rules] == [
            "index(1)", "index(2)", "index(3)",
        ]

    def test_interval_outside_fact_rejected(self):
        with pytest.raises(ParseError, match="only allowed in facts"):
            parse_program("p(1..3) :- q.")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_program("a.\nb :- ,.\n")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_program("p(a.")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("a :- b")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("a :- b & c.")


class TestParseAtom:
    def test_simple(self):
        assert parse_atom("p(a,1)") == Atom("p", (Term("a"), Term("1")))

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_atom("p q")


class TestParseAnswerSet:
    def test_plain_atoms(self):
        X = parse_answer_set("a b c d")
        assert X.atoms == {Atom(n) for n in "abcd"}

    def test_empty(self):
        assert len(parse_answer_set("")) == 0

    def test_header_skipped(self):
        X = parse_answer_set("Answer: 1\na b")
        assert len(X) == 2

    @pytest.mark.parametrize("text, line, col", [
        ("Answer: 1\np q(X)", 2, 3),
        ("a\n  Answer: 3  \nb\nc(", 4, 3),
        ("Answer: 1\r\nabcdefghijkl X", 2, 14),
    ])
    def test_error_lines_count_the_header(self, text, line, col):
        with pytest.raises(ParseError) as info:
            parse_answer_set(text)
        assert (info.value.line, info.value.col) == (line, col)

    def test_string_constants(self):
        X = parse_answer_set('drug_gene("Epinephrine","ADRB1")')
        (atom,) = X.atoms
        assert atom.predicate == "drug_gene" and atom.arity == 2

    def test_non_ground_rejected(self):
        with pytest.raises(ParseError, match="non-ground"):
            parse_answer_set("p(Xv)")


class TestParseLookup:
    def test_table_rows(self):
        t = parse_lookup(
            "gene_gene_biogrid/2: The gene $1 interacts with the gene $2 "
            "according to BioGRID.\n"
            "start_gene/1: The gene $1 is the start gene.\n"
        )
        assert t.get("gene_gene_biogrid", 2).startswith("The gene $1")
        assert t.get("start_gene", 1) == "The gene $1 is the start gene."
        assert t.get("missing", 1) is None

    def test_empty_file(self):
        assert parse_lookup("") == LookupTable()

    def test_placeholder_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_lookup("p/1: value $2 is wrong.\n")

    def test_duplicate_warns_last_wins(self):
        with pytest.warns(UserWarning, match="duplicate"):
            t = parse_lookup("p/1: first $1.\np/1: second $1.\n")
        assert t.get("p", 1) == "second $1."

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_lookup("just some text\n")


class TestRoundTrip:
    def test_fixture_round_trip(self):
        src = "a :- b, c.\na :- d.\nd.\nb :- c.\nc.\n"
        P = parse_program(src)
        assert parse_program(render_program(P)) == P

    def test_random_programs_round_trip(self):
        rng = random.Random(23)
        for _ in range(100):
            P = random_program(rng)
            assert parse_program(render_program(P)) == P

    def test_cardinality_round_trip(self):
        P = parse_program("a :- d, 1 {b; c} 2. a :- {b}. a :- 1 {b}.")
        assert parse_program(render_program(P)) == P


# Exact messages, lines and columns of malformed inputs. Columns count
# from 1; "end of input" points just past the last token.
ERROR_TABLE = [
    (parse_program, "a :- b & c.",
     "unexpected character '&' (line 1, column 8)"),
    (parse_program, "a :- b.\n\n\n   a :- c, $",
     "unexpected character '$' (line 4, column 12)"),
    (parse_atom, "", "unexpected end of input (line 1, column 1)"),
    (parse_program, "a :- b", "unexpected end of input (line 1, column 7)"),
    (parse_program, "p(a", "unexpected end of input (line 1, column 4)"),
    (parse_program, "a :- ", "unexpected end of input (line 1, column 1)"),
    (parse_program, "p(a) :- q(a), \n  r(a) ; s.",
     "expected ., found ';' (line 2, column 8)"),
    (parse_program, "a.\nb :- ,.\n",
     "expected ident, found ',' (line 2, column 6)"),
    (parse_program, 'a :- "s".',
     "expected ident, found '\"s\"' (line 1, column 6)"),
    (parse_program, "p(a,) :- q.",
     "expected a term, found ')' (line 1, column 5)"),
    (parse_atom, "P", "expected ident, found 'P' (line 1, column 1)"),
    (parse_program, "p(3..1).", "empty interval (line 1, column 3)"),
    (parse_program, "p(1..3) :- q.",
     "intervals are only allowed in facts (line 1, column 1)"),
    (parse_program, "x.\n  p(1..3, a) :- not q.",
     "intervals are only allowed in facts (line 2, column 3)"),
    (parse_program, "p :- q(1..3).",
     "expected ), found '..' (line 1, column 9)"),
    (parse_program, "p :- not q(1..2).",
     "expected ), found '..' (line 1, column 13)"),
    (parse_program, "a :- -1 {b}.", "negative bound (line 1, column 6)"),
    (parse_program, "a :- {b} -2.", "negative bound (line 1, column 10)"),
    (parse_program, "a :- 3 {b; c} 2.",
     "lower bound exceeds upper bound (line 1, column 15)"),
    (parse_answer_set, "p q(X)",
     "non-ground atom in answer set: q(X) (line 1, column 3)"),
    (parse_answer_set, "a b(c)\n% comment\nd(e,F)",
     "non-ground atom in answer set: d(e,F) (line 3, column 1)"),
    (parse_atom, "p q", "trailing input after atom (line 1, column 3)"),
    (parse_atom, "p(a) .", "trailing input after atom (line 1, column 6)"),
    (parse_program, '% comment\np("a b").\n% another\nq("x") :- p(, r.',
     "expected a term, found ',' (line 4, column 13)"),
    (parse_program, '% c\n\n  s("quoted % not a comment") :- t.\n  u :- v w.',
     "expected ., found 'w' (line 4, column 10)"),
    (parse_program, 'p("a\nb").', "unexpected character '\"' (line 1, column 3)"),
    # Numbers with more digits than int() converts.
    (parse_program, "a :- " + "1" * 5000 + " {b}.",
     "number too large (line 1, column 6)"),
    (parse_program, "p(1.." + "9" * 5000 + ").",
     "number too large (line 1, column 6)"),
    (parse_program, "x.\n  p(1..1000, a, 0..100).",
     "cap exceeded: more than 100000 facts from one interval fact (line 2, column 3)"),
    (parse_program, "p(1..60000).\nq(a) :- p(a).\n q(1..201, 1..200).",
     "cap exceeded: more than 100000 facts from the interval facts of one program"
     " (line 3, column 2)"),
    # Texts that look like atom tokens but are not atoms to the grammar.
    (parse_program, ":- not(a) b.", "expected ident, found '(' (line 1, column 7)"),
    (parse_program, ":- not(a).", "expected ident, found '(' (line 1, column 7)"),
    (parse_program, "q(p(a)).", "expected ), found '(' (line 1, column 4)"),
    (parse_program, "p(12abc).", "expected ), found 'abc' (line 1, column 5)"),
    (parse_answer_set, "p(a) q(X)",
     "non-ground atom in answer set: q(X) (line 1, column 6)"),
]


def _case_id(parse, text: str) -> str:
    shown = text if len(text) <= 80 else "%s...<%d chars>" % (text[:12], len(text))
    return "%s:%r" % (parse.__name__, shown)


@pytest.mark.parametrize(
    "parse, text, message", ERROR_TABLE,
    ids=[_case_id(f, t) for f, t, _ in ERROR_TABLE],
)
def test_error_message_and_position(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    line, col = map(int, re.search(r"line (\d+), column (\d+)\)$", message).groups())
    assert (info.value.line, info.value.col) == (line, col)


def _lines(parse, text: str) -> list[str]:
    # Programs and atoms count lines by "\n"; answer sets by str.splitlines.
    if parse is parse_answer_set:
        return text.splitlines() or [""]
    return text.split("\n")


_FRAGMENTS = st.sampled_from([
    "p", "q(a)", "r(X,1)", "X", "_y", ":-", "not", "..", "1", "-2", "{", "}",
    ";", ",", ".", "(", ")", '"s t"', '"', "%c", "\n", " ", "Answer: 1\n",
    "\r", "\x85", "$",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_FRAGMENTS, st.characters()), max_size=30).map("".join),
       st.sampled_from([parse_program, parse_answer_set, parse_atom]))
def test_any_text_parses_or_raises_parse_error(text, parse):
    try:
        parse(text)
    except ParseError as exc:
        lines = _lines(parse, text)
        assert 1 <= exc.line <= len(lines)
        assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1


_ATOM_FRAGMENTS = st.sampled_from([
    "not(", "p (a)", "q(p(a))", "12abc", '"x,y"', "%c\n", "1..3",
    "1 {a; b} 2", "{}", "-1 {a}", "cannot(a)", "a :- b, % c\n d.",
    "\u0663", "\x1c", '"a.b"', "a..",
])


def _outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col
    if isinstance(result, Program):
        return [(r, r.source_text) for r in result.rules]
    if isinstance(result, AnswerSet):
        return result.atoms
    return result


def _whole_text(text: str) -> Program:
    """``text`` read whole by the token grammar: every token of it first,
    then the rules. The reference every reading of a program must
    agree with."""
    plain = parser._Parser(text)
    plain.read()
    return Program(tuple(plain.parse_rules()))


def _token_grammar_only():
    """Patches under which every program and answer set is read by the
    token grammar alone, as a query atom always is."""
    return mock.patch.multiple(
        parser, _read_program=_whole_text, _read_by_facts=mock.Mock(return_value=None),
    )


def _by_facts(program: str):
    P = parse_program(program)
    return lambda text: parse_answer_set(text, program=P)


# Facts spelled with spaces, with a "%" and as plain tokens, and
# fragments that spell them, so that answer sets read against them reach
# the fact map.
_SPELLED_FACTS = 'p( a ). s("50%"). q(a,"b"). r.'
_FACT_FRAGMENTS = st.sampled_from(["p( a )", 's("50%")', 'q(a,"b")', "r", "q(a,"])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_FRAGMENTS, _ATOM_FRAGMENTS, _FACT_FRAGMENTS,
                          st.characters()),
                max_size=30).map("".join),
       st.sampled_from([parse_program, parse_answer_set, parse_atom,
                        _by_facts(_SPELLED_FACTS)]))
# Statements the match leaves to the token grammar, a period read as
# "..", and a "$" in a string or a comment after a refused statement,
# which is no lexical error. The last two have the period of "p." at the
# end of the characters a match is given.
@example("p..", parse_program)
@example("a :- b..", parse_program)
@example(":- a, not b.", parse_program)
@example("a :- 1 {b} 2.", parse_program)
@example("a :- b, 2 {c} 1.", parse_program)
@example("a :- %s {b}." % ("1" * 4301), parse_program)
@example('a :- .\nb("$").\n% $\n', parse_program)
@example(" " * (parser._MAX_STATEMENT - 2) + "p..", parse_program)
@example(" " * (parser._MAX_STATEMENT - 2) + "p.\nq.", parse_program)
def test_atom_tokens_parse_as_plain_tokens(text, parse):
    # The regular-expression reader must agree with the token grammar alone.
    with _token_grammar_only():
        plain = _outcome(parse, text)
    assert _outcome(parse, text) == plain


# (program, answer-set text): a set read against the facts of the program
# must be the set read without them, and an error the same error.
BY_FACTS_TABLE = [
    ("p(a,b).", "p( a , b )"),
    ("p( a , b ).", "p(a,b) q"),
    ("p(a).", "Answer: 1\np(a)"),
    ("p(a).", "p(a) % c q(b)\nr"),
    ("p(a)%c\n.", "p(a)%c q(b)\nr"),
    ('p("s t").', 'p("s t")'),
    ('p("50%").', 'p("50%") q'),
    ("p(a).", "q(b) r"),
    ("p(X).", "p(X)"),
    ("p(X). q(a).", "q(a) p(X)"),
    ("p(a). q(b).", "p(a)q(b) r(c)s"),
    ("p. q(b).", "p (a) q(b)"),
    ("p(a). q(b).", "p( q(b) a)"),
    ("p(1..2).", "p(1) p(2) p(3)"),
    ("p(a).", "p(a) p(a,"),
]


@pytest.mark.parametrize("program, text", BY_FACTS_TABLE)
def test_reading_against_facts_changes_nothing(program, text):
    assert _outcome(_by_facts(program), text) == _outcome(parse_answer_set, text)


# Answer sets with "Answer: N" lines, as a solver prints them, and lines
# that only look like one.
HEADER_TABLE = [
    "Answer: 1\np( a ) q",
    "Answer: 1\np(a) q",
    "  Answer: 12  \r\np(a)\nq(b)",
    "Answer: 1\x85p(a) q",
    "p(a)\nAnswer: 2\nq",
    "Answer: 1\nAnswer: 2\n",
    "Answer:1",
    "Answer: 1 p(a)",
    "Answer: x\np(a)",
    "Answer: 1\np(X)",
    "Answer: 1\np(a) q(",
    "p(a) Answer: 1\nq",
]


@pytest.mark.parametrize("text", HEADER_TABLE)
@pytest.mark.parametrize("program", ["", "p(a). q."])
def test_header_lines_read_as_the_token_grammar_reads_them(program, text):
    """The regular-expression reader skips a header line as the token
    grammar does, and an error is still the grammar's. Against the facts
    ``p(a)`` and ``q``, it reads itself every set of the table that has
    no atom spelled with spaces."""
    parse = _by_facts(program)
    with _token_grammar_only():
        plain = _outcome(parse, text)
    assert _outcome(parse, text) == plain
    if program and not isinstance(plain, tuple) and "( " not in text:
        heads = parse_program(program).filed_facts.heads
        assert parser._read_by_facts(text, heads).atoms == plain


def test_header_line_keeps_the_fast_reader():
    """An ``Answer: 1`` line before the 10^5 facts of
    :func:`conftest.knowledge_base_text`, read against their program, is
    skipped by the regular-expression reader, not handed with the whole
    set to the token grammar. On an Intel Xeon with 2 vCPUs it took
    0.20 s (0.11 s without the line, 1.97 s by the token grammar)."""
    program, answer_set, _ = knowledge_base_text(100_000)
    P = parse_program(program)
    text = "Answer: 1\n" + answer_set
    with mock.patch.object(parser._Parser, "answer_set", side_effect=AssertionError):
        t0 = time.perf_counter()
        X = parse_answer_set(text, program=P)
        elapsed = time.perf_counter() - t0
    assert X == parse_answer_set(answer_set, program=P) and len(X) == 100_258
    assert elapsed < 1.0


_BY_FACTS_TERMS = st.sampled_from(
    ["a", "b", "1", "-2", "_y", "X", '"s"', '"s t"', '"50%"', '"a,b)"']
)


@st.composite
def _spelled_atom(draw, terms=_BY_FACTS_TERMS) -> tuple[str, str]:
    """The text of an atom without spaces, and a spelling of it."""
    name = draw(st.sampled_from(["p", "q", "r"]))
    args = draw(st.lists(terms, max_size=2))
    if not args:
        return name, name
    sep = draw(st.sampled_from([",", ", ", " , "]))
    lpar, rpar = draw(st.sampled_from([("(", ")"), ("( ", " )"), (" (", ")")]))
    return "%s(%s)" % (name, ",".join(args)), name + lpar + sep.join(args) + rpar


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_reading_against_generated_facts_changes_nothing(data):
    facts = data.draw(st.lists(_spelled_atom(), max_size=6))
    ends = st.sampled_from([".", " .", "%c\n."])
    program = "".join(s + data.draw(ends) + "\n" for _, s in facts) + "r(X) :- p(X).\n"
    # A fact as spelled in the program or respelled, an atom that may be
    # absent from it, a header line or a comment; and the text between
    # them, which may be none.
    item = st.one_of(
        _spelled_atom().map(lambda a: a[data.draw(st.integers(0, 1))]),
        st.sampled_from(["Answer: 1", "% c", "p(a)q(b)"]
                        + [text for fact in facts for text in fact]),
    )
    pieces = data.draw(st.lists(
        st.tuples(item, st.sampled_from([" ", "\n", "", "\x85", "\r\n"])), max_size=8
    ))
    text = "".join(a + sep for a, sep in pieces)
    assert _outcome(_by_facts(program), text) == _outcome(parse_answer_set, text)


def _padded_chain() -> tuple[str, str]:
    """A 150-step chain shuffled among 1,000 unrelated facts."""
    program, answer_set = chain_text(150)
    lines = program.splitlines() + ["f%d." % i for i in range(1000)]
    random.Random(7).shuffle(lines)
    return "\n".join(lines) + "\n", answer_set + " " + " ".join("f%d" % i for i in range(1000))


def _gene_reach() -> tuple[str, str]:
    """Reachability over 300 genes and 1,200 edges, as in q8.lp."""
    rng = random.Random(7)
    edges = sorted({(rng.randrange(300), rng.randrange(300)) for _ in range(1200)})
    facts = ['gene_gene_biogrid("G%04d","G%04d").' % e for e in edges]
    rules = fixture_text("q8.lp").splitlines()[6:]
    atoms = ['gene_gene_biogrid("G%04d","G%04d")' % e for e in edges]
    atoms += ['gene_reachable_from("G%04d",1)' % a for a, _ in edges[:50]]
    return "\n".join(facts + rules) + "\n", "\n".join(atoms)


_FAST_INPUTS = {
    "q8": (fixture_text("q8.lp"), fixture_text("q8.as")),
    "example44": (fixture_text("example44.lp"), fixture_text("example44.as")),
    "example41": (fixture_text("example41.lp"), fixture_text("example41.as")),
    "threerule": (fixture_text("threerule.lp"), fixture_text("threerule.as")),
    "chain": _padded_chain(),
    "gene": _gene_reach(),
}


@pytest.mark.parametrize("name", sorted(_FAST_INPUTS))
def test_regex_reader_needs_no_token_grammar(name):
    """Only the cardinality body of ``example44``, ``a :- d, 1 {b; c}
    2.``, is left to the token grammar."""
    program, answer_set = _FAST_INPUTS[name]
    with mock.patch.object(parser, "_tokenize", wraps=parser._tokenize) as tokenize:
        P = parse_program(program)
        X = parse_answer_set(answer_set)
        by_facts = parse_answer_set(answer_set, program=P)
    assert len(P) > 0 and len(X) > 0 and by_facts == X
    read = [program[c.args[1]:].split(".")[0].strip() for c in tokenize.call_args_list]
    assert read == (["a :- d, 1 {b; c} 2"] if name == "example44" else [])


def test_atoms_spelled_as_facts_are_the_fact_heads():
    program, answer_set = _gene_reach()
    P = parse_program(program)
    heads = {id(r.head) for r in P.rules if r.is_fact}
    X = parse_answer_set(answer_set, program=P)
    facts = [a for a in X if a.predicate == "gene_gene_biogrid"]
    assert len(facts) > 1000 and all(id(a) in heads for a in facts)


def test_facts_are_built_as_the_token_grammar_builds_them():
    text = 'p( "a b" ,  c ).\nq.\nr(X) :- p("a b", X), not q, s(c).\np(d, c)%c\n.\n'
    with mock.patch.object(parser, "_rule_of", wraps=parser._rule_of) as rule_of:
        P = parse_program(text)
    assert rule_of.call_count == 1  # only the statement with a body
    fact, bare, rule, commented = P.rules
    for r in (fact, bare, commented):
        assert type(r) is Rule and type(r.head) is Atom
        assert all(type(t) is Term for t in r.head.args)
    assert fact == Rule(Atom("p", (Term('"a b"'), Term("c"))))
    assert vars(fact) == {"source_text": 'p( "a b" ,  c )'}
    assert vars(bare) == {"source_text": "q"} and bare.head == Atom("q")
    assert vars(commented) == {"source_text": "p(d, c)%c"}
    # One term object per name, in facts and rule bodies alike.
    assert fact.head.args[0] is rule.body_pos[0].args[0]
    assert fact.head.args[1] is rule.body_pos[1].args[0] is commented.head.args[1]
    plain = _whole_text(text)
    assert [(r, vars(r)) for r in P.rules] == [(r, vars(r)) for r in plain.rules]


_TERM_POOL = st.sampled_from(["a", "b", "1", "-2", "_y", "X", "Y", '"s t"', '"a,b"',
                              '"a.b"', '"50%"', '"a,b)"'])


@st.composite
def _statement(draw) -> str:
    """One statement of the kinds each reader takes, ending in its period."""
    def atom():
        return draw(_spelled_atom(_TERM_POOL))[1]

    kind = draw(st.sampled_from(
        ["fact", "fact", "rule", "constraint", "interval", "comment", "long", "bound"]
    ))
    if kind == "fact":
        return atom() + draw(st.sampled_from([".", " .", "%c\n."]))
    if kind == "rule":
        literals = {
            "pos": atom, "neg": lambda: "not " + atom(),
            "card": lambda: "1 {%s; %s} 2" % (atom(), atom()),
        }
        kinds = draw(st.lists(st.sampled_from(sorted(literals)), min_size=1, max_size=3))
        return "%s :- %s." % (atom(), ", ".join(literals[k]() for k in kinds))
    if kind == "constraint":
        return ":- %s, not %s." % (atom(), atom())
    if kind == "interval":
        return draw(st.sampled_from(["p(1..3).", "q(a, 0..2).", 'r("s t", 2..3).']))
    if kind == "comment":
        return "%s :- %s, %% c\n %s." % (atom(), atom(), atom())
    if kind == "long":  # longer than the regex is given
        n = parser._MAX_STATEMENT // 6
        return draw(st.sampled_from([
            "s :- %s." % ", ".join("b%d" % i for i in range(n)),
            'p("%s", a).' % ("x" * parser._MAX_STATEMENT),
        ]))
    # Bounds out of order, with more digits than int() converts, or in
    # order: the token grammar reads each, and refuses the first two.
    return draw(st.sampled_from(
        ["t :- 3 {p(a); q} 2.", "t :- %s {p(a)}." % ("9" * 5000), "t :- 1 {p(a)} 2."]
    ))


@settings(max_examples=200, deadline=None)
@given(st.lists(_statement(), max_size=8))
def test_terms_from_the_parser_are_the_terms_of_the_rules(statements):
    try:
        P = parse_program("\n".join(statements))
    except ParseError:
        return
    assert "_terms" in vars(P)  # filled by the parser, not computed
    Q = Program(P.rules)
    assert all(type(t) is Term for t in P._terms)
    assert P._terms == Q._terms
    assert P.variables == Q.variables
    assert P.herbrand_universe == Q.herbrand_universe
    _assert_filed_as_computed(P)


def _assert_filed_as_computed(P: Program) -> None:
    """The facts ``parse_program`` filed as it read ``P`` are those the
    property files for the same rules, each other rule paired with its
    position, and each fact column holding the facts of ``P.rules`` in
    program order."""
    filed = vars(P)["filed_facts"]  # filled by the parser, not computed
    computed = Program(P.rules).filed_facts
    assert filed.atoms == computed.atoms and filed.sources == computed.sources
    assert filed.heads == computed.heads
    assert filed.by_head == computed.by_head
    assert filed.others == computed.others
    assert all(P.rules[i] is r for i, r in filed.others)
    others = dict(filed.others)
    facts = [r for i, r in enumerate(P.rules) if i not in others]
    assert [r.head for r in facts] == filed.atoms
    assert [r.source_text for r in facts] == filed.sources
    assert all(filed.heads[r.source_text] == r.head for r in facts)


# Lines of a text shaped like a knowledge base: fact lines of 0 to
# _MAX_LINE_ARGS + 1 arguments, spaced, indented and commented in the
# ways the line reader must read or leave alone, among rules, statements
# over several lines whose last line reads as a fact, a comment line that
# holds a fact, and lines longer than _MAX_STATEMENT characters.
_KB_TERMS = st.sampled_from(["a", "b1", "_y", "-2", "7", '"s t"', '"a,b"', '"50%"',
                             '"a.b"', '"x)"', '""'])
_KB_SPACE = st.sampled_from(["", " ", "\t", "\x1c", "\u2028", "\r"])


@st.composite
def _kb_fact(draw) -> str:
    name = draw(st.sampled_from(["p", "q", "gene_gene", "not", "x1"]))
    args = draw(st.lists(_KB_TERMS, max_size=parser._MAX_LINE_ARGS + 1))
    if args:
        sep = draw(st.sampled_from([",", ", ", " ,\t"]))
        name += draw(st.sampled_from(["(", " (", "( "])) + sep.join(args) + ")"
    return draw(_KB_SPACE) + name + draw(st.sampled_from([".", " .", ". % c.", ".%p(a).", ".\x1c"]))


_KB_LINE = st.one_of(
    _kb_fact(), _kb_fact(), _kb_fact(),
    st.sampled_from([
        "r(X) :- p(X, a), not q.", ":- p(a), q.", "t :- 1 {p(a); q} 2.", "% p(a).",
        "s :- p,\n  q(a).", "u :- q, % c\nq(b).", "v :-\nw.", "x(a,\n b).", "y. z.",
        "", "  ", "p(1..2).", 'p("%s").' % ("x" * parser._MAX_STATEMENT),
        " " * (parser._MAX_STATEMENT - 2) + "p.", "p(a", "$", "q :- .",
    ]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_KB_LINE, max_size=12), st.sampled_from(["\n", "\r\n"]),
       st.sampled_from(["\n", "\r\n", ""]),
       st.sampled_from([(parser._SLICE, parser._MIN_SPLIT),
                        (1 << 20, 0), (1, 0), (24, 0), (60, 0)]))
def test_knowledge_base_lines_read_as_the_token_grammar_reads_them(lines, eol, last, sizes):
    """The line reader, in slices of whole lines of any size, split or
    read by the statement match alone, gives the rules, source texts
    and errors of the token grammar on the whole text, and files the
    facts as they are filed for the same rules."""
    text = eol.join(lines) + last
    plain = _outcome(_whole_text, text)
    with mock.patch.multiple(parser, _SLICE=sizes[0], _MIN_SPLIT=sizes[1]):
        assert _outcome(parse_program, text) == plain
        if not isinstance(plain, tuple):
            _assert_filed_as_computed(parse_program(text))


def _kb_seconds(text: str) -> float:
    t0 = time.perf_counter()
    parse_program(text)
    return time.perf_counter() - t0


# Texts the line reader must pass over in time linear in their length.
# On an Intel Xeon with 2 vCPUs (Python 3.11) they took 3 ms, 11 ms,
# 0.3 ms and 93 ms; a reader that searched the rest of the text for the
# next fact line on every statement took 18 s on the 10^4 rules.
COST_TABLE = [
    "p.\nq%s.\n" % ("a" * 10**5),
    "p.\n" + "\n" * 10**5 + "q.\n",
    "p.\n%% %s\nq.\n" % ("x" * 10**5),
    "".join("r%d(X) :- q(X, %d).\n" % (i, i) for i in range(10**4)),
]


@pytest.mark.parametrize("text", COST_TABLE, ids=["identifier", "blank lines", "comment", "rules"])
def test_line_reader_time_is_linear(text):
    assert min(_kb_seconds(text) for _ in range(3)) < 1.0


def test_knowledge_base_facts_are_held_as_columns():
    """After parse_program over the 10^5 facts of
    :func:`conftest.knowledge_base_text` 302 bytes are held per fact
    (tracemalloc, Python 3.11), where a rule per fact held 768; and
    explaining the query builds no rule per fact."""
    program, answer_set, query = knowledge_base_text(10**5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        P = parse_program(program)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / 10**5 < 400
    X = parse_answer_set(answer_set, program=P)
    assert shortest_explanation(P, X, parse_atom(query)).size > 0
    assert "rules" not in vars(P)
    assert len(P.rules) == program.count("\n") and "rules" in vars(P)


_LONG_BODY = ", ".join("b%d" % i for i in range(3000))


@pytest.mark.parametrize("statement, source", [
    ("b :- a, % why\n  c.", "b :- a, % why\n  c"),
    ("b :- %s." % _LONG_BODY, "b :- %s" % _LONG_BODY),
    ("b(1..2).", "b(2)"),
], ids=["comment inside", "over 10,000 characters", "interval"])
def test_statement_the_regex_cannot_read_takes_one_token_read(statement, source):
    with mock.patch.object(parser, "_tokenize", wraps=parser._tokenize) as tokenize:
        P = parse_program("a.\n%s\nc :- a.\n" % statement)
    assert [r.source_text for r in P.rules[-2:]] == [source, "c :- a"]
    assert tokenize.call_count == 1


@pytest.mark.parametrize("statement, source", [
    ("b(1..2).", "b(2)"),
    ("b(x, % why\n  y).", "b(x, % why\n  y)"),
    ('b("%s").' % ("x" * parser._MAX_STATEMENT), 'b("%s")' % ("x" * parser._MAX_STATEMENT)),
], ids=["interval", "comment inside", "over 10,000 characters"])
def test_facts_the_token_grammar_reads_are_filed(statement, source):
    with mock.patch.object(parser, "_tokenize", wraps=parser._tokenize) as tokenize:
        P = parse_program("a.\n%s\nc :- a.\nd.\n" % statement)
    assert tokenize.call_count == 1
    filed = P.filed_facts
    *_, fact, rule, last = P.rules
    assert filed.heads[source] == fact.head
    assert filed.by_head[fact.head] == source
    assert [i for i, _ in filed.others] == [len(P) - 2]
    assert filed.by_head[last.head] == "d"
    _assert_filed_as_computed(P)


@pytest.mark.parametrize("program, offending", [
    ("a.\np(X).\nq(Y) :- a.\np( X ).\n", "p(X)"),
    ("a.\nq(Y) :- a.\np(X).\n", "q(Y) :- a"),
], ids=["fact first", "rule first"])
def test_fact_with_a_variable_head_is_not_filed(program, offending):
    P = parse_program(program)
    filed = P.filed_facts
    assert list(filed.heads) == ["a"] and list(filed.by_head) == [Atom("a")]
    assert filed.others == [(i, r) for i, r in enumerate(P.rules) if r.head.predicate != "a"]
    _assert_filed_as_computed(P)
    message = "unsafe rule %r: variable" % offending
    with pytest.raises(GroundingError, match=re.escape(message)):
        GroundingIndex(P, frozenset([Atom("a")]))
    with pytest.raises(ParseError, match="non-ground atom"):
        parse_answer_set("a p(X)", program=P)


def test_duplicate_fact_keeps_the_first_position_and_source_text():
    P = parse_program('p(a, b).\nq.\np( a ,b ).\nr :- p(a, b).\np(a,b).\n')
    head = Atom("p", (Term("a"), Term("b")))
    filed = P.filed_facts
    assert filed.by_head[head] == "p(a, b)" == P.rules[0].source_text
    assert filed.heads == {"p(a, b)": head, "q": Atom("q"), "p( a ,b )": head, "p(a,b)": head}
    assert filed.others == [(3, P.rules[3])]
    X = parse_answer_set("p(a, b) q r", program=P)
    assert [r.source_text for r in instantiate_for_head(GroundingIndex(P, X), head)] == ["p(a, b)"]
    _assert_filed_as_computed(P)


_HEADS = ['z', 'o(a)', 't(a, "b, c")', 'h(-1,"x y",Z_)', 'f("a, b" , c,d , "e f", 5)',
          'u( "," )', 'w("", b)']


def test_head_arguments_are_taken_from_the_match():
    text = "".join("%s.\n" % h for h in _HEADS) + 'r(A) :- o(A), t(A, "b, c").\n'
    with mock.patch.object(parser, "_tokenize", wraps=parser._tokenize) as tokenize:
        P = parse_program(text)
    assert tokenize.call_count == 0
    plain = _whole_text(text)
    assert [(r, vars(r)) for r in P.rules] == [(r, vars(r)) for r in plain.rules]
    assert [len(r.head.args) for r in P.rules[:5]] == [0, 1, 2, 3, 5]
    assert all(type(t) is Term for r in P.rules for t in r.head.args)
    assert list(P.filed_facts.heads) == _HEADS[:3] + _HEADS[4:]  # h(..., Z_) has a variable
    assert [i for i, _ in P.filed_facts.others] == [3, len(_HEADS)]
    _assert_filed_as_computed(P)


def test_statement_the_match_leaves_is_filed_once():
    """A cardinality body, which the match leaves, is read by the token
    grammar and filed once, from there."""
    text = "a.\nb :- a, 1 {a} 2.\nc.\nd :- b.\n"
    with mock.patch.object(parser, "_rule_of", wraps=parser._rule_of) as rule_of, \
            mock.patch.object(parser, "_tokenize", wraps=parser._tokenize) as tokenize:
        P = parse_program(text)
    assert rule_of.call_count == tokenize.call_count == 1
    assert [i for i, _ in P.filed_facts.others] == [1, 3]
    assert [r.source_text for r in P.rules] == ["a", "b :- a, 1 {a} 2", "c", "d :- b"]
    _assert_filed_as_computed(P)


def test_refused_knowledge_base_is_tokenized_from_the_refused_statement_on():
    """``x :- .`` after the 10^4 facts and the rules of
    :func:`conftest.knowledge_base_text` is read by the token grammar
    alone, and the text is not read again to word the error. Under
    tracemalloc the refused text peaked at 7.6 MB and the valid one at
    7.4 MB; read again, whole, by the token grammar, it peaked at
    21.5 MB."""
    program = knowledge_base_text(10**4)[0]
    tracemalloc.start()
    try:
        parse_program(program)
        valid = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with mock.patch.object(parser, "_tokenize", wraps=parser._tokenize) as tokenize, \
                pytest.raises(ParseError) as info:
            parse_program(program + "x :- .\n")
        refused = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "expected ident, found '.' (line 10008, column 6)"
    assert [c.args[1] for c in tokenize.call_args_list] == [program.rindex(".") + 1] == [380415]
    assert refused < 1.5 * valid


_N = 10**5
# Inputs on which a regular expression with nested or adjacent ambiguous
# repetitions would backtrack for hours.
BACKTRACK_TABLE = [
    (parse_program, "a :- " + ", ".join("b%d" % i for i in range(_N))),
    (parse_program, "a :- b, %" + "c, " * (_N // 3) + "\n d."),
    (parse_program, "a :- b" + " " * _N + "."),
    (parse_program, "a" + " " * _N + "."),
    (parse_program, " " * _N + "."),
    (parse_program, "a :- {" + " " * _N + "."),
    (parse_program, "p(" + " " * _N + "a" + " " * _N + "b)."),
    (parse_answer_set, " ".join("p%d" % i for i in range(_N)) + " $"),
    (parse_program, " ".join("p%d" % i for i in range(_N)) + " $"),
]


@pytest.mark.parametrize(
    "parse, text", BACKTRACK_TABLE,
    ids=[_case_id(f, t) for f, t in BACKTRACK_TABLE],
)
def test_regex_reader_time_is_linear(parse, text):
    t0 = time.perf_counter()
    try:
        parse(text)
    except ParseError:
        pass
    assert time.perf_counter() - t0 < 5

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from aspexplain.engine import shortest_explanation
from aspexplain.ground import ground_program
from aspexplain.model import (
    AnswerSet,
    Atom,
    CardinalityExpression,
    Program,
    Rule,
    Term,
    is_answer_set,
    least_model,
    reduct,
    satisfies_card,
    satisfies_rule,
    supports,
    verify_answer_set,
)
from aspexplain.parser import parse_answer_set, parse_atom, parse_program

from conftest import (
    answer_sets, exhaustive_verify, random_constraint_program, random_program,
    supporting_rules,
)


def atoms(*names):
    return tuple(Atom(n) for n in names)


a, b, c, d, e, p, q = atoms("a", "b", "c", "d", "e", "p", "q")


class TestTerm:
    def test_variable_detection(self):
        assert Term("Xv").is_variable
        assert not Term("abc").is_variable
        assert not Term('"ADRB1"').is_variable
        assert not Term("3").is_variable

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Term("")

    def test_unquoted(self):
        assert Term('"ADRB1"').unquoted == "ADRB1"
        assert Term("x").unquoted == "x"

    def test_a_term_is_its_text(self):
        t = Term('"a b"')
        assert isinstance(t, str) and t == '"a b"' and hash(t) == hash('"a b"')
        assert type(t.name) is str and t.name == '"a b"'
        assert repr(Term("a")) == "Term(name='a')"
        assert repr(t) == "Term(name='\"a b\"')"


class TestAtom:
    def test_text(self):
        assert Atom("p", (Term("a"), Term("1"))).text == "p(a,1)"
        assert Atom("p").text == "p"

    def test_structural_identity(self):
        assert Atom("p", (Term("a"),)) == Atom("p", (Term("a"),))

    def test_an_atom_is_its_tuple(self):
        assert Atom("p") == ("p", ()) and hash(Atom("p")) == hash(("p", ()))
        assert Atom("p", ()) != ("p", 0)
        assert Atom("p", (Term("a"),)) == ("p", ("a",))
        assert repr(Atom("p", (Term("a"),))) == (
            "Atom(predicate='p', args=(Term(name='a'),))"
        )


_TERM_TEXTS = st.sampled_from(
    ["a", "b", "ab", "a_1", "0", "1", "10", "-1", "-10", '"a"', '"B c"', '""',
     "X", "Y1", "Z_"]
)
_ATOM_TEXTS = st.builds(
    lambda pred, args: pred + ("(%s)" % ",".join(args) if args else ""),
    st.sampled_from(["p", "q", "pq", "p_1"]),
    st.lists(_TERM_TEXTS, max_size=3),
)


_GROUND_ATOM_TEXTS = st.builds(
    lambda pred, args: pred + ("(%s)" % ",".join(args) if args else ""),
    st.sampled_from(["p", "q", "pq", "p_1"]),
    st.lists(_TERM_TEXTS.filter(lambda t: not t[0].isupper()), max_size=3),
)


def _plain(atom: Atom) -> tuple:
    return (atom.predicate, tuple(str(t) for t in atom.args))


@given(st.lists(_ATOM_TEXTS, min_size=1, max_size=8))
def test_atoms_hash_compare_and_sort_as_plain_tuples(texts):
    """Parsed atoms agree with ``(predicate, texts of args)`` in ``==``,
    ``hash`` and ``<``, and the Herbrand universe sorts as its texts."""
    parsed = [parse_atom(t) for t in texts]
    for x in parsed:
        for y in parsed:
            assert (x == y) == (_plain(x) == _plain(y))
            assert (x < y) == (_plain(x) < _plain(y))
        assert hash(x) == hash(_plain(x))
    assert sorted(parsed) == sorted(parsed, key=_plain)
    P = parse_program("".join("%s :- %s." % (t, t) for t in texts))
    universe = sorted(P.herbrand_universe)
    assert all(type(t) is Term for t in universe)
    assert [str(t) for t in universe] == sorted(str(t) for t in universe)


class TestRule:
    def test_equality_ignores_source_text(self):
        r1 = Rule(a, (b,), source_text="a :- b")
        r2 = Rule(a, (b,), source_text="a:-b")
        assert r1 == r2
        assert len({r1, r2}) == 1

    def test_text_forms(self):
        assert Rule(a, (b, c)).text == "a :- b, c"
        assert Rule(a).text == "a"
        assert Rule(None, (b,)).text == ":- b"

    def test_constraint_and_fact_flags(self):
        assert Rule(None, (b,)).is_constraint
        assert Rule(a).is_fact

    def test_a_rule_is_its_tuple(self):
        card = CardinalityExpression(1, None, (d,))
        r = Rule(a, (b,), (c,), (card,), source_text="a :- b, not c, 1 {d}")
        plain = (a, (b,), (c,), (card,))
        assert r == plain and plain == r and hash(r) == hash(plain)
        assert Rule(None, (b,)) == (None, (b,), (), ())
        assert r != (a, (b,), (c,))
        assert {r: 1}[plain] == 1 and plain in {r}

    def test_source_text_is_outside_equality(self):
        r = Rule(a, (b,), source_text="a:-b")
        assert r == Rule(a, (b,)) == Rule(a, (b,), source_text="a :- b")
        assert r.display == "a:-b" and Rule(a, (b,)).display == "a :- b"
        assert tuple(r) == (a, (b,), (), ()) and "a:-b" not in repr(r)

    @pytest.mark.parametrize("source", ["a :- b, % c", "a :-\nb", "a :- b\n", "a :-\rb",
                                        "a :-\u2028b", "a :-\x0cb"])
    def test_display_of_a_source_with_a_comment_or_line_break_is_the_text(self, source):
        r = Rule(a, (b,), source_text=source)
        assert r.source_text == source and r.display == "a :- b"

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_source_text(self, clone):
        r = Rule(a, (b,), source_text="a:-b")
        r2 = clone(r)
        assert type(r2) is Rule and r2 == r and r2.source_text == "a:-b"
        assert clone(Rule(a)).display == "a"

    @pytest.mark.parametrize("field", ["head", "body_pos", "body_neg", "body_card"])
    def test_fields_cannot_be_assigned(self, field):
        r = Rule(a, (b,))
        with pytest.raises(AttributeError):
            setattr(r, field, ())
        assert r == (a, (b,), (), ())

    def test_an_atom_never_equals_a_rule(self):
        for r in (Rule(a), Rule(a, (b,)), Rule(None, (a,))):
            assert a != r and r != a and len({a, r}) == 2
        assert Atom("p", (Term("a"),)) != Rule(Atom("p", (Term("a"),)))


class TestProgram:
    def test_deduplicated_keeps_first_source(self):
        P = Program((Rule(a, (b,), source_text="first"),
                     Rule(a, (b,), source_text="second")))
        D = P.deduplicated()
        assert len(D) == 1
        assert D.rules[0].display == "first"

    def test_herbrand_base_ground(self):
        P = parse_program("p(x) :- q(x). q(x).")
        assert P.herbrand_base == {Atom("p", (Term("x"),)),
                                   Atom("q", (Term("x"),))}

    def test_herbrand_base_nonground(self):
        P = parse_program("q(x). q(y). p(Xv) :- q(Xv).")
        assert len(P.herbrand_base) == 4


class TestAnswerSet:
    def test_rejects_non_ground(self):
        with pytest.raises(ValueError, match=r"non-ground atom in answer set: p\(Xv\)"):
            AnswerSet([Atom("p", (Term("Xv"),))])

    def test_membership(self):
        X = AnswerSet([a, b])
        assert a in X and c not in X and len(X) == 2

    def test_is_a_frozenset_with_no_forwarding(self):
        X = AnswerSet([a, b])
        assert isinstance(X, frozenset) and X.atoms is X
        assert X == frozenset([a, b]) and hash(X) == hash(frozenset([a, b]))
        assert not {"__contains__", "__iter__", "__len__"} & set(vars(AnswerSet))


_GROUND = [a, b, c, d, parse_atom("q(a)"), parse_atom('q("B c")')]
_BODY = st.lists(st.sampled_from(_GROUND), max_size=3).map(tuple)
_CARD = st.builds(
    lambda lower, extra, members: CardinalityExpression(
        lower, None if extra is None else lower + extra, members
    ),
    st.integers(0, 2), st.none() | st.integers(0, 2), _BODY,
)
_RULE = st.builds(
    Rule, st.none() | st.sampled_from(_GROUND), _BODY, _BODY,
    st.lists(_CARD, max_size=1).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_RULE, max_size=6), st.frozensets(st.sampled_from(_GROUND)),
       st.frozensets(st.sampled_from(_GROUND)), st.sampled_from(_GROUND))
def test_answer_set_frozenset_and_set_give_the_same_results(rules, X, Z, p):
    """Every function that takes a set of atoms answers the same for an
    :class:`AnswerSet`, a ``frozenset`` and a ``set`` of the same atoms."""
    P = Program(tuple(rules))
    normal = Program(tuple(r for r in rules if not r.body_card))
    results = []
    for make in (AnswerSet, frozenset, set):
        Y = make(X)
        results.append([
            [supports(r, p, Y, make(Z)) for r in P.rules],
            [satisfies_card(Y, C) for r in P.rules for C in r.body_card],
            [satisfies_rule(Y, r) for r in P.rules],
            reduct(P, Y),
            least_model(normal, Y),
            verify_answer_set(normal, Y),
            ground_program(P, Y),
            shortest_explanation(P, Y, p) if p in Y else None,
        ])
    assert results[0] == results[1] == results[2]


@given(st.lists(_GROUND_ATOM_TEXTS, max_size=8))
def test_parsed_answer_set_is_the_frozenset_of_its_atoms(texts):
    X = parse_answer_set(" ".join(texts))
    atoms = frozenset(parse_atom(t) for t in texts)
    assert type(X) is AnswerSet
    assert X == atoms and hash(X) == hash(atoms)


class TestSatisfiesCard:
    def test_within_bounds(self):
        C = CardinalityExpression(1, 2, (b, c))
        assert satisfies_card({a, b, c, d}, C)

    def test_zero_bounds_empty_set(self):
        assert satisfies_card(set(), CardinalityExpression(0, 0, (p,)))

    def test_lower_bound_unmet(self):
        assert not satisfies_card({p, q}, CardinalityExpression(3, None, (p, q)))

    def test_non_ground_rejected(self):
        C = CardinalityExpression(0, None, (Atom("p", (Term("Xv"),)),))
        with pytest.raises(ValueError, match="non-ground cardinality"):
            satisfies_card(set(), C)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            CardinalityExpression(3, 1, (p,))


class TestReduct:
    def test_drops_blocked_rules(self):
        P = parse_program("p :- not q.")
        assert reduct(P, {p}).rules == (Rule(p),)

    def test_identity_without_negation(self):
        P = parse_program("p.")
        assert reduct(P, set()).rules == (Rule(p),)

    def test_strips_negative_bodies(self):
        P = parse_program("a :- b, not c. c.")
        R = reduct(P, {c})
        assert R.rules == (Rule(c),)
        assert all(not r.body_neg for r in R.rules)


class TestLeastModel:
    def test_blocked_rules_and_constraints_ignored(self):
        P = parse_program("a. b :- a, not c. d :- b, not a. :- b.")
        assert least_model(P, {a, c}) == {a}
        assert least_model(P, set()) == {a, b, d}

    def test_repeated_body_atom(self):
        P = parse_program("a :- b, b. b :- c. c.")
        assert least_model(P, set()) == {a, b, c}

    def test_cardinality_rejected(self):
        P = parse_program("a :- 1 {b; c} 2. b.")
        with pytest.raises(ValueError, match="normal programs only"):
            least_model(P, set())


class TestIsAnswerSet:
    def test_positive_case(self):
        P = parse_program("p :- not q.")
        assert is_answer_set(P, {p})

    def test_unsatisfied_rule(self):
        P = parse_program("p :- not q.")
        ok, reason = verify_answer_set(P, set())
        assert not ok and "unsatisfied rule" in reason

    def test_not_minimal(self):
        P = parse_program("p :- not q.")
        ok, reason = verify_answer_set(P, {p, q})
        assert not ok and "not subset-minimal" in reason

    def test_long_chain(self):
        n = 10**4
        P = parse_program("c0.\n" + "".join(
            "c%d :- c%d, not d%d.\n" % (i + 1, i, i) for i in range(n)
        ))
        X = frozenset(Atom("c%d" % i) for i in range(n + 1))
        assert verify_answer_set(P, X) == (True, "")
        ok, reason = verify_answer_set(P, X | {Atom("u")})
        assert not ok
        assert reason == (
            "not subset-minimal: {%s} already satisfies the reduct"
            % ", ".join(a.text for a in sorted(X))
        )

    def test_cardinality_rejected(self):
        P = parse_program("a :- 1 {b; c} 2. b. c.")
        with pytest.raises(ValueError, match="cardinality"):
            is_answer_set(P, {a, b, c})

    def test_agrees_with_oracle(self):
        """The verdict and the reason equal those of the exhaustive
        subset check, on every subset of the base plus an atom foreign
        to the program, for programs with and without constraints."""
        rng = random.Random(7)
        for generate in (random_program, random_constraint_program):
            for _ in range(50):
                P = generate(rng, max_atoms=5, max_rules=8)
                expected = set(answer_sets(P))
                atoms = sorted(P.herbrand_base) + [Atom("u")]
                for mask in range(2 ** len(atoms)):
                    I = frozenset(x for i, x in enumerate(atoms) if mask >> i & 1)
                    assert verify_answer_set(P, I) == exhaustive_verify(P, I)
                    assert is_answer_set(P, I) == (I in expected)


class TestSupports:
    X41 = frozenset([a, b, c, d])

    def test_plain_support(self):
        assert supports(Rule(a, (d,)), a, self.X41, frozenset())

    def test_blocked_by_negation(self):
        assert not supports(Rule(a, (d,), (b,)), a, self.X41, frozenset())

    def test_blocked_by_exclusion(self):
        assert not supports(Rule(b, (c,)), b, self.X41, frozenset([c]))

    def test_shrinking_exclusion_preserves_support(self):
        r = Rule(a, (d,))
        Z = frozenset([b, c])
        assert supports(r, a, self.X41, Z)
        assert supports(r, a, self.X41, frozenset([b]))
        assert supports(r, a, self.X41, frozenset())


class TestSupportingRules:
    def test_example_root(self):
        P = parse_program("a :- b, c. a :- d. d. b :- c. c.")
        rs = supporting_rules(P, a, frozenset([a, b, c, d]), frozenset())
        assert [r.text for r in rs] == ["a :- b, c", "a :- d"]

    def test_single_fact(self):
        P = parse_program("a :- b, c. a :- d. d. b :- c. c.")
        rs = supporting_rules(P, c, frozenset([a, b, c, d]), frozenset())
        assert [r.text for r in rs] == ["c"]

    def test_no_matching_head(self):
        P = parse_program("a :- b.")
        assert supporting_rules(P, q, frozenset([a, b, q]), frozenset()) == ()


@given(st.sets(st.sampled_from([a, b, c, d, e])),
       st.sets(st.sampled_from([a, b, c, d, e])),
       st.integers(min_value=0, max_value=3))
def test_lower_bound_monotone_under_supersets(x1, extra, lower):
    C = CardinalityExpression(lower, None, (a, b, c))
    if satisfies_card(x1, C):
        assert satisfies_card(x1 | extra, C)

import random

import pytest

from aspexplain import engine, ground
from aspexplain.cli import main
from aspexplain.ground import (
    GroundingError,
    GroundingIndex,
    ground_program,
    instantiate_for_head,
)
from aspexplain.model import Atom, Program, Term, verify_answer_set
from aspexplain.parser import parse_answer_set, parse_atom, parse_program

from conftest import (
    answer_sets,
    fixture_text,
    guard_text,
    knowledge_base_text,
    product_ground,
    random_constraint_program,
    random_nonground_program,
    reference_join,
    supporting_rules,
)

FIXTURES = ("example41", "example44", "threerule", "q8")


class TestGroundProgram:
    def test_single_constant(self):
        P = parse_program("q(a). p(Xv) :- q(Xv).")
        G = ground_program(P, P.herbrand_base)
        assert sorted(r.text for r in G.rules) == ["p(a) :- q(a)", "q(a)"]

    def test_identity_on_ground_input(self):
        """For a ground program the result is its rules whose positive
        body lies in the set, deduplicated and in program order: the
        program itself when the set holds every body."""
        P = parse_program("a :- b, c. a :- d. d. b :- c. c.")
        G = ground_program(P, P.herbrand_base)
        assert G.rules == P.rules
        assert [r.display for r in G] == [r.display for r in P]
        P = parse_program("a :- b, c. a :- d. d. b :- c. c. a:-d.")
        X = frozenset([parse_atom("c"), parse_atom("d")])
        G = ground_program(P, X)
        assert [r.display for r in G.rules] == ["a :- d", "d", "b :- c", "c"]
        assert G.rules == tuple(
            dict.fromkeys(r for r in P.rules if X.issuperset(r.body_pos))
        )

    def test_two_constants(self):
        P = parse_program("q(a). q(b). p(Xv) :- q(Xv).")
        G = ground_program(P, P.herbrand_base)
        texts = sorted(r.text for r in G.rules)
        assert "p(a) :- q(a)" in texts and "p(b) :- q(b)" in texts
        assert len(G.rules) == 4

    def test_positive_body_outside_set_dropped(self):
        P = parse_program("q(a). q(b). p(Xv) :- q(Xv). :- p(Xv), not q(Xv).")
        X = frozenset([parse_atom("q(a)"), parse_atom("q(b)"), parse_atom("p(b)")])
        G = ground_program(P, X)
        assert [r.text for r in G.rules] == [
            "q(a)", "q(b)", "p(a) :- q(a)", "p(b) :- q(b)", ":- p(b), not q(b)",
        ]

    def test_one_predicate_name_at_two_arities(self):
        """A body atom is joined only with the atoms of its own arity,
        though the join order counts every atom of the predicate name."""
        P = parse_program("q(a). q(b). q(a, b). q(b, c). q(c, c).\n"
                          "p(X, Y) :- q(X, Y). r(X) :- q(X). s(Y) :- q(X), q(X, Y).\n")
        X = frozenset(r.head for r in P.rules if r.is_fact)
        assert ground_program(P, X).rules == tuple(
            r for r in product_ground(P).rules if X.issuperset(r.body_pos)
        )
        index = GroundingIndex(P, X)
        assert [r.text for r in instantiate_for_head(index, parse_atom("s(c)"))] == [
            "s(c) :- q(b), q(b,c)",
        ]

    def test_unsafe_rule_rejected(self):
        P = parse_program("q(a). p(Xv) :- not q(Xv).")
        with pytest.raises(GroundingError, match="unsafe rule.*Xv"):
            ground_program(P, frozenset())

    def test_unsafe_head_variable_rejected(self):
        P = parse_program("q(a). p(Yv) :- q(Xv).")
        with pytest.raises(GroundingError, match="Yv"):
            ground_program(P, frozenset())

    def test_no_constants_with_variables(self):
        P = parse_program("p(Xv) :- q(Xv).")
        with pytest.raises(GroundingError, match="no constants"):
            ground_program(P, frozenset())

    def test_cardinality_local_variables_expand(self):
        P = parse_program("idx(1). idx(2). ok :- 1 {idx(Iv)} 2.")
        G = ground_program(P, P.herbrand_base)
        card_rule = [r for r in G.rules if r.body_card][0]
        members = sorted(a.text for a in card_rule.body_card[0].atoms)
        assert "idx(1)" in members and "idx(2)" in members
        assert Program(G.rules).is_ground

    def test_full_grounding_matches_product(self):
        """Joined against the Herbrand base, the grounder gives the
        rules of the product grounder, in the same order and with the
        same display, over 400 random non-ground programs and the
        fixtures."""
        rng = random.Random(20261017)
        programs = [random_nonground_program(rng) for _ in range(400)]
        programs += [parse_program(fixture_text(name + ".lp")) for name in FIXTURES]
        for P in programs:
            G = ground_program(P, P.herbrand_base)
            reference = product_ground(P)
            assert G.rules == reference.rules
            assert G.is_ground and Program(G.rules).is_ground
            assert [r.display for r in G] == [r.display for r in reference]

    def test_verification_agrees_with_product_grounding(self):
        """Verifying against the rules whose positive body lies in the
        interpretation gives the verdict and reason of verifying against
        the whole grounding, with atoms foreign to the program in some
        interpretations."""
        rng = random.Random(20261018)
        foreign = [Atom("u"), Atom("q0", (Term("z"),))]
        cases = []
        for _ in range(100):
            P = random_nonground_program(rng)
            atoms = sorted(P.herbrand_base) + foreign
            interps = answer_sets(product_ground(P))
            interps += [X | {a} for X in interps for a in foreign]
            interps += [
                frozenset(a for a in atoms if rng.random() < 0.5) for _ in range(20)
            ]
            cases += [(P, I) for I in interps]
        for _ in range(50):
            P = random_constraint_program(rng)
            atoms = sorted(P.herbrand_base) + foreign[:1]
            cases += [
                (P, frozenset(a for i, a in enumerate(atoms) if mask >> i & 1))
                for mask in range(2 ** len(atoms))
            ]
        assert any(verify_answer_set(product_ground(P), I)[0] for P, I in cases)
        for P, I in cases:
            assert verify_answer_set(ground_program(P, I), I) == verify_answer_set(
                product_ground(P), I
            )


class TestInstantiateForHead:
    def test_head_substitution(self):
        P = parse_program(
            'drug_gene("Epinephrine","ADRB1").\n'
            "what_be_genes(GN) :- drug_gene(DRG,GN)."
        )
        X = frozenset([parse_atom('drug_gene("Epinephrine","ADRB1")'),
                       parse_atom('what_be_genes("ADRB1")')])
        rs = instantiate_for_head(
            GroundingIndex(P, X), parse_atom('what_be_genes("ADRB1")')
        )
        assert [r.text for r in rs] == [
            'what_be_genes("ADRB1") :- drug_gene("Epinephrine","ADRB1")'
        ]

    def test_unknown_predicate(self):
        P = parse_program("a :- b.")
        index = GroundingIndex(P, frozenset())
        assert instantiate_for_head(index, parse_atom("z")) == ()

    def test_ground_program_head_match(self):
        P = parse_program("a :- b, c. a :- d. d. b :- c. c.")
        X = frozenset(P.herbrand_base)
        rs = instantiate_for_head(GroundingIndex(P, X), parse_atom("a"))
        assert sorted(r.text for r in rs) == ["a :- b, c", "a :- d"]

    def test_subset_of_full_grounding(self):
        P = parse_program(fixture_text("q8.lp"))
        X = parse_answer_set(fixture_text("q8.as"))
        G = product_ground(P)
        p = parse_atom('what_be_genes("CASK")')
        joined = set(instantiate_for_head(GroundingIndex(P, X), p))
        full = {r for r in G.rules if r.head == p}
        assert joined <= full

    def test_agrees_with_support_filter(self):
        P = parse_program(fixture_text("q8.lp"))
        X = parse_answer_set(fixture_text("q8.as"))
        G = product_ground(P)
        index = GroundingIndex(P, X)
        for p in X:
            got = {
                r
                for r in instantiate_for_head(index, p)
                if r in set(supporting_rules(G, p, X, frozenset([p])))
            }
            expected = set(supporting_rules(G, p, X, frozenset([p])))
            assert got == expected

    def test_matches_filtered_full_grounding(self):
        """Over random non-ground programs and random atom sets, some
        with a constant the program lacks, the join gives exactly the
        instances in the whole grounding whose positive body lies in
        the set: per head sorted by text, and in the order of the whole
        grounding for all rules."""
        rng = random.Random(20261017)
        for _ in range(200):
            P = random_nonground_program(rng)
            G = product_ground(P)
            base = sorted(G.herbrand_base)
            X = frozenset(a for a in base if rng.random() < 0.6)
            X |= {Atom("q0", (Term("z"),) * arity) for arity in (1, 2)}
            assert ground_program(P, X).rules == tuple(
                r for r in G.rules if X.issuperset(r.body_pos)
            )
            index = GroundingIndex(P, X)
            for p in sorted(X):
                expected = sorted(
                    (r for r in G.rules if r.head == p and X.issuperset(r.body_pos)),
                    key=lambda r: r.text,
                )
                assert list(instantiate_for_head(index, p)) == expected

    def test_duplicate_keeps_first_source_text(self):
        X = frozenset([parse_atom("p(a)"), parse_atom("q(a)")])
        for text, display in [
            ("p(V) :- q(V). p(a) :-  q(a). q(a).", "p(a) :- q(a)"),
            ("p(a) :-  q(a). p(V) :- q(V). q(a).", "p(a) :-  q(a)"),
        ]:
            index = GroundingIndex(parse_program(text), X)
            (r,) = instantiate_for_head(index, parse_atom("p(a)"))
            assert r.display == display

    def test_unsafe_rule_rejected(self):
        P = parse_program("q(a). p(Xv) :- not q(Xv).")
        with pytest.raises(GroundingError, match="unsafe rule.*Xv"):
            GroundingIndex(P, frozenset())

    def test_no_constants_with_variables(self):
        P = parse_program("p(Xv) :- q(Xv).")
        with pytest.raises(GroundingError, match="no constants"):
            GroundingIndex(P, frozenset())

    def test_non_ground_query_rejected(self):
        P = parse_program("q(a). p(Xv) :- q(Xv).")
        index = GroundingIndex(P, frozenset())
        with pytest.raises(GroundingError, match="non-ground query"):
            instantiate_for_head(index, parse_atom("p(Xv)"))


_CONSTANTS = ("a", "b", "1", '"s t"')
_PREDICATES = (("q0", 1), ("q1", 2), ("q2", 0), ("q3", 1))


def _atom_text(rng: random.Random, pool) -> str:
    name, arity = rng.choice(_PREDICATES)
    if not arity:
        return name
    return "%s(%s)" % (name, ",".join(rng.choice(pool) for _ in range(arity)))


def _rule_text(head: str, pos: list, neg: list) -> str:
    body = pos + ["not " + a for a in neg]
    return "%s :- %s." % (head, ", ".join(body)) if body else head + "."


def _respelled(statement: str) -> str:
    """The same rule spelled differently: no blanks, or a comment and
    extra blanks."""
    if " " not in statement.replace("not ", "").replace('"s t"', ""):
        return "  %s %% again" % statement.replace("(", " (", 1)
    return statement.replace(" :- ", ":-").replace(", ", ",")


def mixed_program(rng: random.Random) -> str:
    """Program text with many ground facts and ground rules among a few
    safe non-ground rules and constraints, in random order. Some
    statements come twice, spelled differently, and some ground
    instances of the non-ground rules are written out as ground rules."""
    statements = [
        _rule_text(_atom_text(rng, _CONSTANTS), [], [])
        for _ in range(rng.randint(20, 60))
    ]
    for _ in range(rng.randint(5, 25)):
        pos = [_atom_text(rng, _CONSTANTS) for _ in range(rng.randint(1, 2))]
        neg = [_atom_text(rng, _CONSTANTS) for _ in range(rng.randint(0, 1))]
        head = _atom_text(rng, _CONSTANTS) if rng.random() < 0.9 else ""
        statements.append(_rule_text(head, pos, neg))
    for _ in range(rng.randint(2, 6)):
        pos = ["q1(V,%s)" % rng.choice(_CONSTANTS + ("W",))]
        pos += [_atom_text(rng, _CONSTANTS + ("V", "W")) for _ in range(rng.randint(0, 1))]
        rng.shuffle(pos)
        bound = list(_CONSTANTS) + sorted(
            {t for a in pos for t in a[a.find("(") + 1:-1].split(",") if t in "VW"}
        )
        neg = [_atom_text(rng, bound) for _ in range(rng.randint(0, 1))]
        head = _atom_text(rng, bound) if rng.random() < 0.8 else ""
        rule = _rule_text(head, pos, neg)
        statements.append(rule)
        c = rng.choice(_CONSTANTS)
        statements.append(rule.replace("V", c).replace("W", c))
    statements += [_respelled(rng.choice(statements)) for _ in range(rng.randint(3, 8))]
    rng.shuffle(statements)
    return "\n".join(statements) + "\n"


def test_mixed_programs_match_the_product_grounding():
    """On programs that are mostly ground facts and ground rules, with
    non-ground rules, constraints and differently spelled duplicates,
    and on sets holding atoms with constants the program lacks in the
    predicates the rules join, the grounding and the instances of each
    atom of the set equal the whole grounding filtered by the set: same
    rules, same order, same source text kept."""
    rng = random.Random(20261019)
    foreign = ["q0(z)", "q1(z,a)", "q1(a,z)", "q3(z)", "q1(z,z)"]
    instances = 0
    for _ in range(120):
        P = parse_program(mixed_program(rng))
        assert not P.is_ground and any(r.is_ground and r.body_pos for r in P.rules)
        G = product_ground(P)
        base = sorted(G.herbrand_base)
        X = frozenset(a for a in base if rng.random() < 0.6)
        X |= {parse_atom(t) for t in foreign}
        expected = [r for r in G.rules if X.issuperset(r.body_pos)]
        got = ground_program(P, X).rules
        assert got == tuple(expected)
        assert [r.display for r in got] == [r.display for r in expected]
        index = GroundingIndex(P, X)
        for p in sorted(X):
            want = sorted((r for r in expected if r.head == p), key=lambda r: r.text)
            rs = instantiate_for_head(index, p)
            assert list(rs) == want
            assert [r.display for r in rs] == [r.display for r in want]
            instances += len(rs)
    assert instances > 1000


def test_unsafe_rule_after_many_facts_fails_explain(tmp_path, capsys):
    """The index checks every rule when it is built, so an unsafe rule
    after 10^3 facts fails ``explain`` although the query never reaches
    it."""
    facts = "".join("f(%d).\n" % i for i in range(1000))
    (tmp_path / "p.lp").write_text(facts + "a.\nb :- a.\np(X) :- not f(X).\n")
    (tmp_path / "p.as").write_text("a b\n")
    code = main(["explain", str(tmp_path / "p.lp"), str(tmp_path / "p.as"), "b"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        2, "", "error: unsafe rule 'p(X) :- not f(X)': variable X does not "
        "occur in a positive body atom\n",
    )


def test_a_query_joins_the_facts_only_by_lookup(monkeypatch):
    """Explaining a ``what_be_genes`` answer over a knowledge base builds
    one index, walks the answer set once, to group it, and neither
    splits off nor tables the ``gene_gene_biogrid`` facts: each rule
    binds ``GM`` from a smaller relation first and then looks the fact
    up."""
    program, answer_set, query = knowledge_base_text(10**4)
    P = parse_program(program)
    walks, indexes = [], []

    class Walked(frozenset):
        def __iter__(self):
            walks.append(None)
            return super().__iter__()

    class Recording(GroundingIndex):
        def __init__(self, *args):
            super().__init__(*args)
            indexes.append(self)

    X = Walked(parse_answer_set(answer_set, program=P))
    monkeypatch.setattr(engine, "GroundingIndex", Recording)
    assert not engine.shortest_explanation(P, X, parse_atom(query)).is_empty
    (index,) = indexes
    assert len(walks) == 1
    assert [k for k in index._relations if k[0] == "gene_gene_biogrid"] == []
    assert [k for k in index._tables if k[0] == "gene_gene_biogrid"] == []


class TestGroundingBudget:
    """One call of ``ground_program`` or ``instantiate_for_head`` builds
    at most ``MAX_GROUND_INSTANCES`` instances, cardinality members
    included, and one step of a join holds at most ``MAX_JOIN_WIDTH``
    partial substitutions."""

    # Over the Herbrand base: 9 instances, for (A, B).
    JOIN = "q(a). q(b). q(c).\np(A, B) :- q(A), q(B).\n"
    # 3 instances, for A, and 3 members of {r(A, X)} in each.
    CARD = "q(a). q(b). s(c).\np(A) :- q(A), 1 {r(A, X)}.\n"
    # Against its facts: wide in every order, as both atoms have both
    # variables unbound at first. 5 substitutions for (A, B), then 3
    # instances, the pairs whose reverse is there too.
    MUTUAL = "q(a, b). q(b, a). q(a, c). q(b, c). q(c, c).\np(A) :- q(A, B), q(B, A).\n"
    # Against its facts: wide only left to right, 3 substitutions for A,
    # then 9 for (A, B). The ordered join takes s(B) first, the smallest
    # relation: 1 substitution for B, 1 once q(B) is looked up, then 3.
    WIDE = "q(a). q(b). q(c). s(c).\np(A) :- q(A), q(B), s(B).\n"

    @pytest.mark.parametrize("program, spent", [(JOIN, 9), (CARD, 12)], ids=["join", "card"])
    def test_program_at_the_budget_grounds(self, monkeypatch, program, spent):
        P = parse_program(program)
        monkeypatch.setattr(ground, "MAX_GROUND_INSTANCES", spent)
        G = ground_program(P, P.herbrand_base)
        assert G == product_ground(P).deduplicated()
        monkeypatch.setattr(ground, "MAX_GROUND_INSTANCES", spent - 1)
        with pytest.raises(GroundingError, match="^cap exceeded: more than %d ground instances$"
                           % (spent - 1)):
            ground_program(P, P.herbrand_base)

    def test_join_at_the_width_grounds(self, monkeypatch):
        P = parse_program(self.MUTUAL)
        X = frozenset(r.head for r in P.rules if r.is_fact)
        monkeypatch.setattr(ground, "MAX_GROUND_INSTANCES", 3)
        monkeypatch.setattr(ground, "MAX_JOIN_WIDTH", 5)
        assert [str(r) for r in ground_program(P, X).rules[5:]] == [
            "p(a) :- q(a,b), q(b,a)", "p(b) :- q(b,a), q(a,b)", "p(c) :- q(c,c), q(c,c)",
        ]
        monkeypatch.setattr(ground, "MAX_JOIN_WIDTH", 4)
        with pytest.raises(GroundingError, match="^cap exceeded: more than 4 partial "
                           "substitutions in one join$"):
            ground_program(P, X)

    def test_width_is_per_join_step_not_per_program(self, monkeypatch):
        # Each of three rules joins its single body atom over every
        # gene_gene_biogrid fact: 3n substitutions over the program, but
        # never more than n at one step.
        n = 500
        facts = "".join('gene_gene_biogrid("G%d","G%d").\n' % (i + 1, i) for i in range(n))
        rules = ("interacts(GN) :- gene_gene_biogrid(GN,GM).\n"
                 "interacted(GM) :- gene_gene_biogrid(GN,GM).\n"
                 "gene_gene(GM,GN) :- gene_gene_biogrid(GN,GM).\n")
        P = parse_program(facts + rules)
        X = frozenset(r.head for r in P.rules if r.is_fact)
        monkeypatch.setattr(ground, "MAX_JOIN_WIDTH", n)
        G = ground_program(P, X)
        assert len(G) == 4 * n
        monkeypatch.setattr(ground, "MAX_JOIN_WIDTH", n - 1)
        with pytest.raises(GroundingError, match="more than %d partial" % (n - 1)):
            ground_program(P, X)

    def test_body_wide_only_left_to_right_grounds_under_the_width(self, monkeypatch):
        P = parse_program(self.WIDE)
        X = frozenset(r.head for r in P.rules if r.is_fact)
        monkeypatch.setattr(ground, "MAX_JOIN_WIDTH", 3)
        assert [str(r) for r in ground_program(P, X).rules[4:]] == [
            "p(%s) :- q(%s), q(c), s(c)" % (a, a) for a in "abc"
        ]
        monkeypatch.setattr(ground, "_join", reference_join)
        with pytest.raises(GroundingError, match="more than 3 partial"):
            ground_program(P, X)

    def test_guarded_body_joins_no_cross_product(self, monkeypatch):
        """Once ``node(X)`` binds ``X`` in ``r(X,Y) :- edge(X,Y),
        node(X), node(Y)``, ``edge(X,Y)`` is joined before ``node(Y)``,
        which alone would be a cross product of 1,001 nodes with 1,001,
        past the width. No step holds more than the 2,000 edges, and the
        grounding is the left-to-right one."""
        program, answer_set = guard_text(1001, 2000, seed=1)
        P = parse_program(program)
        X = parse_answer_set(answer_set, program=P)
        assert 1001**2 > ground.MAX_JOIN_WIDTH
        G = ground_program(P, X)
        assert len(G) == 1001 + 2 * 2000
        monkeypatch.setattr(ground, "MAX_JOIN_WIDTH", 2000)
        assert ground_program(P, X) == G
        monkeypatch.undo()
        monkeypatch.setattr(ground, "_join", reference_join)
        assert ground_program(P, X) == G

    def test_budget_is_per_query(self, monkeypatch):
        P = parse_program(self.JOIN + "r(A) :- q(A), q(B).\n")
        index = GroundingIndex(P, P.herbrand_base)
        # Each query builds 3 instances, one for each B.
        monkeypatch.setattr(ground, "MAX_GROUND_INSTANCES", 3)
        for a in "abcabc":
            assert len(instantiate_for_head(index, parse_atom("r(%s)" % a))) == 3
        monkeypatch.setattr(ground, "MAX_GROUND_INSTANCES", 2)
        with pytest.raises(GroundingError, match="more than 2 ground"):
            instantiate_for_head(index, parse_atom("r(a)"))

    def test_ground_facts_and_rules_spend_nothing(self, monkeypatch):
        P = parse_program("".join("q(%d).\n" % i for i in range(50)) + "p :- q(1), q(2).\n")
        monkeypatch.setattr(ground, "MAX_GROUND_INSTANCES", 0)
        assert len(ground_program(P, P.herbrand_base)) == 51

import random

import pytest

from aspexplain.model import Atom
from aspexplain.parser import parse_answer_set, parse_program
from aspexplain.wellfounded import (
    PartialInterpretation,
    assumptions,
    immediate_consequence,
    negative_reduct,
    nant,
    tentative_assumptions,
    well_founded_model,
)

from conftest import answer_sets, random_program


def atom_set(text: str) -> frozenset[Atom]:
    return parse_answer_set(text).atoms


class TestImmediateConsequence:
    def test_direct_application(self):
        P = parse_program("b :- c. c.")
        got = immediate_consequence(P, frozenset(), atom_set("c"))
        assert got == atom_set("b c")

    def test_facts_always_fire(self):
        P = parse_program("a :- b. c.")
        got = immediate_consequence(P, frozenset(), frozenset())
        assert got == atom_set("c")

    def test_blocked_by_v(self):
        P = parse_program("a :- b, not d.")
        got = immediate_consequence(P, atom_set("d"), atom_set("b"))
        assert got == frozenset()

    @pytest.mark.parametrize("call", [
        lambda P: immediate_consequence(P, frozenset(), frozenset()),
        well_founded_model,
        lambda P: tentative_assumptions(P, frozenset()),
        lambda P: assumptions(P, frozenset()),
    ], ids=["immediate_consequence", "well_founded_model",
            "tentative_assumptions", "assumptions"])
    def test_rejects_cardinality(self, call):
        P = parse_program("a :- 1 {b; c} 2.")
        with pytest.raises(ValueError, match="normal programs only"):
            call(P)


class TestWellFoundedModel:
    def test_two_cycle_program(self):
        P = parse_program("a :- b, not d. d :- b, not a. b :- c. c.")
        wf = well_founded_model(P)
        assert wf == PartialInterpretation(atom_set("b c"), frozenset())

    def test_single_fact(self):
        P = parse_program("c.")
        wf = well_founded_model(P)
        assert wf == PartialInterpretation(atom_set("c"), frozenset())

    def test_guessing_program(self):
        P = parse_program("c :- a, not d. d :- a, not c. a :- b. b.")
        wf = well_founded_model(P)
        assert wf == PartialInterpretation(atom_set("a b"), frozenset())

    def test_negation_free_is_least_model(self):
        rng = random.Random(11)
        for _ in range(30):
            P = random_program(rng, max_atoms=6, max_rules=9,
                               allow_negation=False)
            wf = well_founded_model(P)
            (M,) = answer_sets(P)
            assert wf.plus == M
            assert wf.minus == P.herbrand_base - M

    def test_approximates_every_answer_set(self):
        rng = random.Random(13)
        for _ in range(60):
            P = random_program(rng, max_atoms=6, max_rules=9)
            wf = well_founded_model(P)
            for M in answer_sets(P):
                assert wf.plus <= M
                assert wf.minus <= P.herbrand_base - M


class TestTentativeAssumptions:
    GUESS = "c :- a, not d. d :- a, not c. a :- b. b."

    def test_guessing_example(self):
        P = parse_program(self.GUESS)
        assert tentative_assumptions(P, atom_set("a b c")) == atom_set("d")

    def test_negation_free(self):
        P = parse_program("a :- b. b.")
        assert nant(P) == frozenset()
        assert tentative_assumptions(P, atom_set("a b")) == frozenset()

    def test_determined_by_wf(self):
        P = parse_program("p :- not q.")
        assert tentative_assumptions(P, atom_set("p")) == frozenset()


class TestNegativeReduct:
    def test_drops_head_rules(self):
        P = parse_program("c :- a, not d. d :- a, not c. a :- b. b.")
        R = negative_reduct(P, atom_set("d"))
        assert [r.text for r in R.rules] == ["c :- a, not d", "a :- b", "b"]

    def test_empty_u(self):
        P = parse_program("a :- b. b.")
        assert negative_reduct(P, frozenset()) == P

    def test_all_heads(self):
        P = parse_program("a :- b. b.")
        assert negative_reduct(P, atom_set("a b")).rules == ()


class TestAssumptions:
    def test_guessing_example(self):
        P = parse_program("c :- a, not d. d :- a, not c. a :- b. b.")
        assert atom_set("d") in assumptions(P, atom_set("a b c"))

    def test_negation_free(self):
        P = parse_program("a :- b. b.")
        assert assumptions(P, atom_set("a b")) == frozenset([frozenset()])

    def test_determined_single_rule(self):
        P = parse_program("p :- not q.")
        assert assumptions(P, atom_set("p")) == frozenset([frozenset()])

    def test_never_empty_on_answer_sets(self):
        rng = random.Random(17)
        for _ in range(60):
            P = random_program(rng, max_atoms=6, max_rules=9)
            for M in answer_sets(P):
                assert assumptions(P, M)

"""End-to-end acceptance checks for the explanation toolkit.

Each test covers one numbered criterion; a single PASS/FAIL line per
criterion is printed in the terminal summary (see conftest).
"""
import functools
import random
import time

from aspexplain.engine import (
    create_tree,
    distance,
    enumerate_explanations,
    k_different,
    shortest_explanation,
)
from aspexplain.justify import (
    TOP,
    AnnotatedAtom,
    EGraph,
    explanation_to_justification,
    is_offline_justification,
    justification_to_explanation,
)
from aspexplain.model import reduct
from aspexplain.nl import render_nl
from aspexplain.parser import (
    parse_answer_set,
    parse_atom,
    parse_lookup,
    parse_program,
)
from aspexplain.wellfounded import (
    PartialInterpretation,
    assumptions,
    tentative_assumptions,
    well_founded_model,
)

import conftest
from conftest import (
    answer_sets, explanation_tree_of, fixture_text, product_ground, random_program,
    validate_andor_tree,
)


def criterion(number: int, title: str):
    """Print one PASS/FAIL line per criterion, then let pytest record
    the outcome as usual."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(number, title, False)
                raise
            _report(number, title, True)

        return wrapper

    return deco


def _report(number: int, title: str, passed: bool) -> None:
    conftest.ACCEPTANCE_RESULTS.append((number, title, passed))


def _best_time(fn, runs: int = 5) -> float:
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def load(stem: str):
    P = parse_program(fixture_text(stem + ".lp"))
    X = parse_answer_set(fixture_text(stem + ".as"))
    return P, X


@criterion(1, "and-or tree for the five-rule example: 11 vertices, < 1 ms")
def test_criterion_01_andor_tree():
    P, X = load("example41")
    p = parse_atom("a")
    T = create_tree(P, X, p)
    assert len(T) == 11
    assert sum(T.is_atom_vertex(v) for v in T.preorder()) == 5
    assert sum(T.is_rule_vertex(v) for v in T.preorder()) == 6
    assert T.labels[T.root] == p
    kids = T.child_ids(T.root)
    assert len(kids) == 2 and all(T.is_rule_vertex(v) for v in kids)
    assert _best_time(lambda: create_tree(P, X, p)) < 1e-3


@criterion(2, "shortest explanation for the five-rule example: "
              "size 2 {a :- d, d}, < 1 ms")
def test_criterion_02_shortest():
    P, X = load("example41")
    p = parse_atom("a")
    e = shortest_explanation(P, X, p)
    assert e.size == 2
    assert {e.labels[v].text for v in e.preorder()} == {"a :- d", "d"}
    assert _best_time(lambda: shortest_explanation(P, X, p)) < 1e-3


@criterion(3, "negation and cardinality: blocked rule excluded, "
              "shortest rooted at the cardinality rule")
def test_criterion_03_negation_cardinality():
    P, X = load("example44")
    T = create_tree(P, X, parse_atom("a"))
    texts = {T.labels[v].text for v in T.preorder() if T.is_rule_vertex(v)}
    assert "a :- b, c, not e" in texts
    assert "a :- d, 1 {b; c} 2" in texts
    assert "a :- d, not b" not in texts
    e = shortest_explanation(P, X, parse_atom("a"))
    assert e.size == 2
    assert e.labels[e.root].text == "a :- d, 1 {b; c} 2"


@criterion(4, "k most-different explanations: sizes 4 then 2, "
              "distances 4 then 2, early stop at 2")
def test_criterion_04_k_different():
    P, X = load("example41")
    p = parse_atom("a")
    first, second = k_different(P, X, p, 2)
    assert first.size == 4 and second.size == 2
    assert distance(frozenset(), first) == 4
    assert distance(first.rule_vertex_ids, second) == 2
    assert len(k_different(P, X, p, 5)) == 2
    oracle = enumerate_explanations(P, X, p)
    assert distance(frozenset(), first) == max(
        distance(frozenset(), o) for o in oracle
    )
    assert {e.rule_vertex_ids for e in (first, second)} == {
        o.rule_vertex_ids for o in oracle
    }


@criterion(5, "k = 1 maximizes the difference objective and "
              "returns a longest explanation")
def test_criterion_05_longest():
    P, X = load("example41")
    p = parse_atom("a")
    (e,) = k_different(P, X, p, 1)
    assert e.size == 4
    assert e.size == max(o.size for o in enumerate_explanations(P, X, p))


@criterion(6, "gene-chain miniature: 7-rule shortest, larger alternative, "
              "natural-language rendering, < 10 ms")
def test_criterion_06_gene_chain():
    P, X = load("q8")
    p = parse_atom('what_be_genes("CASK")')
    e = shortest_explanation(P, X, p)
    assert e.size == 7
    all_exps = enumerate_explanations(P, X, p)
    bigger = [o for o in all_exps if o.size > e.size]
    assert bigger
    assert any(
        "DLG1" in o.labels[v].text for o in bigger for v in o.preorder()
    )
    table = parse_lookup(fixture_text("q8.lookup"))
    expected = (
        "The gene CASK is an answer.\n"
        "  The distance of the gene CASK from the start gene is 2.\n"
        "    The gene CASK interacts with the gene DLG4 according to"
        " BioGRID.\n"
        "    The distance of the gene DLG4 from the start gene is 1.\n"
        "      The gene DLG4 interacts with the gene ADRB1 according to"
        " BioGRID.\n"
        "      The gene ADRB1 is the start gene.\n"
        "    The maximum chain length is 3.\n"
    )
    assert render_nl(e, table) == expected
    assert _best_time(lambda: shortest_explanation(P, X, p)) < 1e-2


@criterion(7, "well-founded models, tentative assumptions, and assumptions")
def test_criterion_07_well_founded():
    P1 = parse_program("a :- b, not d. d :- b, not a. b :- c. c.")
    bc = parse_answer_set("b c").atoms
    assert well_founded_model(P1) == PartialInterpretation(bc, frozenset())
    P2 = parse_program("c :- a, not d. d :- a, not c. a :- b. b.")
    ab = parse_answer_set("a b").atoms
    assert well_founded_model(P2) == PartialInterpretation(ab, frozenset())
    M = parse_answer_set("a b c").atoms
    d = frozenset([parse_atom("d")])
    assert tentative_assumptions(P2, M) == d
    assert d in assumptions(P2, M)


@criterion(8, "conversions between justifications and explanation trees")
def test_criterion_08_conversions():
    # justification -> explanation tree
    P, X = load("example41")
    p = parse_atom("a")
    a, b, c = (AnnotatedAtom(parse_atom(n), "+") for n in "abc")
    G = EGraph(
        frozenset([a, b, c, TOP]),
        frozenset([(a, b, "+"), (a, c, "+"), (b, c, "+"), (c, TOP, "+")]),
    )
    T = justification_to_explanation(X, p, G)
    assert [T.labels[v].text for v in T.preorder()] == [
        "a", "a :- b, c", "b", "b :- c", "c", "c", "c", "c",
    ]
    # explanation tree -> justification
    P3, X3 = load("threerule")
    p3 = parse_atom("a")
    T3 = create_tree(P3, X3, p3)
    G3 = explanation_to_justification(P3, X3, p3, T3)
    assert G3.nodes == frozenset([a, b, c, TOP])
    assert G3.edges == frozenset(
        [(a, b, "+"), (a, c, "+"), (b, TOP, "+"), (c, TOP, "+")]
    )
    assert is_offline_justification(
        reduct(P3, X3.atoms), G3, a, X3, frozenset()
    )


@criterion(9, "oracle property suite over 500 random programs in < 60 s")
def test_criterion_09_property_suite():
    start = time.perf_counter()
    rng = random.Random(20260823)
    checked = 0
    for _ in range(500):
        P = random_program(rng)
        for X in answer_sets(P):
            for p in sorted(X):
                T = create_tree(P, X, p)
                assert not T.is_empty
                validate_andor_tree(T, P, X, p)
                oracle = enumerate_explanations(P, X, p)
                e = shortest_explanation(P, X, p)
                assert e.size == min(o.size for o in oracle)
                R = frozenset()
                for cand in k_different(P, X, p, 3):
                    best = max(distance(R, o) for o in oracle)
                    assert distance(R, cand) == best
                    R = R | cand.rule_vertex_ids
                assert create_tree(product_ground(P), X, p) == T
                checked += 1
    assert checked
    assert time.perf_counter() - start < 60


def _shape(T, v):
    """Canonical form for label isomorphism: atom vertices by atom text,
    rule vertices by head and positive body (the round trip targets the
    reduct, so negative bodies are out of scope)."""
    kids = sorted(_shape(T, c) for c in T.child_ids(v))
    label = T.labels[v]
    if T.is_atom_vertex(v):
        return ("atom", label.text, kids)
    return ("rule", label.head.text,
            tuple(sorted(x.text for x in label.body_pos)), kids)


@criterion(10, "round trip through justifications on 100 unique-label "
               "explanation trees")
def test_criterion_10_round_trip():
    rng = random.Random(7)
    done = 0
    while done < 100:
        P = random_program(rng)
        for X in answer_sets(P):
            for p in sorted(X):
                for e in enumerate_explanations(P, X, p):
                    T = explanation_tree_of(e, e.andor)
                    labels = {
                        (T.is_rule_vertex(v), T.labels[v].text)
                        for v in T.preorder()
                    }
                    if len(labels) < len(T):
                        continue
                    G = explanation_to_justification(P, X, p, T)
                    T2 = justification_to_explanation(X, p, G)
                    assert _shape(T2, T2.root) == _shape(T, T.root)
                    done += 1
    assert done >= 100

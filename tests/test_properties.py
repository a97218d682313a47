"""Oracle-based property suite over randomly generated small programs.

Each case pairs a normal program with one of its answer sets (found by
exhaustive search) and a member atom; the fast algorithms are checked
against the brute-force explanation enumerator, the per-atom grounder
against the whole ground program, and the tree builder, which copies
repeated subtrees, against one that expands every vertex.
"""
import math
import random

import pytest

from aspexplain import engine, ground
from aspexplain.engine import (
    calculate_difference,
    calculate_weight,
    create_tree,
    distance,
    enumerate_explanations,
    k_different,
    shortest_explanation,
)
from aspexplain.ground import GroundingIndex, ground_program, instantiate_for_head
from aspexplain.justify import (
    AnnotatedAtom, EGraph, explanation_to_justification, is_offline_justification,
    justification_to_explanation,
)
from aspexplain.model import Atom, AtomSet, Program, Rule, least_model, reduct, supports
from aspexplain.parser import parse_answer_set, parse_program

from conftest import (
    answer_sets, card_answer_sets, complete_text, copied_ranges, dropped_copy_text,
    explanation_tree_of, fixture_text, guard_text, knowledge_base_text, product_ground,
    random_card_program, random_nonground_program, random_program, reference_create_tree,
    reference_fold, reference_join, reference_k_different, validate_andor_tree,
)

N_PROGRAMS = 500
N_NONGROUND = 400
N_CARD = 300
FIXTURES = ("example41", "example44", "threerule", "q8")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260823)
    cases = []
    n = 0
    while n < N_PROGRAMS:
        P = random_program(rng)
        n += 1
        for X in answer_sets(P):
            for p in sorted(X):
                cases.append((P, X, p))
    assert cases
    return cases


@pytest.fixture(scope="module")
def nonground_corpus():
    rng = random.Random(20261017)
    cases = []
    for _ in range(N_NONGROUND):
        P = random_nonground_program(rng)
        for X in answer_sets(product_ground(P)):
            for p in sorted(X):
                cases.append((P, X, p))
    assert cases
    return cases


@pytest.fixture(scope="module")
def card_corpus():
    rng = random.Random(20261020)
    cases = []
    for _ in range(N_CARD):
        P = random_card_program(rng)
        cases += [(P, X) for X in card_answer_sets(product_ground(P))]
    assert len(cases) > 200
    return cases


@pytest.fixture(scope="module")
def fixture_cases():
    cases = []
    for name in FIXTURES:
        P = parse_program(fixture_text(name + ".lp"))
        X = parse_answer_set(fixture_text(name + ".as"))
        cases += [(P, X, p) for p in sorted(X)]
    return cases


@pytest.fixture(scope="module")
def enumerated(corpus):
    out = []
    for P, X, p in corpus:
        out.append((P, X, p, enumerate_explanations(P, X, p)))
    return out


def test_andor_tree_nonempty_and_wellformed(corpus):
    for P, X, p in corpus:
        T = create_tree(P, X, p)
        assert not T.is_empty
        validate_andor_tree(T, P, X, p)


def test_andor_tree_ids_are_preorder(corpus, fixture_cases):
    """Vertex ids count up from 0 in preorder, with no gap left where an
    incomplete subtree was dropped, and ``preorder`` is the walk from
    the root."""
    for P, X, p in corpus + fixture_cases:
        T = create_tree(P, X, p)
        assert T.preorder() == T.preorder_from(T.root) == tuple(range(len(T)))


def check_fold_order(T):
    """The ids of the stored child entries of ``T`` and of its copied
    ranges hold each vertex exactly once. Each copied range lies after
    its source, with its source's labels and shape, and in the order the
    entries were stored, each built vertex comes after every vertex its
    children resolve to; the folds from the root that follow that order
    equal a recursive fold."""
    built = list(dict.keys(T.children))
    source = {}  # each copied id, the built id it resolves to
    for v, s, e in copied_ranges(T):
        assert 0 <= s < e <= v
        for u in range(s, e):
            assert T.labels[u + v - s] == T.labels[u]
            assert T.children[u + v - s] == tuple(c + v - s for c in T.children[u])
            source[u + v - s] = source.get(u, u)
    position = {u: i for i, u in enumerate(built)}
    for u in built:
        assert all(position[source.get(c, c)] < position[u] for c in T.children[u])
    done = [False] * len(T)
    for u in built + list(source):
        assert 0 <= u < len(T) and not done[u]
        done[u] = True
    assert all(done)
    R = frozenset(u for u in T.labels if T.is_rule_vertex(u) and u % 2)
    assert calculate_weight(T, T.root) == reference_fold(
        T, T.root, min, lambda u, values: 1 + sum(values)
    )
    for seen in (frozenset(), R):
        assert calculate_difference(T, T.root, seen) == reference_fold(
            T, T.root, max, lambda u, values: (u not in seen) + sum(values)
        )
    count = reference_fold(T, T.root, sum, lambda u, values: math.prod(values))
    assert engine._tree_count(T) == count[T.root]


def test_completion_order_is_children_first_and_copies_after_sources(
    corpus, nonground_corpus, fixture_cases
):
    """The order in which :func:`create_tree` stores child entries, with
    its copied ranges, covers the tree, drops included: on the corpora,
    every fixture atom, every atom of ``K_3``-``K_8`` and a program that
    copies into dropped subtrees."""
    cases = corpus + nonground_corpus + fixture_cases
    for text in [complete_text(n) for n in range(3, 9)] + [dropped_copy_text()]:
        P, X = parse_program(text[0]), parse_answer_set(text[1])
        cases += [(P, X, p) for p in sorted(X)]
    copied = 0
    for P, X, p in cases:
        T = create_tree(P, X, p)
        check_fold_order(T)
        copied += bool(copied_ranges(T))
    assert copied > 50


def test_shortest_matches_oracle_minimum(enumerated):
    for P, X, p, oracle in enumerated:
        e = shortest_explanation(P, X, p)
        assert e.size == min(o.size for o in oracle)


def test_k_different_greedy_maximality(enumerated):
    for P, X, p, oracle in enumerated:
        ks = k_different(P, X, p, 3)
        R = frozenset()
        for e in ks:
            best = max(distance(R, o) for o in oracle)
            assert distance(R, e) == best
            R = R | e.rule_vertex_ids
        ids = [e.rule_vertex_ids for e in ks]
        assert len(set(ids)) == len(ids)


def _justification_or_error(P, X, p, T):
    try:
        return explanation_to_justification(P, X, p, T)
    except ValueError as exc:
        return str(exc)


def test_explanation_and_its_tree_give_one_justification(corpus):
    """An :class:`Explanation` and the explanation tree it stands for
    convert to the same justification, or fail with the same message."""
    converted = failed = 0
    for P, X, p in corpus:
        for e in k_different(P, X, p, 3):
            got = _justification_or_error(P, X, p, e)
            assert got == _justification_or_error(P, X, p, explanation_tree_of(e, e.andor))
            converted += isinstance(got, EGraph)
            failed += isinstance(got, str)
    assert converted > 840 and failed < 5  # 847 and 1 (atom p1 heads two rules)


def _canonical(T, v):
    """Criterion 10's shape with a rule's positive body and the children
    of each vertex read as sets: a justification has one edge per
    literal, so ``q :- p, p`` comes back as ``q :- p``."""
    kids = tuple(sorted({_canonical(T, c) for c in T.child_ids(v)}))
    label = T.labels[v]
    if T.is_atom_vertex(v):
        return ("atom", label.text, kids)
    return ("rule", label.head.text,
            tuple(sorted({x.text for x in label.body_pos})), kids)


def test_explanations_round_trip_through_justifications(corpus, nonground_corpus):
    """Every k-different explanation (k = 3) whose atoms each head one
    rule converts to an offline justification of its atom in the reduct
    of the ground program, with no atom assumed, and back to its own
    tree; every other one is refused for an atom heading two rules."""
    converted = refused = 0
    for P, X, p in corpus + nonground_corpus:
        G = ground_program(P, X)
        R = reduct(G, X)
        for e in k_different(P, X, p, 3):
            T = explanation_tree_of(e, e.andor)
            try:
                J = explanation_to_justification(G, X, p, e)
            except ValueError as exc:
                assert str(exc).endswith(" heads two rules"), exc
                refused += 1
                continue
            assert is_offline_justification(R, J, AnnotatedAtom(p, "+"), X, frozenset())
            T2 = justification_to_explanation(X, p, J)
            assert _canonical(T2, T2.root) == _canonical(T, T.root)
            converted += 1
    assert converted > 1700 and refused < 10  # 1,773 and 1


@pytest.mark.parametrize("k", (1, 2, 3, 5, 10))
def test_k_different_matches_a_fold_per_round(k, corpus, nonground_corpus, fixture_cases):
    """Folding the difference once and re-folding only the vertices
    above each explanation taken picks the explanations, ids included,
    and the count that a whole-tree fold per round picks."""
    cases = corpus + nonground_corpus + fixture_cases
    for n in range(3, 8):
        program, answer_set = complete_text(n)
        P, X = parse_program(program), parse_answer_set(answer_set)
        cases += [(P, X, p) for p in sorted(X)]
    stopped_early = 0
    for P, X, p in cases:
        expected = reference_k_different(P, X, p, k)
        assert k_different(P, X, p, k) == expected
        stopped_early += 0 < len(expected) < k
    assert k == 1 or stopped_early > 100


def test_eager_and_ondemand_agree(corpus, nonground_corpus, fixture_cases):
    """Grounding per atom gives the same and-or trees, rule displays and
    shortest explanations as the whole ground program, built by the
    reference product grounder."""
    for P, X, p in corpus + nonground_corpus + fixture_cases:
        G = product_ground(P)
        T = create_tree(P, X, p)
        reference = create_tree(G, X, p)
        assert T == reference
        assert [r.display for r in T.labels.values() if isinstance(r, Rule)] == [
            r.display for r in reference.labels.values() if isinstance(r, Rule)
        ]
        validate_andor_tree(T, G, X, p)
        assert shortest_explanation(P, X, p) == shortest_explanation(G, X, p)


def _in_x(r: Rule, X: AtomSet) -> tuple:
    """``r`` with the members of each cardinality expression cut to
    those in ``X``, the only ones its bounds count."""
    cards = tuple((c.lower, c.upper, X.intersection(c.atoms)) for c in r.body_card)
    return r.head, r.body_pos, r.body_neg, cards


def test_cardinality_members_are_looked_up_in_the_answer_set(card_corpus):
    """On random programs with variables local to cardinality bodies and
    their answer sets ``X``: each instance :func:`ground_program` and
    :func:`instantiate_for_head` give is the product grounding's with
    the members a local variable expands to outside ``X`` dropped. Which
    instances support each atom, and the size of its shortest
    explanation, are those of the product grounding that keeps them."""
    shown = lambda rules: [(r.text, r.display) for r in rules]
    dropped = written_outside = 0
    for P, X in card_corpus:
        product = product_ground(P)
        full = [r for r in product.rules if X.issuperset(r.body_pos)]
        reference = [r for r in product_ground(P, X).rules if X.issuperset(r.body_pos)]
        G = ground_program(P, X)
        assert shown(G) == shown(reference)
        index = GroundingIndex(P, X)
        for p in sorted(X):
            expected = sorted((r for r in reference if r.head == p), key=lambda r: r.text)
            assert shown(instantiate_for_head(index, p)) == shown(expected)
            for Z in [frozenset()] + [frozenset([q]) for q in sorted(X)[:2]]:
                held = lambda rules: {_in_x(r, X) for r in rules if supports(r, p, X, Z)}
                assert held(G.rules) == held(full)
            assert shortest_explanation(P, X, p).size == shortest_explanation(product, X, p).size
        members = lambda rules: sum(len(c.atoms) for r in rules for c in r.body_card)
        dropped += members(full) - members(G.rules)
        written_outside += any(
            a.is_ground and a not in X for r in P.rules for c in r.body_card for a in c.atoms
        )
    assert dropped > 200 and written_outside > 80  # 275 and 109


def _grounding(P: Program, X) -> tuple[list, list]:
    """The text and display of each rule :func:`ground_program` gives,
    in order, and of each rule :func:`instantiate_for_head` gives for
    each atom of ``X``."""
    shown = lambda rules: [(r.text, r.display) for r in rules]
    index = GroundingIndex(P, X)
    return shown(ground_program(P, X)), [shown(instantiate_for_head(index, p)) for p in sorted(X)]


def test_ordered_join_matches_the_left_to_right_reference(
    monkeypatch, corpus, nonground_corpus, fixture_cases
):
    """Joining the most bound body atom first grounds the rules, and the
    rules of each atom, that the left-to-right join grounds, in the same
    order with the same source text kept: on the property corpora, the
    fixtures, guarded bodies over 40 small random graphs and the CI
    generator's knowledge base over 10^4 facts."""
    texts = [knowledge_base_text(10**4)[:2]]
    rng = random.Random(20261020)
    for _ in range(40):
        nodes = rng.randint(1, 8)
        edges, seed = rng.randint(1, nodes * nodes), rng.randrange(10**6)
        texts.append(guard_text(nodes, edges, seed, paths=True))
    pairs = dict.fromkeys((P, X) for P, X, _ in corpus + nonground_corpus + fixture_cases)
    for program, answer_set in texts:
        P = parse_program(program)
        pairs[P, parse_answer_set(answer_set, program=P)] = None
    assert len(pairs) > 540
    for P, X in pairs:
        got = _grounding(P, X)
        with monkeypatch.context() as m:
            m.setattr(ground, "_join", reference_join)
            assert got == _grounding(P, X)


def dense_program(rng: random.Random) -> Program:
    """A positive program over 10 to 12 atoms: two facts and 20 to 30
    rules of 2 or 3 body atoms each. Its atoms recur in many bodies, so
    its trees repeat subtrees, and a subtree completed under one body
    atom is often dropped with its rule when a later body atom fails."""
    atoms = [Atom("p%d" % i) for i in range(rng.randint(10, 12))]
    rules = [Rule(a) for a in rng.sample(atoms, 2)]
    for _ in range(rng.randint(20, 30)):
        head = rng.choice(atoms)
        body = rng.sample([a for a in atoms if a != head], rng.randint(2, 3))
        rules.append(Rule(head, tuple(body)))
    return Program(tuple(rules)).deduplicated()


def test_create_tree_matches_the_reference_builder(
    corpus, nonground_corpus, fixture_cases
):
    """Copying repeated subtrees gives the tree that expanding every
    vertex gives."""
    for P, X, p in corpus + nonground_corpus + fixture_cases:
        assert create_tree(P, X, p) == reference_create_tree(P, X, p)


def test_trees_store_only_the_vertices_built(corpus):
    """:func:`create_tree` stores labels and child ids at the same ids,
    none in a copied range, and read through its copies every vertex
    equals the reference builder's: on the property corpus and every
    atom of ``K_3``-``K_8``. On ``K_7`` it stores 391 of the 1,629
    vertices."""
    cases = list(corpus)
    for n in range(3, 9):
        program, answer_set = complete_text(n)
        P, X = parse_program(program), parse_answer_set(answer_set)
        cases += [(P, X, p) for p in sorted(X)]
    for P, X, p in cases:
        T = create_tree(P, X, p)
        built = set(dict.keys(T.children))
        copied = [u for v, s, e in copied_ranges(T) for u in range(v, v + e - s)]
        assert dict.keys(T.labels) == dict.keys(T.children) == built
        assert built.isdisjoint(copied) and len(built) + len(copied) == len(T)
        assert T == reference_create_tree(P, X, p)
    program, answer_set = complete_text(7)
    T = create_tree(parse_program(program), parse_answer_set(answer_set), Atom("p6"))
    assert (len(dict.keys(T.labels)), len(T)) == (391, 1629)


@pytest.mark.parametrize("n", range(4, 9))
def test_complete_graph_trees_match_the_reference_builder(n):
    program, answer_set = complete_text(n)
    P, X = parse_program(program), parse_answer_set(answer_set)
    for p in sorted(X):
        assert create_tree(P, X, p) == reference_create_tree(P, X, p)


def test_dense_program_trees_match_the_reference_builder():
    rng = random.Random(20261018)
    cases = 0
    for _ in range(300):
        P = dense_program(rng)
        X = least_model(P, frozenset())
        for p in sorted(X):
            assert create_tree(P, X, p) == reference_create_tree(P, X, p)
            cases += 1
    assert cases > 300


def test_rule_explananda_match_the_reference_builder():
    rng = random.Random(7)
    programs = [
        (parse_program(fixture_text(name + ".lp")),
         parse_answer_set(fixture_text(name + ".as")))
        for name in FIXTURES
    ]
    program, answer_set = complete_text(5)
    programs.append((parse_program(program), parse_answer_set(answer_set)))
    for _ in range(20):
        P = dense_program(rng)
        programs.append((P, least_model(P, frozenset())))
    cases = 0
    for P, X in programs:
        for r in P.rules:
            if r.is_ground:
                assert create_tree(P, X, r) == reference_create_tree(P, X, r)
                cases += 1
    assert cases > 500

import time

import pytest

from aspexplain import engine
from aspexplain.engine import create_tree, enumerate_explanations
from aspexplain.ground import ground_program
from aspexplain.justify import (
    ASSUME,
    BOT,
    TOP,
    AnnotatedAtom,
    EGraph,
    Literal,
    explanation_to_justification,
    is_offline_justification,
    justification_to_explanation,
    support_of,
)
from aspexplain.model import Rule, reduct
from aspexplain.parser import parse_answer_set, parse_atom, parse_program
from aspexplain.trees import Explanation, VertexLabeledTree

from conftest import (
    chain_text, explanation_tree_of, fixture_text, ladder_justification,
    validate_explanation_tree,
)


def ann(text: str, sign: str = "+") -> AnnotatedAtom:
    return AnnotatedAtom(parse_atom(text), sign)


@pytest.fixture
def ex41():
    P = parse_program(fixture_text("example41.lp"))
    X = parse_answer_set(fixture_text("example41.as"))
    return P, X


@pytest.fixture
def chain_justification():
    a, b, c = ann("a"), ann("b"), ann("c")
    return EGraph(
        frozenset([a, b, c, TOP]),
        frozenset([(a, b, "+"), (a, c, "+"), (b, c, "+"), (c, TOP, "+")]),
    )


class TestEGraph:
    def test_assumption_graph(self):
        a, b, cneg = ann("a"), ann("b"), ann("c", "-")
        G = EGraph(
            frozenset([a, b, cneg, ASSUME]),
            frozenset([(a, b, "+"), (a, cneg, "-"),
                       (b, ASSUME, "+"), (cneg, ASSUME, "-")]),
        )
        assert support_of(a, G) == frozenset(
            [Literal(parse_atom("b")), Literal(parse_atom("c"), negated=True)]
        )
        assert support_of(b, G) == ASSUME
        assert support_of(cneg, G) == ASSUME

    def test_atom_sink_rejected(self):
        a, b = ann("a"), ann("b")
        with pytest.raises(ValueError, match="sinks"):
            EGraph(frozenset([a, b]), frozenset([(a, b, "+")]))

    def test_positive_node_negative_assume_rejected(self):
        a = ann("a")
        with pytest.raises(ValueError, match="negative marker"):
            EGraph(frozenset([a, ASSUME]), frozenset([(a, ASSUME, "-")]))

    def test_negative_node_positive_top_rejected(self):
        a = ann("a", "-")
        with pytest.raises(ValueError, match="positive marker"):
            EGraph(frozenset([a, TOP]), frozenset([(a, TOP, "+")]))

    def test_marker_edge_must_be_only_edge(self):
        a, b = ann("a"), ann("b")
        with pytest.raises(ValueError, match="only out-edge"):
            EGraph(
                frozenset([a, b, TOP]),
                frozenset([(a, TOP, "+"), (a, b, "+"), (b, TOP, "+")]),
            )

    def test_out_edges_ordered_by_target(self):
        a, b, cneg, d = ann("a"), ann("b"), ann("c", "-"), ann("d")
        G = EGraph(
            frozenset([a, b, cneg, d, TOP, ASSUME]),
            frozenset([(a, d, "+"), (a, cneg, "-"), (a, b, "+"),
                       (b, TOP, "+"), (d, TOP, "+"), (cneg, ASSUME, "-")]),
        )
        assert G.out_edges(a) == ((a, b, "+"), (a, cneg, "-"), (a, d, "+"))
        assert G.out_edges(TOP) == ()

    def test_support_of_missing_node(self, chain_justification):
        with pytest.raises(ValueError, match="not in graph"):
            support_of(ann("z"), chain_justification)

    def test_support_to_top(self, chain_justification):
        assert support_of(ann("c"), chain_justification) == TOP


class TestIsOfflineJustification:
    def test_valid_justification(self, ex41, chain_justification):
        P, X = ex41
        assert is_offline_justification(
            P, chain_justification, ann("a"), X, frozenset()
        )

    def test_positive_cycle_rejected(self, ex41):
        P, X = ex41
        a, b, c = ann("a"), ann("b"), ann("c")
        G = EGraph(
            frozenset([a, b, c, TOP]),
            frozenset([(a, b, "+"), (b, c, "+"), (c, TOP, "+"),
                       (a, c, "+"), (b, a, "+")]),
        )
        assert not is_offline_justification(P, G, a, X, frozenset())

    def test_assumed_positive_atom_rejected(self, ex41):
        """A true atom is never assumed, in ``U`` or not."""
        P, X = ex41
        a, b, c = ann("a"), ann("b"), ann("c")
        G = EGraph(
            frozenset([a, b, c, TOP, ASSUME]),
            frozenset([(a, b, "+"), (a, c, "+"),
                       (b, ASSUME, "+"), (c, TOP, "+")]),
        )
        assert not is_offline_justification(P, G, a, X, frozenset())
        assert not is_offline_justification(P, G, a, X, frozenset([b.atom]))

    def test_unreachable_node_rejected(self, ex41):
        P, X = ex41
        a, b, c, d = ann("a"), ann("b"), ann("c"), ann("d")
        G = EGraph(
            frozenset([a, d, TOP, b, c]),
            frozenset([(a, d, "+"), (d, TOP, "+"),
                       (b, c, "+"), (c, TOP, "+")]),
        )
        assert not is_offline_justification(P, G, a, X, frozenset())

    def test_support_not_a_rule_body_rejected(self, ex41):
        P, X = ex41
        a, b = ann("a"), ann("b")
        G = EGraph(
            frozenset([a, b, TOP]),
            frozenset([(a, b, "+"), (b, TOP, "+")]),
        )
        # no rule a :- b exists, and b is not a fact
        assert not is_offline_justification(P, G, a, X, frozenset())

    def test_negative_lce_minimality(self):
        P = parse_program("p :- not q.")
        X = parse_answer_set("p")
        p, qneg = ann("p"), ann("q", "-")
        G = EGraph(
            frozenset([p, qneg, BOT]),
            frozenset([(p, qneg, "-"), (qneg, BOT, "-")]),
        )
        assert is_offline_justification(P, G, p, X, frozenset())

    def test_assumption_based_justification(self):
        P = parse_program("c :- a, not d. d :- a, not c. a :- b. b.")
        X = parse_answer_set("a b c")
        c, a, b, dneg = ann("c"), ann("a"), ann("b"), ann("d", "-")
        G = EGraph(
            frozenset([c, a, b, dneg, TOP, ASSUME]),
            frozenset([(c, a, "+"), (c, dneg, "-"), (a, b, "+"),
                       (b, TOP, "+"), (dneg, ASSUME, "-")]),
        )
        U = frozenset([parse_atom("d")])
        assert is_offline_justification(P, G, c, X, U)
        assert not is_offline_justification(P, G, c, X, frozenset())

    @pytest.mark.parametrize("support, U, expected", [
        ("bot", "", True), ("bot", "b", False),
        ("assume", "", False), ("assume", "b", True),
        ("literals", "", True), ("literals", "a", False),
    ])
    def test_false_atom_is_assumed_exactly_when_in_U(self, support, U, expected):
        """``a :- b.`` with ``M = {}``: ``b`` has no rule, so ``b-`` rests
        on ⊥, and ``a-`` on the literal set {b}, which falsifies its one
        rule. Each support is checked once with the false atom in ``U``
        and once outside it: only an assume edge may hold an atom of
        ``U``, and it may hold no other."""
        P = parse_program("a :- b.")
        a, b = ann("a", "-"), ann("b", "-")
        marker = ASSUME if support == "assume" else BOT
        nodes, edges = [b, marker], [(b, marker, "-")]
        if support == "literals":
            nodes, edges = nodes + [a], edges + [(a, b, "+")]
        G = EGraph(frozenset(nodes), frozenset(edges))
        root = a if support == "literals" else b
        U = frozenset(parse_atom(t) for t in U.split())
        assert is_offline_justification(P, G, root, frozenset(), U) is expected

    def test_non_ground_program_rejected(self):
        """On ``p(X) :- q(X). q(a).`` the valid justification
        p(a)+ -> q(a)+ -> ⊤ holds of the program's grounding only."""
        P = parse_program("p(X) :- q(X). q(a).")
        X = parse_answer_set("p(a) q(a)")
        p, q = ann("p(a)"), ann("q(a)")
        G = EGraph(frozenset([p, q, TOP]),
                   frozenset([(p, q, "+"), (q, TOP, "+")]))
        with pytest.raises(ValueError, match="non-ground program"):
            is_offline_justification(P, G, p, X, frozenset())
        assert is_offline_justification(ground_program(P, X), G, p, X, frozenset())

    def test_long_chain_in_linear_time(self):
        """A 10^4-node chain e-graph, c_n -> ... -> c0 -> top. With the
        rules scanned once per node the check took 3.4 s at 4,000 nodes;
        indexed by head it takes about 0.5 s on a 2-vCPU Xeon."""
        n = 10**4
        program, answer_set = chain_text(n)
        P, X = parse_program(program), parse_answer_set(answer_set)
        nodes = [ann("c%d" % i) for i in range(n + 1)]
        edges = [(nodes[i + 1], nodes[i], "+") for i in range(n)]
        G = EGraph(frozenset(nodes + [TOP]), frozenset(edges + [(nodes[0], TOP, "+")]))
        t0 = time.perf_counter()
        assert is_offline_justification(P, G, nodes[-1], X, frozenset())
        assert time.perf_counter() - t0 < 1.0


class TestJustificationToExplanation:
    def test_chain_example(self, ex41, chain_justification):
        P, X = ex41
        p = parse_atom("a")
        T = justification_to_explanation(X, p, chain_justification)
        texts = [T.labels[v].text for v in T.preorder()]
        assert texts == ["a", "a :- b, c", "b", "b :- c", "c", "c", "c", "c"]
        AO = create_tree(P, X, p)
        validate_explanation_tree(T, AO)

    def test_vertices_numbered_breadth_first(self, ex41, chain_justification):
        P, X = ex41
        T = justification_to_explanation(X, parse_atom("a"), chain_justification)
        assert [T.labels[v].text for v in range(8)] == [
            "a", "a :- b, c", "b", "c", "b :- c", "c", "c", "c",
        ]
        assert T.children == {
            0: (1,), 1: (2, 3), 2: (4,), 3: (5,), 4: (6,), 5: (), 6: (7,), 7: (),
        }

    def test_ladder_tree_exceeds_a_lowered_cap(self, monkeypatch):
        """The ladder of 5 rungs encodes a 188-vertex tree: built with
        the cap at 188, refused at 187."""
        program, answer_set, G = ladder_justification(5)
        X, p = parse_answer_set(answer_set), parse_atom("x5")
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 188)
        T = justification_to_explanation(X, p, G)
        assert len(T) == 188
        validate_explanation_tree(T, create_tree(parse_program(program), X, p))
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 187)
        with pytest.raises(
            ValueError, match="cap exceeded: more than 187 explanation tree vertices"
        ):
            justification_to_explanation(X, p, G)

    def test_single_fact(self):
        P = parse_program("p.")
        X = parse_answer_set("p")
        p = ann("p")
        G = EGraph(frozenset([p, TOP]), frozenset([(p, TOP, "+")]))
        T = justification_to_explanation(X, parse_atom("p"), G)
        assert len(T) == 2

    def test_malformed_cycle_rejected(self, ex41):
        P, X = ex41
        a, b = ann("a"), ann("b")
        G = EGraph(
            frozenset([a, b]),
            frozenset([(a, b, "+"), (b, a, "+")]),
        )
        with pytest.raises(ValueError, match="positive cycle"):
            justification_to_explanation(X, parse_atom("a"), G)

    def test_missing_atom_rejected(self, ex41):
        P, X = ex41
        p = ann("d")
        G = EGraph(frozenset([p, TOP]), frozenset([(p, TOP, "+")]))
        with pytest.raises(ValueError, match="does not mention"):
            justification_to_explanation(X, parse_atom("a"), G)


class TestExplanationToJustification:
    def test_three_rule_example(self):
        P = parse_program(fixture_text("threerule.lp"))
        X = parse_answer_set(fixture_text("threerule.as"))
        p = parse_atom("a")
        T = create_tree(P, X, p)
        G = explanation_to_justification(P, X, p, T)
        a, b, c = ann("a"), ann("b"), ann("c")
        assert G.nodes == frozenset([a, b, c, TOP])
        assert G.edges == frozenset(
            [(a, b, "+"), (a, c, "+"), (b, TOP, "+"), (c, TOP, "+")]
        )
        R = reduct(P, X.atoms)
        assert is_offline_justification(R, G, a, X, frozenset())

    def test_fact_tree(self):
        P = parse_program("p.")
        X = parse_answer_set("p")
        p = parse_atom("p")
        T = create_tree(P, X, p)
        G = explanation_to_justification(P, X, p, T)
        assert G.edges == frozenset([(ann("p"), TOP, "+")])

    @pytest.mark.parametrize("b_rule", ["b :- not c", "b :- 1 {c}"])
    def test_only_facts_of_the_reduct_point_to_top(self, b_rule):
        """``b``'s rule has no positive body, but the reduct by {a, b, c}
        drops it (``not c``), so it does not support ``b``, or keeps its
        cardinality part, so it is no fact and ``b`` is left a sink."""
        P = parse_program("a :- b.  %s.  c." % b_rule)
        X = parse_answer_set("a b c")
        labels = dict(enumerate(
            [parse_atom("a"), P.rules[0], parse_atom("b"), P.rules[1]]
        ))
        T = VertexLabeledTree(0, labels, {0: (1,), 1: (2,), 2: (3,)})
        message = {"b :- not c": "^rule b :- not c does not support b$",
                   "b :- 1 {c}": "sinks: b"}[b_rule]
        with pytest.raises(ValueError, match=message):
            explanation_to_justification(P, X, parse_atom("a"), T)

    def test_duplicate_labels_rejected(self):
        """Explanation trees of example41 that repeat a label, such as the
        fact ``c.`` under two atom vertices, convert: each atom in them
        heads one rule. Each gives an offline justification of ``a``."""
        P = parse_program(fixture_text("example41.lp"))
        X = parse_answer_set(fixture_text("example41.as"))
        p = parse_atom("a")
        trees = [explanation_tree_of(e, e.andor)
                 for e in enumerate_explanations(P, X, p)]
        dup = [
            t
            for t in trees
            if len({("r", t.labels[v].text, t.is_rule_vertex(v))
                    for v in t.preorder()}) < len(t)
        ]
        assert dup
        R = reduct(P, X.atoms)
        for t in dup:
            G = explanation_to_justification(P, X, p, t)
            assert is_offline_justification(R, G, ann("a"), X, frozenset())

    @pytest.mark.parametrize("kind", ["tree", "explanation"])
    def test_atom_heading_two_rules_rejected(self, kind):
        """``b`` is explained by the fact ``b.`` under ``a`` and by
        ``b :- d`` under ``c``."""
        P = parse_program("a :- b, c.  c :- b.  b :- d.  b.  d.")
        X = parse_answer_set("a b c d")
        a_rule, c_rule, bd_rule, b_fact, d_fact = P.rules
        a, b, c, d = (parse_atom(x) for x in "abcd")
        if kind == "tree":
            labels = [a, a_rule, b, b_fact, c, c_rule, b, bd_rule, d, d_fact]
            children = {0: (1,), 1: (2, 4), 2: (3,), 4: (5,), 5: (6,),
                        6: (7,), 7: (8,), 8: (9,)}
            T = VertexLabeledTree(0, dict(enumerate(labels)), children)
        else:
            labels = [a_rule, b_fact, c_rule, bd_rule, d_fact]
            T = Explanation(0, dict(enumerate(labels)),
                            {0: (1, 2), 2: (3,), 3: (4,)})
        with pytest.raises(ValueError, match="^atom b heads two rules$"):
            explanation_to_justification(P, X, a, T)

    def test_root_must_be_the_queried_atom(self):
        P = parse_program(fixture_text("threerule.lp"))
        X = parse_answer_set(fixture_text("threerule.as"))
        T = create_tree(P, X, parse_atom("a"))
        with pytest.raises(ValueError, match="^explanation of a, not of the "
                                             "queried atom b$"):
            explanation_to_justification(P, X, parse_atom("b"), T)

    def test_rule_child_of_another_head_rejected(self):
        """The fact ``c.`` under the atom ``a`` would point ``a`` to ⊤."""
        P = parse_program(fixture_text("threerule.lp"))
        X = parse_answer_set(fixture_text("threerule.as"))
        T = VertexLabeledTree(0, {0: parse_atom("a"), 1: P.rules[2]}, {0: (1,)})
        with pytest.raises(ValueError, match="^rule c does not support a$"):
            explanation_to_justification(P, X, parse_atom("a"), T)

    @pytest.mark.parametrize("program, bad", [
        ("a :- b, c, not d.  b :- not e.  c.", "a :- c"),
        ("a :- c, not b.  a :- c.  b.  c.", "a :- c, not b"),
    ], ids=["not-a-rule", "negative-body-meets-X"])
    def test_each_rule_must_support_its_atom(self, program, bad):
        """The tree ``a`` -> ``bad`` -> ``c`` -> ``c.``: under threerule
        ``a :- c`` is no rule of the program, and ``a :- c, not b`` is
        one whose negative body meets X. Either would read as the
        e-graph a+ -> c+ -> ⊤, which is no offline justification."""
        P = parse_program(program)
        X = parse_answer_set("a b c")
        a, c = parse_atom("a"), parse_atom("c")
        rule = parse_program(bad + ".").rules[0]
        T = VertexLabeledTree(0, dict(enumerate([a, rule, c, Rule(c)])),
                              {0: (1,), 1: (2,), 2: (3,)})
        with pytest.raises(ValueError, match="^rule %s does not support a$" % bad):
            explanation_to_justification(P, X, a, T)

    def test_non_ground_program(self):
        """The program as read converts; only the tree's atoms' rules are
        grounded."""
        P = parse_program("p(X) :- q(X), not r(X).  q(a).  q(b).  r(b).")
        X = parse_answer_set("p(a) q(a) q(b) r(b)")
        p = parse_atom("p(a)")
        G = explanation_to_justification(P, X, p, create_tree(P, X, p))
        assert G.edges == frozenset(
            [(ann("p(a)"), ann("q(a)"), "+"), (ann("q(a)"), TOP, "+")]
        )
        R = reduct(ground_program(P, P.herbrand_base), X.atoms)
        assert is_offline_justification(R, G, ann("p(a)"), X, frozenset())

    @pytest.mark.parametrize("size, bad", [(2, "a :- b"), (4, "b :- a")],
                             ids=["missing", "cycle"])
    def test_atoms_below_a_rule_are_its_positive_body(self, size, bad):
        """A rule vertex with a body atom missing below it is refused.
        Without that check, ``a :- b`` over ``b :- a`` with nothing below
        the latter would read as the positive cycle a+ -> b+ -> a+."""
        P = parse_program("a :- b.  b :- a.")
        X = parse_answer_set("a b")
        a, b = parse_atom("a"), parse_atom("b")
        labels = [a, P.rules[0], b, P.rules[1]][:size]
        children = {v: (v + 1,) for v in range(size - 1)}
        T = VertexLabeledTree(0, dict(enumerate(labels)), children)
        with pytest.raises(ValueError, match="^the atoms below rule %s are not "
                                             "its positive body$" % bad):
            explanation_to_justification(P, X, a, T)

    def test_round_trip(self):
        P = parse_program(fixture_text("threerule.lp"))
        X = parse_answer_set(fixture_text("threerule.as"))
        p = parse_atom("a")
        T = create_tree(P, X, p)
        G = explanation_to_justification(P, X, p, T)
        T2 = justification_to_explanation(X, p, G)
        shape = lambda t, v: (
            t.labels[v].text if t.is_atom_vertex(v) else "r",
            sorted(shape(t, c) for c in t.child_ids(v)),
        )
        assert shape(T2, T2.root)[0] == "a"

import json

import pytest
from hypothesis import given, settings, strategies as st

from aspexplain.engine import create_tree, shortest_explanation
from aspexplain.justify import TOP, AnnotatedAtom, EGraph
from aspexplain.parser import ParseError, parse_answer_set, parse_atom, parse_program
from aspexplain.serialize import emit_dot, emit_json, parse_json
from aspexplain.trees import EMPTY_TREE, Explanation, VertexLabeledTree

from conftest import fixture_text


@pytest.fixture
def ex41_tree():
    P = parse_program(fixture_text("example41.lp"))
    X = parse_answer_set(fixture_text("example41.as"))
    return create_tree(P, X, parse_atom("a"))


@pytest.fixture
def ex41_shortest():
    P = parse_program(fixture_text("example41.lp"))
    X = parse_answer_set(fixture_text("example41.as"))
    return shortest_explanation(P, X, parse_atom("a"))


@pytest.fixture
def small_egraph():
    a, c = AnnotatedAtom(parse_atom("a"), "+"), AnnotatedAtom(parse_atom("c"), "-")
    return EGraph(
        frozenset([a, c, TOP]),
        frozenset([(a, c, "-"), (c, TOP, "-")]),
    )


class TestEmitDot:
    def test_fact_tree(self):
        P = parse_program("p.")
        T = create_tree(P, parse_answer_set("p"), parse_atom("p"))
        dot = emit_dot(T)
        assert dot.count("->") == 1
        assert "ellipse" in dot and "box" in dot

    def test_eleven_node_tree(self, ex41_tree):
        dot = emit_dot(ex41_tree)
        assert dot.count("[label=") == 11
        assert dot.count("->") == 10

    def test_egraph_edges_labeled(self, small_egraph):
        dot = emit_dot(small_egraph)
        assert '[label="-"]' in dot
        assert dot.count("->") == 2

    def test_stable_across_runs(self, ex41_tree):
        assert emit_dot(ex41_tree) == emit_dot(ex41_tree)


class TestEmitJson:
    def test_empty_tree(self):
        doc = json.loads(emit_json(EMPTY_TREE))
        assert doc == {"kind": "tree", "root": None, "vertices": [],
                       "edges": []}

    def test_shortest_explanation(self, ex41_shortest):
        doc = json.loads(emit_json(ex41_shortest))
        assert doc["kind"] == "explanation"
        assert len(doc["vertices"]) == 2
        assert len(doc["edges"]) == 1

    def test_schema_fields(self, ex41_tree):
        doc = json.loads(emit_json(ex41_tree))
        assert set(doc) == {"kind", "root", "vertices", "edges"}
        for v in doc["vertices"]:
            assert set(v) == {"id", "label_kind", "label_text"}
        ids = [v["id"] for v in doc["vertices"]]
        assert ids == sorted(ids)

    def test_egraph_signs(self, small_egraph):
        doc = json.loads(emit_json(small_egraph))
        assert doc["kind"] == "egraph"
        assert all("sign" in e for e in doc["edges"])


class TestParseJson:
    def test_tree_round_trip(self, ex41_tree):
        back = parse_json(emit_json(ex41_tree))
        assert isinstance(back, VertexLabeledTree)
        assert back.root == ex41_tree.root
        assert {v: l.text for v, l in back.labels.items()} == {
            v: l.text for v, l in ex41_tree.labels.items()
        }
        assert back.children == ex41_tree.children

    def test_explanation_round_trip(self, ex41_shortest):
        back = parse_json(emit_json(ex41_shortest))
        assert isinstance(back, Explanation)
        assert back.labels == ex41_shortest.labels

    def test_egraph_round_trip(self, small_egraph):
        back = parse_json(emit_json(small_egraph))
        assert back == small_egraph

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            parse_json('{"kind": "nope", "vertices": [], "edges": []}')


_KEYS = ["kind", "root", "vertices", "edges", "id", "label_kind", "label_text",
         "from", "to", "sign"]
_VALUES = ["tree", "explanation", "egraph", "atom", "rule", "pos_atom",
           "neg_atom", "marker", "+", "-", "a", "a :- b", "p(X)", ""]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(_VALUES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=5),
    max_leaves=25,
)
# Arrays or objects nested far deeper than the interpreter's recursion limit.
_DEEP_JSON = st.builds(
    lambda n, obj: '{"a": ' * n + "0" + "}" * n if obj else "[" * n + "]" * n,
    st.integers(1, 200_000), st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON.map(json.dumps), _DEEP_JSON))
def test_any_json_parses_or_raises_parse_error(text):
    try:
        parse_json(text)
    except ParseError:
        pass

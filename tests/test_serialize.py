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


# Exact output, so that any byte change in DOT or JSON fails.
GOLDEN = {
    ("ex41_tree", "dot"): """\
digraph explanation {
  n0 [label="a", shape=ellipse];
  n1 [label="a :- b, c", shape=box];
  n2 [label="b", shape=ellipse];
  n3 [label="b :- c", shape=box];
  n4 [label="c", shape=ellipse];
  n5 [label="c", shape=box];
  n6 [label="c", shape=ellipse];
  n7 [label="c", shape=box];
  n8 [label="a :- d", shape=box];
  n9 [label="d", shape=ellipse];
  n10 [label="d", shape=box];
  n0 -> n1;
  n0 -> n8;
  n1 -> n2;
  n1 -> n6;
  n2 -> n3;
  n3 -> n4;
  n4 -> n5;
  n6 -> n7;
  n8 -> n9;
  n9 -> n10;
}
""",
    ("ex41_tree", "json"): """\
{
  "kind": "tree",
  "root": 0,
  "vertices": [
    {
      "id": 0,
      "label_kind": "atom",
      "label_text": "a"
    },
    {
      "id": 1,
      "label_kind": "rule",
      "label_text": "a :- b, c"
    },
    {
      "id": 2,
      "label_kind": "atom",
      "label_text": "b"
    },
    {
      "id": 3,
      "label_kind": "rule",
      "label_text": "b :- c"
    },
    {
      "id": 4,
      "label_kind": "atom",
      "label_text": "c"
    },
    {
      "id": 5,
      "label_kind": "rule",
      "label_text": "c"
    },
    {
      "id": 6,
      "label_kind": "atom",
      "label_text": "c"
    },
    {
      "id": 7,
      "label_kind": "rule",
      "label_text": "c"
    },
    {
      "id": 8,
      "label_kind": "rule",
      "label_text": "a :- d"
    },
    {
      "id": 9,
      "label_kind": "atom",
      "label_text": "d"
    },
    {
      "id": 10,
      "label_kind": "rule",
      "label_text": "d"
    }
  ],
  "edges": [
    {
      "from": 0,
      "to": 1
    },
    {
      "from": 0,
      "to": 8
    },
    {
      "from": 1,
      "to": 2
    },
    {
      "from": 1,
      "to": 6
    },
    {
      "from": 2,
      "to": 3
    },
    {
      "from": 3,
      "to": 4
    },
    {
      "from": 4,
      "to": 5
    },
    {
      "from": 6,
      "to": 7
    },
    {
      "from": 8,
      "to": 9
    },
    {
      "from": 9,
      "to": 10
    }
  ]
}
""",
    ("ex41_shortest", "dot"): """\
digraph explanation {
  n8 [label="a :- d", shape=box];
  n10 [label="d", shape=box];
  n8 -> n10;
}
""",
    ("ex41_shortest", "json"): """\
{
  "kind": "explanation",
  "root": 8,
  "vertices": [
    {
      "id": 8,
      "label_kind": "rule",
      "label_text": "a :- d"
    },
    {
      "id": 10,
      "label_kind": "rule",
      "label_text": "d"
    }
  ],
  "edges": [
    {
      "from": 8,
      "to": 10
    }
  ]
}
""",
    ("small_egraph", "dot"): """\
digraph explanation {
  n0 [label="a+", shape=ellipse];
  n1 [label="c-", shape=ellipse];
  n2 [label="⊤", shape=plaintext];
  n0 -> n1 [label="-"];
  n1 -> n2 [label="-"];
}
""",
    ("small_egraph", "json"): """\
{
  "kind": "egraph",
  "root": null,
  "vertices": [
    {
      "id": 0,
      "label_kind": "pos_atom",
      "label_text": "a"
    },
    {
      "id": 1,
      "label_kind": "neg_atom",
      "label_text": "c"
    },
    {
      "id": 2,
      "label_kind": "marker",
      "label_text": "top"
    }
  ],
  "edges": [
    {
      "from": 0,
      "to": 1,
      "sign": "-"
    },
    {
      "from": 1,
      "to": 2,
      "sign": "-"
    }
  ]
}
""",
    ("fig_jst", "dot"): """\
digraph explanation {
  n0 [label="a+", shape=ellipse];
  n1 [label="b+", shape=ellipse];
  n2 [label="c+", shape=ellipse];
  n3 [label="⊤", shape=plaintext];
  n0 -> n1 [label="+"];
  n0 -> n2 [label="+"];
  n1 -> n2 [label="+"];
  n2 -> n3 [label="+"];
}
""",
    ("fig_jst", "json"): """\
{
  "kind": "egraph",
  "root": null,
  "vertices": [
    {
      "id": 0,
      "label_kind": "pos_atom",
      "label_text": "a"
    },
    {
      "id": 1,
      "label_kind": "pos_atom",
      "label_text": "b"
    },
    {
      "id": 2,
      "label_kind": "pos_atom",
      "label_text": "c"
    },
    {
      "id": 3,
      "label_kind": "marker",
      "label_text": "top"
    }
  ],
  "edges": [
    {
      "from": 0,
      "to": 1,
      "sign": "+"
    },
    {
      "from": 0,
      "to": 2,
      "sign": "+"
    },
    {
      "from": 1,
      "to": 2,
      "sign": "+"
    },
    {
      "from": 2,
      "to": 3,
      "sign": "+"
    }
  ]
}
""",
    ("empty_tree", "dot"): """\
digraph explanation {
}
""",
    ("empty_tree", "json"): """\
{
  "kind": "tree",
  "root": null,
  "vertices": [],
  "edges": []
}
""",
}


def _golden_object(name, request):
    if name == "fig_jst":
        return parse_json(fixture_text("fig_jst.json"))
    if name == "empty_tree":
        return EMPTY_TREE
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name, fmt", list(GOLDEN))
def test_golden_output(name, fmt, request):
    emit = emit_dot if fmt == "dot" else emit_json
    assert emit(_golden_object(name, request)) == GOLDEN[name, fmt]

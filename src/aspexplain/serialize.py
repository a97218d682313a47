"""DOT and JSON output for trees, explanations and e-graphs, plus the
JSON reader used by the conversion commands."""
from __future__ import annotations

import json
from typing import Optional, Union

from .justify import MARKER_DISPLAY, MARKERS, AnnotatedAtom, EGraph, Node
from .model import Atom, Rule
from .parser import ParseError, parse_atom, parse_program
from .trees import Explanation, Label, VertexLabeledTree

Emittable = Union[VertexLabeledTree, EGraph]


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


_DOT_SHAPES = {"rule": "box", "marker": "plaintext"}


def _view(t: Emittable) -> tuple[str, Optional[int], list, list]:
    """``(kind, root, vertices, edges)`` of ``t`` in output order. A
    vertex is ``(id, label_kind, label_text, dot_label)``, an edge
    ``(from, to, sign)`` with ``sign`` None in a tree. An e-graph numbers
    its atoms by text and sign, then its markers."""
    if isinstance(t, EGraph):
        nodes = sorted(t.nodes, key=lambda n: (1, n, "") if isinstance(n, str)
                       else (0, n.atom.text, n.sign))
        ids = {n: i for i, n in enumerate(nodes)}
        vertices = [
            (i, "marker", n, MARKER_DISPLAY[n]) if isinstance(n, str)
            else (i, "pos_atom" if n.sign == "+" else "neg_atom",
                  n.atom.text, n.text)
            for i, n in enumerate(nodes)
        ]
        edges = sorted((ids[src], ids[dst], sign) for src, dst, sign in t.edges)
        return "egraph", None, vertices, edges
    # Equal labels have equal text, as text ignores source_text, so it is
    # built once per distinct label.
    texts: dict[Label, str] = {}
    vertices = []
    for v, label in sorted(t.labels.items()):
        text = texts.get(label)
        if text is None:
            text = texts[label] = label.text
        vertices.append((v, "atom" if isinstance(label, Atom) else "rule",
                         text, text))
    edges = [(v, c, None) for v, *_ in vertices for c in t.child_ids(v)]
    kind = "explanation" if isinstance(t, Explanation) else "tree"
    return kind, t.root, vertices, edges


def emit_dot(t: Emittable) -> str:
    """DOT text: atom vertices as ellipses, rule vertices as boxes,
    markers as plain text, e-graph edges labeled with their sign."""
    _, _, vertices, edges = _view(t)
    lines = ["digraph explanation {"]
    for i, kind, _, dot_label in vertices:
        lines.append('  n%d [label="%s", shape=%s];' % (
            i, _dot_escape(dot_label), _DOT_SHAPES.get(kind, "ellipse")))
    for src, dst, sign in edges:
        if sign is None:
            lines.append("  n%d -> n%d;" % (src, dst))
        else:
            lines.append('  n%d -> n%d [label="%s"];' % (src, dst, sign))
    lines.append("}")
    return "\n".join(lines) + "\n"


# One JSON value as ``json.dumps(x, ensure_ascii=False)`` writes it.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _json_id(x) -> str:
    # Ids read back by parse_json may be any JSON value; an int skips the
    # encoder, which is slow on anything but a string.
    return "%d" % x if type(x) is int else _encode(x)


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def emit_json(t: Emittable) -> str:
    """The JSON envelope shared by trees, explanations and e-graphs,
    laid out as ``json.dumps(doc, indent=2, ensure_ascii=False)`` does,
    one string per vertex and per edge."""
    kind, root, vertices, edges = _view(t)
    # Each distinct label kind and text is encoded once.
    distinct = {s for _, lk, text, _ in vertices for s in (lk, text)}
    encoded = {s: _encode(s) for s in distinct}
    items = [
        '    {\n      "id": %s,\n      "label_kind": %s,\n      "label_text": %s\n    }'
        % (_json_id(i), encoded[lk], encoded[text])
        for i, lk, text, _ in vertices
    ]
    links = [
        '    {\n      "from": %s,\n      "to": %s%s\n    }' % (
            _json_id(src), _json_id(dst),
            "" if sign is None else ',\n      "sign": %s' % _encode(sign))
        for src, dst, sign in edges
    ]
    return '{\n  "kind": %s,\n  "root": %s,\n  "vertices": %s,\n  "edges": %s\n}\n' % (
        _encode(kind), _json_id(root), _json_list(items), _json_list(links))


def _parse_rule_text(text: str) -> Rule:
    P = parse_program(text + ".")
    if len(P.rules) != 1:
        raise ParseError("expected a single rule", 1, 1)
    return P.rules[0]


def parse_json(text: str) -> Emittable:
    """Read back anything produced by :func:`emit_json`. Text that is
    not JSON, a document of any other shape, or one nested too deeply
    to read, raises :class:`ParseError`."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ParseError("JSON nested too deeply", 1, 1) from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object", 1, 1)
    try:
        return _parse_doc(doc)
    except KeyError as exc:
        raise ParseError("missing field or vertex id %s" % exc, 1, 1) from None
    except (TypeError, AttributeError) as exc:
        raise ParseError("malformed document: %s" % exc, 1, 1) from None


def _parse_doc(doc: dict) -> Emittable:
    kind = doc.get("kind")
    if kind == "egraph":
        nodes_by_id: dict[int, Node] = {}
        for v in doc["vertices"]:
            lk = v["label_kind"]
            if lk == "marker":
                if v["label_text"] not in MARKERS:
                    raise ParseError("unknown marker: %s" % v["label_text"], 1, 1)
                nodes_by_id[v["id"]] = v["label_text"]
            else:
                sign = "+" if lk == "pos_atom" else "-"
                nodes_by_id[v["id"]] = AnnotatedAtom(
                    parse_atom(v["label_text"]), sign
                )
        edges = frozenset(
            (nodes_by_id[e["from"]], nodes_by_id[e["to"]], e["sign"])
            for e in doc["edges"]
        )
        return EGraph(frozenset(nodes_by_id.values()), edges)
    if kind not in ("tree", "explanation"):
        raise ParseError("unknown kind: %r" % kind, 1, 1)
    labels: dict[int, Label] = {}
    for v in doc["vertices"]:
        if v["label_kind"] == "atom":
            labels[v["id"]] = parse_atom(v["label_text"])
        elif v["label_kind"] == "rule":
            labels[v["id"]] = _parse_rule_text(v["label_text"])
        else:
            raise ParseError("unknown label kind: %r" % v["label_kind"], 1, 1)
    children: dict[int, list[int]] = {v: [] for v in labels}
    for e in doc["edges"]:
        children[e["from"]].append(e["to"])
    frozen = {v: tuple(c) for v, c in children.items()}
    root = doc.get("root")
    tree = VertexLabeledTree(root, labels, frozen)
    # Checked in this order, each vertex but the root has one parent,
    # so the traversal stops, and it must reach exactly the vertices.
    below = [c for kids in frozen.values() for c in kids]
    if (labels or root is not None) and (
        root not in labels
        or root in below
        or len(set(below)) != len(below)
        or set(tree.preorder()) != set(labels)
    ):
        raise ParseError("the edges do not form a tree under the root", 1, 1)
    if kind == "explanation":
        return Explanation(root, labels, frozen)
    return tree

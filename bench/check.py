"""Reference checks for aspexplain output.

This module imports nothing from aspexplain: it parses the CLI's text,
natural-language and JSON output itself and checks it against the
program and answer set the workload generator wrote. Atoms are
``(predicate, args)`` tuples with ``args`` a tuple of strings; a rule is
``(head, pos, neg)`` with ``pos`` and ``neg`` tuples of atoms. Argument
strings starting with an uppercase letter are variables.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field


class CheckError(Exception):
    """The output does not match the reference."""


def _split_top(text: str, sep: str = ",") -> list[str]:
    """Split at ``sep`` outside parentheses and double quotes."""
    parts, depth, quoted, start = [], 0, False, 0
    for i, ch in enumerate(text):
        if ch == '"':
            quoted = not quoted
        elif quoted:
            continue
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def parse_atom(text: str) -> tuple:
    text = text.strip()
    if "(" not in text:
        if not text or not text[0].islower() or not text.replace("_", "").isalnum():
            raise CheckError("malformed atom %r" % text)
        return (text, ())
    if not text.endswith(")"):
        raise CheckError("malformed atom %r" % text)
    pred, inner = text[:-1].split("(", 1)
    return (pred.strip(), tuple(_split_top(inner)))


def atom_text(a: tuple) -> str:
    return a[0] if not a[1] else "%s(%s)" % (a[0], ",".join(a[1]))


def parse_rule(text: str) -> tuple:
    """A rule line without its trailing period: ``h``, ``h :- b1, not b2``."""
    head_text, _, body_text = text.partition(":-")
    head = parse_atom(head_text)
    pos, neg = [], []
    if body_text.strip():
        for lit in _split_top(body_text):
            if "{" in lit:
                raise CheckError("unexpected cardinality literal %r" % lit)
            if lit.startswith("not "):
                neg.append(parse_atom(lit[4:]))
            else:
                pos.append(parse_atom(lit))
    return (head, tuple(pos), tuple(neg))


def rule_text(r: tuple) -> str:
    body = [atom_text(a) for a in r[1]] + ["not " + atom_text(a) for a in r[2]]
    return atom_text(r[0]) + (" :- " + ", ".join(body) if body else "")


def _is_var(s: str) -> bool:
    return s[:1].isupper()


def _unify(pattern: tuple, atom: tuple, subst: dict) -> bool:
    if pattern[0] != atom[0] or len(pattern[1]) != len(atom[1]):
        return False
    for p, g in zip(pattern[1], atom[1]):
        if _is_var(p):
            if subst.setdefault(p, g) != g:
                return False
        elif p != g:
            return False
    return True


def _apply(pattern: tuple, subst: dict) -> tuple:
    return (pattern[0], tuple(subst.get(t, t) for t in pattern[1]))


@dataclass
class Reference:
    """What the generator knows by construction about one program."""

    rules: list  # rule patterns (head, pos, neg); variables allowed
    X: frozenset  # the answer set
    templates: dict = field(default_factory=dict)  # (pred, arity) -> str

    def instance(self, head: tuple, pos: tuple, neg=None) -> tuple:
        """The ground rule of the program with this head and positive
        body (and negative body, when given), or raise CheckError."""
        for h, p, n in self.rules:
            if len(p) != len(pos) or (neg is not None and len(n) != len(neg)):
                continue
            s: dict = {}
            if not _unify(h, head, s):
                continue
            if not all(_unify(a, b, s) for a, b in zip(p, pos)):
                continue
            if neg is not None and not all(_unify(a, b, s) for a, b in zip(n, neg)):
                continue
            return (head, tuple(pos), tuple(_apply(a, s) for a in n))
        raise CheckError("not an instance of a program rule: %s" % rule_text(
            (head, tuple(pos), tuple(neg or ()))))

    def render(self, a: tuple) -> str:
        tpl = self.templates[(a[0], len(a[1]))]
        for i, t in reversed(list(enumerate(a[1], start=1))):
            tpl = tpl.replace("$%d" % i, t.strip('"'))
        return tpl


@dataclass
class Node:
    head: tuple
    pos: tuple = ()
    neg: tuple = ()
    children: list = field(default_factory=list)
    text: str = ""  # the line as printed, for nl output


def _tree_from_lines(lines: list[str]) -> Node:
    """Rebuild a tree from lines indented two spaces per level."""
    root, stack = None, []
    for line in lines:
        body = line.lstrip(" ")
        indent = len(line) - len(body)
        if indent % 2:
            raise CheckError("odd indentation: %r" % line)
        depth = indent // 2
        node = Node(None, text=body)
        if depth == 0:
            if root is not None:
                raise CheckError("more than one root line")
            root = node
        elif depth > len(stack):
            raise CheckError("indentation jumps: %r" % line)
        else:
            stack[depth - 1].children.append(node)
        del stack[depth:]
        stack.append(node)
    if root is None:
        raise CheckError("empty explanation")
    return root


def _walk(node: Node):
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def check_explanation(root: Node, ref: Reference, query: tuple) -> int:
    """Check an explanation tree whose nodes carry full rules; returns
    its number of rules."""
    if root.head != query:
        raise CheckError("root head %s is not the query %s"
                         % (atom_text(root.head), atom_text(query)))
    size = 0
    stack = [(root, frozenset())]
    while stack:
        n, above = stack.pop()
        size += 1
        ref.instance(n.head, n.pos, n.neg)
        if n.head in above:
            raise CheckError("atom %s repeats on a root path" % atom_text(n.head))
        if not set(n.pos) <= ref.X:
            raise CheckError("positive body outside X: %s" % rule_text((n.head, n.pos, n.neg)))
        if set(n.neg) & ref.X:
            raise CheckError("negative body meets X: %s" % rule_text((n.head, n.pos, n.neg)))
        if sorted(c.head for c in n.children) != sorted(n.pos):
            raise CheckError("children of %s do not explain its positive body"
                             % rule_text((n.head, n.pos, n.neg)))
        below = above | {n.head}
        stack.extend((c, below) for c in n.children)
    return size


def _rule_node(text: str) -> Node:
    if not text.endswith("."):
        raise CheckError("line does not end with a period: %r" % text)
    head, pos, neg = parse_rule(text[:-1])
    return Node(head, pos, neg)


def check_text(out: str, ref: Reference, query: tuple) -> list[int]:
    """Text output: explanations separated by blank lines; each line is
    ``rule.`` indented two spaces per level. Returns the sizes."""
    sizes = []
    for block in out.strip("\n").split("\n\n"):
        root = _tree_from_lines(block.split("\n"))
        for n in _walk(root):
            parsed = _rule_node(n.text)
            n.head, n.pos, n.neg = parsed.head, parsed.pos, parsed.neg
        sizes.append(check_explanation(root, ref, query))
    return sizes


def check_nl(out: str, ref: Reference, query: tuple) -> list[int]:
    """Natural-language output: each line renders its rule's head, so
    the rule is recovered from the head and the heads of its children."""
    by_text = {ref.render(a): a for a in ref.X}
    if len(by_text) != len(ref.X):
        raise CheckError("look-up table does not tell atoms apart")
    sizes = []
    for block in out.strip("\n").split("\n\n"):
        root = _tree_from_lines(block.split("\n"))
        for n in _walk(root):
            if n.text not in by_text:
                raise CheckError("line renders no atom of X: %r" % n.text)
            n.head = by_text[n.text]
        for n in _walk(root):
            pos = tuple(c.head for c in n.children)
            n.pos, n.neg = ref.instance(n.head, pos)[1:]
        sizes.append(check_explanation(root, ref, query))
    return sizes


def _json_docs(out: str) -> list[dict]:
    doc = json.loads(out)
    return doc if isinstance(doc, list) else [doc]


def check_json(out: str, ref: Reference, query: tuple) -> list[int]:
    """JSON output: one ``explanation`` document or a list of them."""
    sizes = []
    for doc in _json_docs(out):
        if doc.get("kind") != "explanation":
            raise CheckError("unexpected document kind %r" % doc.get("kind"))
        nodes = {}
        for v in doc["vertices"]:
            if v["label_kind"] != "rule":
                raise CheckError("non-rule vertex in an explanation")
            parsed = parse_rule(v["label_text"])
            nodes[v["id"]] = Node(*parsed)
        for e in doc["edges"]:
            nodes[e["from"]].children.append(nodes[e["to"]])
        root = nodes[doc["root"]]
        if sum(1 for _ in _walk(root)) != len(nodes):
            raise CheckError("vertices unreachable from the root")
        sizes.append(check_explanation(root, ref, query))
    return sizes


def check_egraph(out: str, expected_edges: set) -> None:
    """``convert exp2jst`` output: the e-graph's signed edges, read as
    ``(source text, target text, sign)``, must be exactly the expected
    ones; ``top`` stands for the marker."""
    doc = json.loads(out)
    if doc.get("kind") != "egraph":
        raise CheckError("unexpected document kind %r" % doc.get("kind"))
    names = {}
    for v in doc["vertices"]:
        if v["label_kind"] not in ("pos_atom", "marker"):
            raise CheckError("unexpected vertex kind %r" % v["label_kind"])
        names[v["id"]] = v["label_text"]
    got = {(names[e["from"]], names[e["to"]], e["sign"]) for e in doc["edges"]}
    if got != expected_edges:
        raise CheckError("e-graph edges differ: %d extra, %d missing"
                         % (len(got - expected_edges), len(expected_edges - got)))


CHECKERS = {"text": check_text, "nl": check_nl, "json": check_json}

"""Natural-language rendering of explanations via predicate templates."""
from __future__ import annotations

import re
from typing import Callable

from .model import Rule
from .parser import LookupTable
from .trees import Explanation


def _apply_template(template: str, args: tuple[str, ...]) -> str:
    def repl(m: re.Match) -> str:
        return args[int(m.group(1)) - 1]

    return re.sub(r"\$(\d+)", repl, template)


def _render_vertex(rule: Rule, table: LookupTable) -> str:
    assert isinstance(rule, Rule)
    head = rule.head
    if head is not None:
        template = table.get(head.predicate, head.arity)
        if template is not None:
            args = tuple(t.unquoted for t in head.args)
            return _apply_template(template, args)
    return rule.display


def render_nl(e: Explanation, t: LookupTable) -> str:
    """One line per rule vertex in pre-order, indented two spaces per
    tree level; each line verbalizes the rule's head through the look-up
    table, falling back to the rule text itself."""
    return indented(e, lambda rule: _render_vertex(rule, t))


def indented(e: Explanation, line: Callable[[Rule], str]) -> str:
    """``line`` of each rule vertex in pre-order, indented two spaces
    per tree level, one per line."""
    lines = ["  " * e.depth(v) + line(e.labels[v]) for v in e.preorder()]
    return "\n".join(lines) + ("\n" if lines else "")

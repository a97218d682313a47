"""Natural-language rendering of explanations via predicate templates."""
from __future__ import annotations

import re
from typing import Callable

from .model import Rule
from .parser import LookupTable
from .trees import Explanation

# Most characters one text or nl rendering of an explanation may hold;
# commands write each explanation once it is rendered, so they hold one.
# Each line is indented two spaces per level, so a derivation d steps
# deep takes about d² characters. This admits the chain c0., c1 :- c0.,
# ... up to 14,133 steps; `explain` at 14,000 steps peaks at 446 MB of
# resident memory, about 2.3 bytes per character written.
MAX_OUTPUT_CHARS = 200_000_000


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
    per tree level, one per line. Raises ``ValueError`` ("cap exceeded")
    if the text would pass :data:`MAX_OUTPUT_CHARS`, as soon as that is
    known: before any line is built if the indentation alone passes it."""
    order = e.preorder()
    depths = [e.depth(v) for v in order]
    size = 2 * sum(depths)  # the indentation, a lower bound on the size
    lines: list[str] = []
    for v, d in zip(order, depths):
        if size > MAX_OUTPUT_CHARS:
            break
        text = line(e.labels[v]) + "\n"
        size += len(text)
        lines.append("  " * d + text)
    if size > MAX_OUTPUT_CHARS:
        raise ValueError(
            "cap exceeded: more than %d characters of output" % MAX_OUTPUT_CHARS
        )
    return "".join(lines)

import pytest

from aspexplain import nl
from aspexplain.engine import shortest_explanation
from aspexplain.nl import indented, render_nl
from aspexplain.parser import (
    LookupTable,
    parse_answer_set,
    parse_atom,
    parse_lookup,
    parse_program,
)

from conftest import chain_text, fixture_text

Q8_EXPECTED = """\
The gene CASK is an answer.
  The distance of the gene CASK from the start gene is 2.
    The gene CASK interacts with the gene DLG4 according to BioGRID.
    The distance of the gene DLG4 from the start gene is 1.
      The gene DLG4 interacts with the gene ADRB1 according to BioGRID.
      The gene ADRB1 is the start gene.
    The maximum chain length is 3.
"""


def q8_shortest():
    P = parse_program(fixture_text("q8.lp"))
    X = parse_answer_set(fixture_text("q8.as"))
    return shortest_explanation(P, X, parse_atom('what_be_genes("CASK")'))


def test_q8_rendering():
    table = parse_lookup(fixture_text("q8.lookup"))
    assert render_nl(q8_shortest(), table) == Q8_EXPECTED


def test_single_fact_template():
    P = parse_program('gene_gene_biogrid("DLG4","ADRB1").')
    X = parse_answer_set('gene_gene_biogrid("DLG4","ADRB1")')
    e = shortest_explanation(P, X, parse_atom('gene_gene_biogrid("DLG4","ADRB1")'))
    table = parse_lookup(fixture_text("q8.lookup"))
    assert render_nl(e, table) == (
        "The gene DLG4 interacts with the gene ADRB1 according to BioGRID.\n"
    )


def test_empty_table_falls_back_to_rule_text():
    P = parse_program("a :- b. b.")
    X = parse_answer_set("a b")
    e = shortest_explanation(P, X, parse_atom("a"))
    assert render_nl(e, LookupTable()) == "a :- b\n  b\n"


def test_line_count_equals_rule_vertices():
    e = q8_shortest()
    table = parse_lookup(fixture_text("q8.lookup"))
    assert len(render_nl(e, table).splitlines()) == e.size


def test_indentation_tracks_depth():
    e = q8_shortest()
    lines = render_nl(e, LookupTable()).splitlines()
    depths = [e.depth(v) for v in e.preorder()]
    for line, depth in zip(lines, depths):
        assert len(line) - len(line.lstrip()) == 2 * depth


def test_deterministic():
    table = parse_lookup(fixture_text("q8.lookup"))
    e = q8_shortest()
    assert render_nl(e, table) == render_nl(e, table)


def test_cap_passed_by_the_indentation_alone_builds_no_line(monkeypatch):
    """The 30-step chain's explanation indents its 31 lines by
    2 * (0 + 1 + ... + 30) = 930 characters in all. Under a cap below
    that, ``indented`` raises before it builds a line; at that cap it
    builds the first line and then raises."""
    program, answer_set = chain_text(30)
    P, X = parse_program(program), parse_answer_set(answer_set)
    e = shortest_explanation(P, X, parse_atom("c30"))
    calls = []

    def line(rule):
        calls.append(rule)
        return rule.display

    monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", 929)
    with pytest.raises(ValueError, match="^cap exceeded: more than 929 characters"):
        indented(e, line)
    assert calls == []
    monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", 930)
    with pytest.raises(ValueError, match="^cap exceeded: more than 930 characters"):
        indented(e, line)
    assert len(calls) == 1

import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from aspexplain import cli, engine, nl
from aspexplain.cli import main
from aspexplain.parser import LookupTable, parse_program
from aspexplain.serialize import emit_json

from conftest import (
    FIXTURES, chain_text, complete_text, explanation_tree_of, fixture_text,
    knowledge_base_text, ladder_justification, product_ground, render_program,
)


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExplain:
    def test_shortest_text(self, capsys):
        code, out, _ = run(
            capsys, "explain", fx("example41.lp"), fx("example41.as"), "a"
        )
        assert code == 0
        assert out == "a :- d.\n  d.\n"

    def test_kdiff_json(self, capsys):
        code, out, _ = run(
            capsys, "explain", fx("example41.lp"), fx("example41.as"), "a",
            "--mode", "kdiff", "-k", "2", "--format", "json",
        )
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 2
        assert [len(d["vertices"]) for d in docs] == [4, 2]

    def test_atom_not_in_answer_set(self, capsys):
        code, _, err = run(
            capsys, "explain", fx("example41.lp"), fx("example41.as"), "z"
        )
        assert code == 1
        assert "atom not in answer set" in err

    def test_nl_format(self, capsys):
        code, out, _ = run(
            capsys, "explain", fx("q8.lp"), fx("q8.as"),
            'what_be_genes("CASK")', "--format", "nl",
            "--lookup", fx("q8.lookup"),
        )
        assert code == 0
        assert "The distance of the gene CASK from the start gene is 2." in out

    def test_duplicate_lookup_entry_warns_on_one_line(self, tmp_path, capsys):
        lookup = tmp_path / "dup.lookup"
        lookup.write_text("a/0: first.\na/0: second.\n")
        code, out, err = run(
            capsys, "explain", fx("example41.lp"), fx("example41.as"), "a",
            "--format", "nl", "--lookup", str(lookup),
        )
        assert code == 0
        assert err == "warning: duplicate look-up entry for a/0; the later one wins\n"
        assert out.startswith("second.")

    def test_eager_matches_ondemand(self, tmp_path, capsys):
        """Explaining with the non-ground program prints, in every
        format, what explaining with its whole grounding prints."""
        ground = tmp_path / "q8_ground.lp"
        ground.write_text(
            render_program(product_ground(parse_program(fixture_text("q8.lp"))))
        )
        for fmt in ("text", "nl", "dot", "json"):
            results = []
            for program in (fx("q8.lp"), str(ground)):
                code, out, _ = run(
                    capsys, "explain", program, fx("q8.as"),
                    'what_be_genes("CASK")', "--format", fmt,
                    "--lookup", fx("q8.lookup"),
                )
                assert code == 0
                results.append(out)
            assert results[0] == results[1]

    def test_verify_flag_rejects_bad_set(self, tmp_path, capsys):
        bad = tmp_path / "bad.as"
        bad.write_text("a\n")
        code, _, err = run(
            capsys, "explain", fx("example41.lp"), str(bad), "a", "--verify"
        )
        assert code == 1
        assert "not an answer set" in err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        broken = tmp_path / "broken.lp"
        broken.write_text("a :- ,.\n")
        code, _, err = run(capsys, "explain", str(broken), fx("example41.as"), "a")
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(
            capsys, "explain", fx("nope.lp"), fx("example41.as"), "a"
        )
        assert code == 2

    @pytest.mark.parametrize("mode", ["shortest", "kdiff"])
    def test_vertex_cap_exit_code(self, tmp_path, capsys, monkeypatch, mode):
        program, answer_set = complete_text(7)
        prog, ans = tmp_path / "k7.lp", tmp_path / "k7.as"
        prog.write_text(program)
        ans.write_text(answer_set)
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 1000)
        code, out, err = run(
            capsys, "explain", str(prog), str(ans), "p1", "--mode", mode
        )
        assert (code, out) == (2, "")
        assert err == "error: cap exceeded: more than 1000 and-or tree vertices\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("answer_set, code", [
    ("a b c d\n", 0), ("a b c(\n", 2), (None, 2),
], ids=["ok", "parse-error", "missing-file"])
def test_collector_off_while_parsing_and_restored(
    tmp_path, capsys, monkeypatch, enabled, answer_set, code
):
    path = tmp_path / "x.as"
    if answer_set is not None:
        path.write_text(answer_set)
    # Whether the collector ran while the program was parsed.
    seen = []
    parse = cli.parse_program
    monkeypatch.setattr(
        cli, "parse_program", lambda text: seen.append(gc.isenabled()) or parse(text)
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(capsys, "explain", fx("example41.lp"), str(path), "a")[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


_Q8 = [fx("q8.lp"), fx("q8.as"), 'what_be_genes("CASK")', "--lookup", fx("q8.lookup")]
# (argv, exit code) per command.
_COMMANDS = {
    **{"explain-%s-%s" % (mode, fmt): (["explain", *_Q8, "--mode", mode, "--format", fmt], 0)
       for mode in ("shortest", "kdiff") for fmt in ("text", "nl", "json", "dot")},
    "explain-verify": (["explain", fx("example41.lp"), fx("example41.as"), "a", "--verify"], 0),
    "enumerate": (["enumerate", fx("example44.lp"), fx("example44.as"), "a"], 0),
    "verify": (["verify", fx("example41.lp"), fx("example41.as")], 0),
    "jst2exp": (["convert", "jst2exp", fx("example41.lp"), fx("example41.as"), "a",
                 fx("fig_jst.json")], 0),
    "exp2jst": (["convert", "exp2jst", fx("threerule.lp"), fx("threerule.as"), "a",
                 fx("exp_tree.json")], 0),
    "parse-error": (["explain", fx("example41.lp"), fx("q8.lookup"), "a"], 2),
    "missing-file": (["explain", fx("nope.lp"), fx("example41.as"), "a"], 2),
}


@pytest.mark.parametrize("argv, code", _COMMANDS.values(), ids=_COMMANDS.keys())
def test_command_leaves_no_cyclic_garbage(capsys, argv, code):
    # The collector is off while a command runs, which is safe only if
    # reference counting frees all that the command makes.
    main(list(argv))  # builds the argument parser and other one-time state
    gc.collect()
    assert main(list(argv)) == code
    assert gc.collect() == 0
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_collector_off_while_the_engine_runs_and_restored(capsys, monkeypatch, enabled):
    seen = []
    shortest = engine.shortest_explanation

    def spy(*args):
        seen.append(gc.isenabled())
        return shortest(*args)

    def fail(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("not caught by main")

    argv = ["explain", fx("example41.lp"), fx("example41.as"), "a"]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(engine, "shortest_explanation", spy)
        assert run(capsys, *argv)[0] == 0
        assert gc.isenabled() is enabled
        # An exception main does not catch still restores the collector.
        monkeypatch.setattr(engine, "shortest_explanation", fail)
        with pytest.raises(RuntimeError):
            main(argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


@pytest.mark.parametrize("argv", [
    ["explain", fx("q8.lp"), fx("q8.as"), "-x"],
    ["explain", fx("q8.lp"), fx("q8.as"), "a", "--mode", "bogus"],
    [],
], ids=["missing atom", "bad mode", "missing command"])
def test_malformed_command_line_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_query_atom_after_double_dash_is_read_as_an_atom(capsys):
    """``--`` ends the options, so a query atom that starts with ``-``
    reaches the atom parser, whose one-line error it gets, instead of
    argparse reading it as an option and asking for the atom."""
    assert run(capsys, "explain", fx("q8.lp"), fx("q8.as"), "--", "-p") == (
        2, "", "error: unexpected character '-' (line 1, column 1)\n"
    )


BREAKS = pytest.mark.parametrize(
    "brk, shown", [("\r", "\\r"), ("\u2028", "\\u2028")], ids=["CR", "U+2028"]
)


class TestOneLinePerMessage:
    """A character ``str.splitlines`` breaks at, quoted from the input
    into a message on stderr, is escaped as ``repr`` escapes it, so each
    message stays one line."""

    @BREAKS
    @pytest.mark.parametrize("command", [["explain"], ["enumerate"], ["convert", "jst2exp"]])
    def test_atom_not_in_answer_set(self, capsys, brk, shown, command):
        argv = command + [fx("q8.lp"), fx("q8.as"), 'p("a%sb")' % brk]
        if command[0] == "convert":
            argv.append(fx("fig_jst.json"))
        err = 'atom not in answer set: p("a%sb")\n' % shown
        assert run(capsys, *argv) == (1, "", err)

    # The file reader turns a carriage return into a line feed, so a
    # program file is given the two breaks it keeps.
    @pytest.mark.parametrize(
        "brk, shown", [("\u2028", "\\u2028"), ("\x85", "\\x85")], ids=["U+2028", "NEL"]
    )
    def test_not_an_answer_set(self, tmp_path, capsys, brk, shown):
        prog, ans = tmp_path / "p.lp", tmp_path / "p.as"
        prog.write_text('p("a%sb").\n' % brk, encoding="utf-8")
        ans.write_text("")
        err = 'not an answer set: unsatisfied rule: p("a%sb").\n' % shown
        assert run(capsys, "verify", str(prog), str(ans)) == (1, "", err)

    def test_other_characters_print_as_written(self, capsys):
        argv = ["explain", fx("q8.lp"), fx("q8.as"), 'p("Ä\tö")']
        assert run(capsys, *argv) == (1, "", 'atom not in answer set: p("Ä\tö")\n')

    @BREAKS
    def test_error_line(self, capsys, monkeypatch, brk, shown):
        def fail(P, X, p):
            raise ValueError("no%sway" % brk)

        monkeypatch.setattr(engine, "shortest_explanation", fail)
        argv = ["explain", fx("example41.lp"), fx("example41.as"), "a"]
        assert run(capsys, *argv) == (2, "", "error: no%sway\n" % shown)

    @BREAKS
    def test_warning_line(self, capsys, monkeypatch, brk, shown):
        def warn(text):
            warnings.warn("odd%sentry" % brk)
            return LookupTable()

        monkeypatch.setattr(cli, "parse_lookup", warn)
        argv = ["explain", fx("example41.lp"), fx("example41.as"), "a", "--lookup",
                fx("q8.lookup")]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "warning: odd%sentry\n" % shown)

    @BREAKS
    def test_command_line_error(self, capsys, brk, shown):
        with pytest.raises(SystemExit) as exc:
            main(["explain", fx("q8.lp"), fx("q8.as"), "a", "b%sc" % brk])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: b%sc\n" % shown


class TestNonGroundQuery:
    """A query atom with a variable is an input error for every command
    that takes one."""

    ERR = "error: query atom must be ground (line 1, column 1)\n"

    @pytest.mark.parametrize("command", [
        ["explain"], ["explain", "--mode", "kdiff"], ["enumerate"],
        ["convert", "jst2exp"], ["convert", "exp2jst"],
    ], ids=["explain", "explain-kdiff", "enumerate", "jst2exp", "exp2jst"])
    def test_exit_code(self, capsys, command):
        argv = command + [fx("threerule.lp"), fx("threerule.as"), "a(X)"]
        if command[0] == "convert":
            jst = command[1] == "jst2exp"
            argv.append(fx("fig_jst.json" if jst else "exp_tree.json"))
        assert run(capsys, *argv) == (2, "", self.ERR)


class TestVerify:
    def test_accepts_answer_set(self, capsys):
        code, out, _ = run(capsys, "verify", fx("example41.lp"), fx("example41.as"))
        assert code == 0
        assert "verified" in out

    def test_unsatisfied_rule(self, tmp_path, capsys):
        prog = tmp_path / "p.lp"
        prog.write_text("p :- not q.\n")
        empty = tmp_path / "empty.as"
        empty.write_text("")
        code, _, err = run(capsys, "verify", str(prog), str(empty))
        assert code == 1
        assert "unsatisfied rule" in err

    def test_not_minimal(self, tmp_path, capsys):
        prog = tmp_path / "p.lp"
        prog.write_text("p :- not q.\n")
        big = tmp_path / "big.as"
        big.write_text("p q")
        code, _, err = run(capsys, "verify", str(prog), str(big))
        assert code == 1
        assert "not subset-minimal" in err

    def test_long_chain(self, tmp_path, capsys):
        """A 10^4-step chain verifies with no size cap; one atom too
        many names the least model as the smaller model."""
        n = 10**4
        prog = tmp_path / "chain.lp"
        prog.write_text("c0.\n" + "".join(
            "c%d :- c%d, not d%d.\n" % (i + 1, i, i) for i in range(n)
        ))
        chain = ["c%d" % i for i in range(n + 1)]
        ans = tmp_path / "chain.as"
        ans.write_text(" ".join(chain))
        assert run(capsys, "verify", str(prog), str(ans)) == (
            0, "answer set verified\n", ""
        )
        ans.write_text(" ".join(chain + ["u"]))
        assert run(capsys, "verify", str(prog), str(ans)) == (
            1, "",
            "not an answer set: not subset-minimal: {%s} already satisfies "
            "the reduct\n" % ", ".join(sorted(chain)),
        )

    def test_cardinality_exit_code(self, tmp_path, capsys):
        prog = tmp_path / "card.lp"
        prog.write_text("a :- 1 {b; c} 2.\nb.\nc.\n")
        ans = tmp_path / "card.as"
        ans.write_text("a b c")
        code, out, err = run(capsys, "verify", str(prog), str(ans))
        assert code == 2 and out == ""
        assert err == (
            "error: cardinality expressions not supported in verification\n"
        )

    def test_irrelevant_cardinality_rule(self, tmp_path, capsys):
        """A cardinality rule whose positive body is not in the set can
        neither fire nor be violated, so it does not stop verification."""
        prog = tmp_path / "card.lp"
        prog.write_text("a :- d, 1 {b; c} 2.\nb.\nc.\n")
        ans = tmp_path / "card.as"
        ans.write_text("b c")
        assert run(capsys, "verify", str(prog), str(ans)) == (
            0, "answer set verified\n", ""
        )

    def test_reachability_over_many_constants(self, tmp_path, capsys):
        """Reachability along a 1,000-node path: the whole grounding has
        about 10^6 instances, but verification and conversion only ground
        the rules whose positive body lies in the answer set."""
        n = 1000
        nodes = ["n%d" % i for i in range(n)]
        edges = ["edge(%s,%s)" % (a, b) for a, b in zip(nodes, nodes[1:])]
        reach = ["reach(%s)" % v for v in nodes]
        prog = tmp_path / "reach.lp"
        prog.write_text(
            "start(n0).\n" + "".join(e + ".\n" for e in edges)
            + "reach(V) :- start(V).\nreach(W) :- reach(V), edge(V,W).\n"
        )
        ans = tmp_path / "reach.as"
        ans.write_text(" ".join(["start(n0)"] + edges + reach))
        assert run(capsys, "verify", str(prog), str(ans)) == (
            0, "answer set verified\n", ""
        )
        assert run(
            capsys, "explain", str(prog), str(ans), "reach(n1)", "--verify"
        ) == (0, "reach(n1) :- reach(n0), edge(n0,n1).\n  reach(n0) :- start(n0).\n"
              "    start(n0).\n  edge(n0,n1).\n", "")
        labels = [
            ("atom", "reach(n2)"), ("rule", "reach(n2) :- reach(n1), edge(n1,n2)"),
            ("atom", "reach(n1)"), ("rule", "reach(n1) :- reach(n0), edge(n0,n1)"),
            ("atom", "reach(n0)"), ("rule", "reach(n0) :- start(n0)"),
            ("atom", "start(n0)"), ("rule", "start(n0)"),
            ("atom", "edge(n0,n1)"), ("rule", "edge(n0,n1)"),
            ("atom", "edge(n1,n2)"), ("rule", "edge(n1,n2)"),
        ]
        links = [(0, 1), (1, 2), (1, 10), (2, 3), (3, 4), (3, 8), (4, 5),
                 (5, 6), (6, 7), (8, 9), (10, 11)]
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "kind": "tree", "root": 0,
            "vertices": [{"id": i, "label_kind": k, "label_text": t}
                         for i, (k, t) in enumerate(labels)],
            "edges": [{"from": a, "to": b} for a, b in links],
        }))
        code, out, _ = run(
            capsys, "convert", "exp2jst", str(prog), str(ans), "reach(n2)",
            str(tree),
        )
        assert code == 0
        doc = json.loads(out)
        text = {v["id"]: v["label_text"] for v in doc["vertices"]}
        assert {(text[e["from"]], text[e["to"]], e["sign"]) for e in doc["edges"]} == {
            ("reach(n2)", "reach(n1)", "+"), ("reach(n2)", "edge(n1,n2)", "+"),
            ("reach(n1)", "reach(n0)", "+"), ("reach(n1)", "edge(n0,n1)", "+"),
            ("reach(n0)", "start(n0)", "+"), ("edge(n1,n2)", "top", "+"),
            ("edge(n0,n1)", "top", "+"), ("start(n0)", "top", "+"),
        }
        egraph = tmp_path / "egraph.json"
        egraph.write_text(out)
        code, out, _ = run(
            capsys, "convert", "jst2exp", str(prog), str(ans), "reach(n2)",
            str(egraph),
        )
        assert code == 0
        assert sorted(
            v["label_text"] for v in json.loads(out)["vertices"]
            if v["label_kind"] == "atom"
        ) == sorted(["reach(n2)", "reach(n1)", "reach(n0)", "edge(n1,n2)",
                     "edge(n0,n1)", "start(n0)"])


class TestConvert:
    def test_jst2exp(self, capsys):
        code, out, _ = run(
            capsys, "convert", "jst2exp", fx("example41.lp"),
            fx("example41.as"), "a", fx("fig_jst.json"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "tree"
        assert len(doc["vertices"]) == 8

    def test_exp2jst(self, capsys):
        code, out, _ = run(
            capsys, "convert", "exp2jst", fx("threerule.lp"),
            fx("threerule.as"), "a", fx("exp_tree.json"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "egraph"
        assert len(doc["edges"]) == 4

    @pytest.mark.parametrize("direction, name, structure", [
        ("jst2exp", "example41", "fig_jst.json"),
        ("exp2jst", "threerule", "exp_tree.json"),
    ])
    def test_atom_not_in_answer_set(self, capsys, direction, name, structure):
        got = run(
            capsys, "convert", direction, fx(name + ".lp"), fx(name + ".as"),
            "zz", fx(structure),
        )
        assert got == (1, "", "atom not in answer set: zz\n")

    @pytest.mark.parametrize(
        "name", ["example41", "example44", "q8", "threerule"]
    )
    def test_exp2jst_reads_explain_json(self, tmp_path, capsys, name):
        import aspexplain as ax

        P = ax.parse_program(fixture_text(name + ".lp"))
        X = ax.parse_answer_set(fixture_text(name + ".as"))
        G = ax.ground_program(P, X)
        for p in sorted(X.atoms):
            code, out, _ = run(
                capsys, "explain", fx(name + ".lp"), fx(name + ".as"), p.text,
                "--format", "json",
            )
            assert code == 0 and json.loads(out)["kind"] == "explanation"
            path = tmp_path / "expl.json"
            path.write_text(out)
            code, out, err = run(
                capsys, "convert", "exp2jst", fx(name + ".lp"),
                fx(name + ".as"), p.text, str(path),
            )
            e = ax.shortest_explanation(P, X, p)
            try:
                want = ax.emit_json(ax.explanation_to_justification(
                    G, X, p, explanation_tree_of(e, e.andor)))
            except ValueError as exc:
                assert (code, err) == (2, "error: %s\n" % exc)
            else:
                assert (code, out) == (0, want)

    def test_egraph_error_independent_of_hash_seed(self, tmp_path):
        """exp_tree.json rooted at q8's start_gene("ADRB1") gives an
        e-graph with two atom sinks, b+ and c+, as neither is a fact of
        q8; the error names the smaller one whatever the set iteration
        order."""
        import aspexplain as ax

        tree = ax.parse_json(fixture_text("exp_tree.json"))
        root = ax.parse_atom('start_gene("ADRB1")')
        rule = tree.labels[1]
        path = tmp_path / "tree.json"
        path.write_text(ax.emit_json(ax.VertexLabeledTree(
            0, {**tree.labels, 0: root, 1: ax.Rule(root, *rule[1:])},
            tree.children,
        )))
        src = str(Path(ax.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        argv = [
            sys.executable, "-m", "aspexplain.cli", "convert", "exp2jst",
            fx("q8.lp"), fx("q8.as"), 'start_gene("ADRB1")', str(path),
        ]
        for seed in ("0", "5"):
            env["PYTHONHASHSEED"] = seed
            r = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert (r.returncode, r.stdout, r.stderr) == (
                2, "", "error: only assume/top/bot may be sinks: b+\n"
            ), seed

    def test_outputs_independent_of_hash_seed(self, tmp_path):
        """Six commands print the same under two hash seeds."""
        import aspexplain as ax

        program, answer_set = complete_text(7)
        (tmp_path / "k7.lp").write_text(program)
        (tmp_path / "k7.as").write_text(answer_set)
        k7 = [str(tmp_path / "k7.lp"), str(tmp_path / "k7.as")]
        q8 = [fx("q8.lp"), fx("q8.as")]
        commands = [
            ["explain", *k7, "p3", "--mode", "kdiff", "-k", "3", "--format", "json"],
            ["enumerate", fx("example41.lp"), fx("example41.as"), "a"],
            ["explain", *q8, 'what_be_genes("CASK")', "--format", "nl",
             "--lookup", fx("q8.lookup")],
            ["verify", *q8],
            ["convert", "exp2jst", fx("threerule.lp"), fx("threerule.as"), "a",
             fx("exp_tree.json")],
            ["convert", "jst2exp", fx("example41.lp"), fx("example41.as"), "a",
             fx("fig_jst.json")],
        ]
        src = str(Path(ax.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        for argv in commands:
            seen = []
            for seed in ("0", "1"):
                env["PYTHONHASHSEED"] = seed
                r = subprocess.run(
                    [sys.executable, "-m", "aspexplain.cli", *argv],
                    env=env, capture_output=True, text=True,
                )
                seen.append((r.returncode, r.stdout, r.stderr))
            assert seen[0][0] == 0 and seen[0][1], argv
            assert seen[0] == seen[1], argv

    def test_long_chain_both_ways(self, tmp_path, capsys):
        """A 10^4-node chain justification converts to a tree and back
        to the same e-graph. Each way takes about a second on a 2-vCPU
        Xeon, most of it parsing, grounding and JSON; a per-node scan of
        all edges would take minutes, and recursion fails near 5,000
        nodes."""
        import aspexplain as ax

        n, seconds = 10**4, 5.0
        prog = tmp_path / "chain.lp"
        prog.write_text("c0.\n" + "".join(
            "c%d :- c%d.\n" % (i + 1, i) for i in range(n - 1)
        ))
        ans = tmp_path / "chain.as"
        ans.write_text(" ".join("c%d" % i for i in range(n)))
        nodes = [ax.AnnotatedAtom(ax.Atom("c%d" % i), "+") for i in range(n)]
        edges = [(nodes[i + 1], nodes[i], "+") for i in range(n - 1)]
        egraph = ax.emit_json(ax.EGraph(
            frozenset(nodes + ["top"]),
            frozenset(edges + [(nodes[0], "top", "+")]),
        ))
        jst = tmp_path / "jst.json"
        jst.write_text(egraph)
        query = "c%d" % (n - 1)

        t0 = time.perf_counter()
        code, tree, err = run(
            capsys, "convert", "jst2exp", str(prog), str(ans), query, str(jst)
        )
        assert (code, err) == (0, "")
        assert time.perf_counter() - t0 < seconds
        assert len(json.loads(tree)["vertices"]) == 2 * n
        exp = tmp_path / "exp.json"
        exp.write_text(tree)

        t0 = time.perf_counter()
        assert run(
            capsys, "convert", "exp2jst", str(prog), str(ans), query, str(exp)
        ) == (0, egraph, "")
        assert time.perf_counter() - t0 < seconds

    def test_duplicate_labels_exit_code(self, tmp_path, capsys):
        """example41's largest explanation tree of ``a`` holds the fact
        ``c.`` twice; it converts, as each atom in it heads one rule."""
        import aspexplain as ax

        P = ax.parse_program((FIXTURES / "example41.lp").read_text())
        X = ax.parse_answer_set((FIXTURES / "example41.as").read_text())
        trees = [explanation_tree_of(e, e.andor)
                 for e in ax.enumerate_explanations(P, X, ax.parse_atom("a"))]
        big = max(trees, key=len)
        rules = [big.labels[v].text for v in big.preorder() if big.is_rule_vertex(v)]
        assert rules.count("c") == 2
        path = tmp_path / "dup.json"
        path.write_text(ax.emit_json(big))
        code, out, err = run(
            capsys, "convert", "exp2jst", fx("example41.lp"),
            fx("example41.as"), "a", str(path),
        )
        G = ax.explanation_to_justification(
            ax.ground_program(P, X), X, ax.parse_atom("a"), big)
        assert (code, out, err) == (0, ax.emit_json(G), "")

    def test_exp2jst_refuses_an_explanation_of_another_atom(self, tmp_path, capsys):
        """The explanation of ``a`` is no explanation of ``b``."""
        code, out, _ = run(
            capsys, "explain", fx("threerule.lp"), fx("threerule.as"), "a",
            "--format", "json",
        )
        assert code == 0
        path = tmp_path / "a.json"
        path.write_text(out)
        for doc in (str(path), fx("exp_tree.json")):
            assert run(
                capsys, "convert", "exp2jst", fx("threerule.lp"),
                fx("threerule.as"), "b", doc,
            ) == (2, "", "error: explanation of a, not of the queried atom b\n")

    def test_exp2jst_refuses_a_rule_under_an_atom_it_does_not_head(
        self, tmp_path, capsys
    ):
        """The fact ``c.`` under the atom ``a`` would claim that ``a`` is a
        fact of the reduct."""
        path = tmp_path / "wrong-head.json"
        path.write_text(json.dumps({
            "kind": "tree", "root": 0, "edges": [{"from": 0, "to": 1}],
            "vertices": [{"id": 0, "label_kind": "atom", "label_text": "a"},
                         {"id": 1, "label_kind": "rule", "label_text": "c"}],
        }))
        assert run(
            capsys, "convert", "exp2jst", fx("threerule.lp"),
            fx("threerule.as"), "a", str(path),
        ) == (2, "", "error: atom vertex a has the rule child c of another head\n")

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "tree", "root": 0, "edges": [],
             "vertices": [{"id": 0, "label_text": "a"}]},
            [],
            {"kind": "tree", "root": 0, "edges": [{"from": 5, "to": 0}],
             "vertices": [{"id": 0, "label_kind": "atom", "label_text": "a"}]},
            {"kind": "tree", "root": 0,
             "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 0}],
             "vertices": [{"id": 0, "label_kind": "atom", "label_text": "a"},
                          {"id": 1, "label_kind": "rule", "label_text": "a"}]},
            {"kind": "tree", "root": 0, "edges": [],
             "vertices": [{"id": 0, "label_kind": "rule", "label_text": "a"}]},
            {"kind": "explanation", "root": 0, "edges": [],
             "vertices": [{"id": 0, "label_kind": "atom", "label_text": "a"}]},
            {"kind": "explanation", "root": 0, "edges": [],
             "vertices": [{"id": 0, "label_kind": "rule",
                           "label_text": ":- b"}]},
        ],
        ids=["no-label-kind", "top-level-array", "unknown-edge-source",
             "cycle", "rule-root", "explanation-atom", "explanation-constraint"],
    )
    def test_malformed_input_exit_code(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "convert", "exp2jst", fx("example41.lp"),
            fx("example41.as"), "a", str(path),
        )
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000,
         '{"a": ' * 200_000 + "0" + "}" * 200_000],
        ids=["arrays", "objects"],
    )
    def test_deeply_nested_json_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert run(
            capsys, "convert", "exp2jst", fx("example41.lp"),
            fx("example41.as"), "a", str(path),
        ) == (2, "", "error: JSON nested too deeply (line 1, column 1)\n")

    @pytest.mark.parametrize("text, message", [
        ("", "Expecting value (line 1, column 1)"),
        ('{\n  "kind": "tree",\n  "root": 0,\n}', "Expecting property name enclosed"
         " in double quotes (line 4, column 1)"),
    ])
    def test_malformed_json_is_a_parse_error(self, tmp_path, capsys, text, message):
        """Text that is not JSON, such as the empty file a refused
        conversion leaves, is refused as any reader refuses input: the
        message, then the line and column."""
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(
            capsys, "convert", "jst2exp", fx("example41.lp"),
            fx("example41.as"), "a", str(path),
        ) == (2, "", "error: %s\n" % message)

    def test_exp2jst_reads_one_explanation_not_the_kdiff_array(self, tmp_path, capsys):
        """``exp2jst`` reads one explanation document. With two or more
        explanations, ``explain --mode kdiff --format json`` prints an
        array of them, which ``exp2jst`` refuses; an element of it
        converts, here the second, as the first repeats a rule label."""
        files = [fx("example41.lp"), fx("example41.as"), "a"]
        code, out, _ = run(capsys, "explain", *files, "--mode", "kdiff", "--format", "json")
        docs = json.loads(out)
        assert code == 0 and isinstance(docs, list) and len(docs) == 2
        path = tmp_path / "kdiff.json"
        path.write_text(out)
        assert run(capsys, "convert", "exp2jst", *files, str(path)) == (
            2, "", "error: expected a JSON object (line 1, column 1)\n"
        )
        path.write_text(json.dumps(docs[1]))
        code, out, _ = run(capsys, "convert", "exp2jst", *files, str(path))
        assert code == 0 and json.loads(out)["kind"] == "egraph"

    def _ladder_files(self, tmp_path, n):
        program, answer_set, G = ladder_justification(n)
        (tmp_path / "ladder.lp").write_text(program)
        (tmp_path / "ladder.as").write_text(answer_set)
        (tmp_path / "jst.json").write_text(emit_json(G))
        return [str(tmp_path / name) for name in ("ladder.lp", "ladder.as")] + [
            "x%d" % n, str(tmp_path / "jst.json")
        ]

    def test_jst2exp_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        """The ladder of 5 rungs encodes a 188-vertex tree."""
        argv = ["convert", "jst2exp"] + self._ladder_files(tmp_path, 5)
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 188)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["vertices"]) == 188
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 187)
        assert run(capsys, *argv) == (
            2, "", "error: cap exceeded: more than 187 explanation tree vertices\n"
        )

    def test_jst2exp_ladder_stops_at_the_cap(self, tmp_path, capsys):
        """A 62-node ladder e-graph encodes a tree of about 6 * 10^9
        vertices; the conversion stops at the cap of 10^6 within about
        a second, where copying shared nodes without a cap would run out
        of memory."""
        argv = ["convert", "jst2exp"] + self._ladder_files(tmp_path, 30)
        t0 = time.perf_counter()
        assert run(capsys, *argv) == (
            2, "", "error: cap exceeded: more than %d explanation tree vertices\n"
            % engine.MAX_TREE_VERTICES,
        )
        assert time.perf_counter() - t0 < 20.0


class TestEnumerate:
    def test_example(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", fx("example41.lp"), fx("example41.as"), "a"
        )
        assert code == 0
        assert "2 explanation(s)" in out
        assert "size 2" in out and "size 4" in out

    def test_fact_program(self, tmp_path, capsys):
        prog = tmp_path / "p.lp"
        prog.write_text("p.\n")
        ans = tmp_path / "p.as"
        ans.write_text("p")
        code, out, _ = run(capsys, "enumerate", str(prog), str(ans), "p")
        assert code == 0
        assert "1 explanation(s)" in out

    def test_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "enumerate", fx("example41.lp"), fx("example41.as"), "a",
            "--max-expl", "1",
        )
        assert code == 2
        assert "cap exceeded" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_exit_code(self, capsys, cap):
        code, out, err = run(
            capsys, "enumerate", fx("example41.lp"), fx("example41.as"), "a",
            "--max-expl", cap,
        )
        assert (code, out, err) == (2, "", "error: cap must be positive\n")


CHAIN_STEPS = 10**4


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    program, answer_set = chain_text(CHAIN_STEPS)
    d = tmp_path_factory.mktemp("chain")
    (d / "chain.lp").write_text(program)
    (d / "chain.as").write_text(answer_set)
    return str(d / "chain.lp"), str(d / "chain.as"), "c%d" % CHAIN_STEPS


class TestDeepChain:
    """A 10^4-step chain through every output path. Each command takes
    about a second on a 2-vCPU Xeon; a recursive tree builder fails at a
    few hundred steps."""

    SECONDS = 20.0

    @pytest.mark.parametrize("mode", ["shortest", "kdiff"])
    @pytest.mark.parametrize("fmt", ["text", "nl", "dot", "json"])
    def test_explain(self, chain_files, capsys, mode, fmt):
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "explain", *chain_files, "--mode", mode, "--format", fmt
        )
        assert time.perf_counter() - t0 < self.SECONDS
        assert (code, err) == (0, "")
        n = CHAIN_STEPS
        if fmt == "json":
            assert len(json.loads(out)["vertices"]) == n + 1
        elif fmt == "dot":
            assert out.count(" -> ") == n
        else:
            lines = out.splitlines()
            assert len(lines) == n + 1
            assert lines[-1] == "  " * n + ("c0." if fmt == "text" else "c0")

    def test_enumerate(self, chain_files, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "enumerate", *chain_files)
        assert time.perf_counter() - t0 < self.SECONDS
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "explanation 1 (size %d):" % (CHAIN_STEPS + 1)
        assert lines[-2:] == ["  " * CHAIN_STEPS + "c0.", "1 explanation(s)"]


class TestOutputCap:
    """Text and nl output indent two spaces per level, so a deep
    derivation prints about depth² characters. Past
    ``nl.MAX_OUTPUT_CHARS``, lowered here to the size of a 30-step
    chain's output, a command prints one error line and exits 2."""

    @pytest.fixture
    def files(self, tmp_path):
        program, answer_set = chain_text(30)
        (tmp_path / "chain.lp").write_text(program)
        (tmp_path / "chain.as").write_text(answer_set)
        return str(tmp_path / "chain.lp"), str(tmp_path / "chain.as"), "c30"

    @staticmethod
    def error(cap: int) -> str:
        return "error: cap exceeded: more than %d characters of output\n" % cap

    @pytest.mark.parametrize("mode", ["shortest", "kdiff"])
    @pytest.mark.parametrize("fmt", ["text", "nl"])
    def test_explain(self, files, capsys, monkeypatch, mode, fmt):
        argv = ("explain", *files, "--mode", mode, "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.count("\n") == 31
        monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", len(out))
        assert run(capsys, *argv) == (0, out, "")
        monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", len(out) - 1)
        assert run(capsys, *argv) == (2, "", self.error(len(out) - 1))

    @pytest.mark.parametrize("fmt", ["text", "nl"])
    def test_kdiff_holds_one_explanation_at_a_time(self, tmp_path, capsys,
                                                   monkeypatch, fmt):
        """The cap holds per explanation: ``explain`` writes each one once
        it is rendered, so two deep explanations whose output together
        passes the cap still print, and one past it stops the command
        after the ones before it."""
        program = "c0 :- a.\na.\nc0 :- bbbbbb.\nbbbbbb.\n" + "".join(
            "c%d :- c%d.\n" % (i + 1, i) for i in range(30))
        (tmp_path / "two.lp").write_text(program)
        (tmp_path / "two.as").write_text(
            "a bbbbbb " + " ".join("c%d" % i for i in range(31)))
        argv = ("explain", str(tmp_path / "two.lp"), str(tmp_path / "two.as"),
                "c30", "--mode", "kdiff", "--format", fmt)
        code, out, err = run(capsys, *argv)
        first, second = out.split("\n\n")
        first += "\n"
        assert (code, err) == (0, "") and len(first) < len(second)
        monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", len(second))
        assert run(capsys, *argv) == (0, out, "") and len(out) > len(second)
        monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", len(first))
        assert run(capsys, *argv) == (2, first, self.error(len(first)))
        monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", len(first) - 1)
        assert run(capsys, *argv) == (2, "", self.error(len(first) - 1))

    def test_enumerate(self, files, capsys, monkeypatch):
        code, out, err = run(capsys, "enumerate", *files)
        header, *lines, footer = out.splitlines(keepends=True)
        assert (code, err, footer) == (0, "", "1 explanation(s)\n")
        size = len("".join(lines))
        monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", size)
        assert run(capsys, "enumerate", *files) == (0, out, "")
        monkeypatch.setattr(nl, "MAX_OUTPUT_CHARS", size - 1)
        assert run(capsys, "enumerate", *files) == (2, "", self.error(size - 1))


def test_k10_kdiff_in_bounded_time_and_memory(tmp_path, capsys):
    """``explain --mode kdiff -k 3`` on ``K_10``, whose and-or tree has
    548,004 vertices: 6,154 built, and the rest in copied ranges that
    are resolved, not stored. On a 2-vCPU Xeon it takes about 0.08 s
    and peaks at 3.2 MB traced; writing every copy out took 0.9 s and
    peaked at 159 MB."""
    program, answer_set = complete_text(10)
    prog, ans = tmp_path / "k10.lp", tmp_path / "k10.as"
    prog.write_text(program)
    ans.write_text(answer_set)
    argv = ("explain", str(prog), str(ans), "p9", "--mode", "kdiff", "-k", "3",
            "--format", "json")
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 0.5
    assert (code, err) == (0, "")
    docs = json.loads(out)
    assert [(d["root"], len(d["vertices"])) for d in docs] == [
        (4, 10), (68504, 10), (137004, 10)
    ]
    tracemalloc.start()
    try:
        assert run(capsys, *argv)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _readme_block(text: str, after: str, lang: str) -> str:
    """The first fenced ``lang`` block after the line ``after``."""
    rest = text[text.index(after + "\n"):]
    start = rest.index("```%s\n" % lang) + len("```%s\n" % lang)
    return rest[start:rest.index("```\n", start)]


def test_readme_quick_start(tmp_path, capsys):
    """Each quick-start command in README.md prints what README shows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (tmp_path / "program.lp").write_text(
        _readme_block(readme, "`program.lp`:", "prolog"))
    (tmp_path / "program.as").write_text(_readme_block(
        readme, "`program.as` (one answer set, whitespace-separated atoms):", ""))
    session = _readme_block(readme, "## Quick start", "sh")
    commands = session.split("$ aspexplain ")[1:]
    assert len(commands) == 3
    for command in commands:
        line, shown = command.split("\n", 1)
        argv = [str(tmp_path / a) if a.startswith("program.") else a
                for a in line.split()]
        assert run(capsys, *argv) == (0, shown.rstrip("\n") + "\n", "")


@pytest.mark.parametrize("n, limit, message", [
    (40, 1 << 30, "more than 1000000 partial substitutions in one join"),
    (15, 1 << 29, "more than 250000 ground instances"),
], ids=["40-constants", "15-constants"])
@pytest.mark.parametrize("command", [
    ["explain", "LP", "AS", "p"],
    ["verify", "LP", "AS"],
    ["enumerate", "LP", "AS", "p"],
    ["convert", "exp2jst", "LP", "AS", "p", fx("exp_tree.json")],
], ids=["explain", "verify", "enumerate", "convert"])
def test_grounding_cap_exit_code_under_a_memory_limit(tmp_path, command, n, limit, message):
    """``p :- q(A), ..., q(E).`` has n^5 ground instances. Over 40
    constants grounding it once ended in a MemoryError traceback; over
    15, ``verify`` built all 759,375 at 727 MB and exited 0. Each
    command stops with one line and exit 2: at 40 the fourth join step
    passes the width cap, at 15 the last step passes the instance
    budget. Measured at 1-2 s and under 260 MB peak RSS each (2-vCPU
    Xeon)."""
    seconds = 30
    paths = {"LP": tmp_path / "p.lp", "AS": tmp_path / "p.as"}
    paths["LP"].write_text(
        "".join("q(%d).\n" % i for i in range(n)) + "p :- q(A), q(B), q(C), q(D), q(E).\n"
    )
    paths["AS"].write_text(" ".join("q(%d)" % i for i in range(n)) + " p\n")
    argv = [str(paths.get(a, a)) for a in command]
    t0 = time.perf_counter()
    r = _cli_under_limit(argv, limit, 5 * seconds)
    assert time.perf_counter() - t0 < seconds
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: cap exceeded: %s\n" % message)


def _cli_under_limit(argv, limit, timeout):
    """``python -m aspexplain.cli argv`` in a fresh process whose
    address space is limited to ``limit`` bytes."""
    resource = pytest.importorskip("resource")
    import aspexplain as ax

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ax.__file__).parents[1])] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "aspexplain.cli", *argv], env=env, capture_output=True,
        text=True, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize("command", ["explain", "verify"])
def test_out_of_memory_exit_code(tmp_path, command):
    """Reading the 10^5 facts of :func:`conftest.knowledge_base_text`
    takes about 120 MB. Under a 64 MiB address-space limit, past what
    the interpreter and the argument parser need, ``explain`` and
    ``verify`` once ended in a ``MemoryError`` traceback from the
    program reader, with exit 1, which means "not in the answer set".
    Each ends with one line and exit 2."""
    program, answer_set, query = knowledge_base_text(100_000)
    (tmp_path / "kb.lp").write_text(program)
    (tmp_path / "kb.as").write_text(answer_set)
    argv = [command, str(tmp_path / "kb.lp"), str(tmp_path / "kb.as")]
    r = _cli_under_limit(argv + [query] * (command == "explain"), 1 << 26, 150)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: cap exceeded: out of memory\n")

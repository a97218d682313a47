"""Tests of the benchmark itself: generators, reference checker, span
arithmetic and the metric lists in BENCHMARK.json.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""
from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path

import check
import run
import spans
import workloads
from check import CheckError, Reference

BENCH = Path(__file__).resolve().parent


def ground_rules(rules: list, constants: list) -> list:
    """Every instance of every rule over ``constants``."""
    out = []
    for h, pos, neg in rules:
        names = sorted({t for a in (h,) + pos + neg for t in a[1] if t[:1].isupper()})
        for combo in itertools.product(constants, repeat=len(names)):
            s = dict(zip(names, combo))

            def sub(a):
                return (a[0], tuple(s.get(t, t) for t in a[1]))
            out.append((sub(h), tuple(map(sub, pos)), tuple(map(sub, neg))))
    return out


def least_model(rules: list) -> frozenset:
    """Naive fixpoint of the positive parts of ``rules``."""
    X: set = set()
    while True:
        new = {h for h, pos, _ in rules if set(pos) <= X} - X
        if not new:
            return frozenset(X)
        X |= new


def brute_answer_sets(rules: list) -> list:
    """Every S over the rules' atoms with S = lfp(reduct of the rules by S)."""
    atoms = sorted({a for h, pos, neg in rules for a in (h,) + pos + neg})
    found = []
    for k in range(len(atoms) + 1):
        for S in map(frozenset, itertools.combinations(atoms, k)):
            reduct = [(h, pos, ()) for h, pos, neg in rules if not set(neg) & S]
            if least_model(reduct) == S:
                found.append(S)
    return found


def brute_min_size(rules: list, X: frozenset, a: tuple, above=frozenset()):
    """Smallest derivation of ``a`` that repeats no atom on a root path."""
    best = None
    for h, pos, neg in rules:
        if h != a or set(neg) & X or not set(pos) <= X or set(pos) & (above | {a}):
            continue
        sizes = [brute_min_size(rules, X, b, above | {a}) for b in pos]
        if None not in sizes:
            total = 1 + sum(sizes)
            best = total if best is None else min(best, total)
    return best


class GeneratorTest(unittest.TestCase):
    def test_stratified_answer_set_is_the_only_one(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(4, 8)
            atoms = [("a%d" % i, ()) for i in range(n)]
            strata = {a: i * 3 // n for i, a in enumerate(atoms)}
            rules = [(atoms[0], (), ())]
            for _ in range(2 * n):
                h = rng.choice(atoms)
                pos = tuple(rng.sample([a for a in atoms if strata[a] <= strata[h]], 1))
                lower = [a for a in atoms if strata[a] < strata[h]]
                neg = (rng.choice(lower),) if lower and rng.random() < 0.5 else ()
                rules.append((h, pos, neg))
            X = workloads.stratified_answer_set(rules, strata)
            self.assertEqual(brute_answer_sets(rules), [X])

    def test_verify_programs_have_the_target_size_and_an_unsupported_atom(self):
        rng = random.Random(3)
        for target in (7, 8):
            rules, X, u = workloads.random_stratified(rng, target)
            self.assertEqual(len(X), target)
            self.assertNotIn(u, X)
            self.assertFalse(any(u in pos + neg for _, pos, neg in rules))
            self.assertEqual(brute_answer_sets(rules), [X])

    def test_min_sizes_match_brute_force(self):
        rng = random.Random(11)
        for target in (7, 8, 9):
            rules, X, _ = workloads.random_stratified(rng, target)
            sizes = workloads.min_sizes(rules, X)
            for a in X:
                self.assertEqual(sizes[a], brute_min_size(rules, X, a))

    def test_gene_answer_set_matches_grounding(self):
        rng = random.Random(5)
        start, edges = workloads.gene_graph(rng, 14, 24, (2, 3, 3))
        X, reach = workloads.gene_answer_set(start, edges, 3)
        facts = [(workloads._atom("start_gene", start), (), ()),
                 (workloads._atom("max_chain_length", 3), (), ())]
        facts += [(workloads._atom("gene_gene_biogrid", a, b), (), ()) for a, b in edges]
        genes = sorted({g for e in edges for g in e} | {start})
        program = facts + ground_rules(workloads.gene_program(3), genes + ["1", "2", "3"])
        self.assertEqual(least_model(program), X)
        self.assertTrue(reach[3] - reach[2] - reach[1])

    def test_same_seed_same_inputs(self):
        texts = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as d:
                workloads.gene_reach(Path(d), 9)
                texts.append({p.name: p.read_text() for p in Path(d).iterdir()})
        self.assertEqual(texts[0], texts[1])


CHAIN = [(("c%d" % i, ()), (("c%d" % (i - 1), ()),) if i else (), ()) for i in range(4)]
CHAIN_REF = Reference(CHAIN + [(("x", ()), (("c0", ()),), (("c3", ()),))],
                      frozenset(("c%d" % i, ()) for i in range(4)))
GOOD = "c3 :- c2.\n  c2 :- c1.\n    c1 :- c0.\n      c0.\n"


class CheckerTest(unittest.TestCase):
    def test_accepts_a_correct_explanation(self):
        self.assertEqual(check.check_text(GOOD, CHAIN_REF, ("c3", ())), [4])

    def test_rejects_corrupted_text(self):
        corrupt = [
            GOOD.replace("      c0.\n", ""),                    # a body atom unexplained
            GOOD.replace("c2 :- c1.", "c2 :- c0."),             # children do not match
            GOOD.replace("c3 :- c2.", "c3 :- c1.").replace("  c2 :- c1.\n", ""),  # no such rule
            GOOD.replace("    c1", "     c1"),                  # broken indentation
            GOOD.replace("c0.\n", "c0\n"),                      # missing period
            GOOD + "c0.\n",                                     # second root
        ]
        for out in corrupt:
            with self.assertRaises(CheckError, msg=out):
                check.check_text(out, CHAIN_REF, ("c3", ()))
        with self.assertRaises(CheckError):
            check.check_text(GOOD, CHAIN_REF, ("c2", ()))      # wrong root

    def test_rejects_negative_body_in_X(self):
        out = "x :- c0, not c3.\n  c0.\n"
        with self.assertRaises(CheckError):
            check.check_text(out, CHAIN_REF, ("x", ()))

    def test_rejects_a_repeated_atom_on_a_path(self):
        ref = Reference([(("a", ()), (("b", ()),), ()), (("b", ()), (("a", ()),), ()),
                         (("b", ()), (), ())], frozenset({("a", ()), ("b", ())}))
        self.assertEqual(check.check_text("a :- b.\n  b.\n", ref, ("a", ())), [2])
        with self.assertRaises(CheckError):
            check.check_text("b :- a.\n  a :- b.\n    b.\n", ref, ("b", ()))

    def test_json_and_corruption(self):
        doc = {"kind": "explanation", "root": 1, "vertices": [
            {"id": 1, "label_kind": "rule", "label_text": "c1 :- c0"},
            {"id": 3, "label_kind": "rule", "label_text": "c0"}],
            "edges": [{"from": 1, "to": 3}]}
        self.assertEqual(check.check_json(json.dumps([doc]), CHAIN_REF, ("c1", ())), [2])
        doc["edges"] = []
        with self.assertRaises(CheckError):
            check.check_json(json.dumps(doc), CHAIN_REF, ("c1", ()))

    def test_nl_and_corruption(self):
        ref = Reference(CHAIN, CHAIN_REF.X, {("c%d" % i, 0): "step %d" % i for i in range(4)})
        self.assertEqual(check.check_nl("step 1\n  step 0\n", ref, ("c1", ())), [2])
        with self.assertRaises(CheckError):
            check.check_nl("step 2\n  step 0\n", ref, ("c2", ()))

    def test_egraph(self):
        out = json.dumps({"kind": "egraph", "root": None, "vertices": [
            {"id": 0, "label_kind": "pos_atom", "label_text": "a"},
            {"id": 1, "label_kind": "marker", "label_text": "top"}],
            "edges": [{"from": 0, "to": 1, "sign": "+"}]})
        check.check_egraph(out, {("a", "top", "+")})
        with self.assertRaises(CheckError):
            check.check_egraph(out, {("a", "top", "+"), ("a", "b", "+")})

    def test_quoted_arguments(self):
        a = check.parse_atom('g("A,B",2)')
        self.assertEqual(a, ("g", ('"A,B"', "2")))
        self.assertEqual(check.parse_rule('h("x") :- g("A,B",2), not k'),
                         (("h", ('"x"',)), (a,), (("k", ()),)))


class SpanTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        t = spans.Tracer()
        root = t.add("cli.main", 0.0, 10.0, -1, 0)
        a = t.add("parser.parse_program", 1.0, 4.0, root, 0)
        b = t.add("engine.create_tree", 5.0, 9.0, root, 0)
        t.add("model.supports", 6.0, 7.0, b, 0)
        t.add("model.supports", 7.5, 8.0, b, 0, error=True)
        t.add("cli.main", 10.0, 12.0, -1, 1)
        self.assertEqual(a, 1)
        self.assertEqual(list(spans.self_times(t)), [3.0, 3.0, 2.5, 1.0, 0.5, 2.0])
        s = spans.summarize(t, ops=2)
        self.assertEqual(s["cli.main.self_ms"], 2500.0)
        self.assertEqual(s["model.supports.calls"], 1.0)
        self.assertEqual(s["model.supports.errors"], 0.5)
        self.assertEqual(s["layer.model.self_ms"], 750.0)
        self.assertEqual(s["trace.spans"], 3.0)

    def test_wrappers_record_nested_spans_and_are_absent_by_default(self):
        sys.path.insert(0, str(run.SRC))
        try:
            import aspexplain.cli as cli
            self.assertEqual(spans.installed(), 0)
            with tempfile.TemporaryDirectory() as d:
                wl = workloads.dense_support(Path(d), 1)
                op = wl.round(random.Random(1))[0]
                t = spans.Tracer()
                self.assertGreater(spans.install(t), len(spans.TARGETS))
                self.assertGreater(spans.installed(), 0)
                t.begin_op(0)
                self.assertEqual(run.run_op(cli, op), (unittest.mock.ANY, ""))
                t.end_op()
            names = [t.names[i] for i in t.name]
            self.assertEqual(names[0], "cli.main")
            self.assertEqual(t.parent[0], -1)
            tree = names.index("engine.create_tree")
            self.assertIn(names[t.parent[tree]],
                          ("engine.shortest_explanation", "engine.k_different"))
            self.assertIn("model.supports", names)
            self.assertTrue(all(p < i for i, p in enumerate(t.parent)))
        finally:
            for name in [n for n in sys.modules if n.startswith("aspexplain")]:
                del sys.modules[name]
            sys.path.remove(str(run.SRC))

    def test_tail_quantile(self):
        self.assertEqual(run.tail_quantile(100), 0.9)
        self.assertEqual(run.tail_quantile(50), 0.8)
        self.assertEqual(run.quantile([3, 1, 2, float("inf")], 0.5), 2)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as d:
            bench = Path(d) / "bench"
            bench.mkdir()
            for p in BENCH.glob("*.py"):
                (bench / p.name).write_text(p.read_text())
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "dense-support",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

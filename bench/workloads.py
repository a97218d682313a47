"""Seeded workload generators.

Each generator writes a program, an answer set and any other inputs to
a work directory and returns a :class:`Workload`: the files parsed at
set-up and a function that yields one round of operations. A round holds
every operation class of the workload in a fixed proportion, shuffled by
the seed, so runs that stop at a round boundary see the same mix. Every
expected output is known by construction: chain lengths, the shape of
the complete support graph, a breadth-first search over the gene graph,
and a stratum-by-stratum fixpoint for the random programs. Nothing here
imports aspexplain.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from check import CHECKERS, CheckError, Reference, atom_text, check_egraph, rule_text


@dataclass
class Op:
    """One user request: a CLI argument vector, the exit code it must
    give and a check of its standard output and error."""

    kind: str
    argv: list
    code: int
    check: Callable[[str, str], None]


@dataclass
class Workload:
    inputs: list  # (program path, answer-set path) pairs parsed at set-up
    round: Callable[[random.Random], list]  # one shuffled round of ops
    probes: list = field(default_factory=list)  # known-defect ops, traced run only
    dominant: tuple = ()  # layers predicted to take most of the time


def _write(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _atom(pred: str, *args) -> tuple:
    return (pred, tuple(str(a) for a in args))


def _rule_line(r: tuple) -> str:
    return rule_text(r) + "."


def _explain_op(kind, lp, as_, ref, query, fmt, sizes_ok, extra=()) -> Op:
    """``explain`` on ``query``; the output must pass the reference
    check for ``fmt`` and ``sizes_ok`` must accept its sizes."""
    argv = ["explain", lp, as_, atom_text(query), *extra]
    if fmt != "text":
        argv += ["--format", fmt]
    checker = CHECKERS[fmt]

    def check(out: str, err: str) -> None:
        sizes = checker(out, ref, query)
        if not sizes_ok(sizes):
            raise CheckError("unexpected explanation sizes %s" % sizes)

    return Op(kind, argv, 0, check)


def _chain_files(d: Path, name: str, pred: str, depth: int, pad: int,
                 rng: random.Random):
    rules = [((pred + "0", ()), (), ())]
    rules += [((pred + str(i + 1), ()), ((pred + str(i), ()),), ())
              for i in range(depth)]
    rules += [(("f%d" % i, ()), (), ()) for i in range(pad)]
    rng.shuffle(rules)
    X = frozenset(r[0] for r in rules)
    atoms = sorted(atom_text(a) for a in X)
    rng.shuffle(atoms)
    lp = _write(d / (name + ".lp"), [_rule_line(r) for r in rules])
    as_ = _write(d / (name + ".as"), [" ".join(atoms)])
    return lp, as_, Reference(rules, X)


CHAIN_DEPTH = (10, 150)
CHAIN_PAD = 1000
CHAIN_OPS_PER_ROUND = 19
DEEP_DEPTH = 400
GOLDEN = (5 ** 0.5 - 1) / 2


def chain_padded(d: Path, seed: int) -> Workload:
    """A 150-step chain ``c{i+1} :- c{i}`` among 1,000 unrelated facts
    that are also in the answer set; shortest/text queries at depths
    spread evenly over 10..150. The probe queries the end of an
    unpadded 400-step chain, which the recursive tree builder cannot
    reach."""
    rng = random.Random(seed)
    lp, as_, ref = _chain_files(d, "chain", "c", CHAIN_DEPTH[1], CHAIN_PAD, rng)
    dlp, das, dref = _chain_files(d, "deep", "d", DEEP_DEPTH, 0, rng)

    def query(depth: int) -> Op:
        return _explain_op("shortest/text", lp, as_, ref, ("c%d" % depth, ()),
                           "text", lambda s: s == [depth + 1])

    phase = rng.random()
    rounds = itertools.count()

    def make_round(r: random.Random) -> list:
        # One depth per stratum of 10..150; the position inside the
        # strata moves by the golden ratio from round to round, so a few
        # rounds cover the range evenly and quantiles barely depend on
        # the seed.
        lo, hi = CHAIN_DEPTH
        step = (hi - lo) / CHAIN_OPS_PER_ROUND
        offset = (phase + next(rounds) * GOLDEN) % 1
        ops = [query(min(hi, int(lo + step * (j + offset))))
               for j in range(CHAIN_OPS_PER_ROUND)]
        r.shuffle(ops)
        return ops

    probe = _explain_op("deep/text", dlp, das, dref, ("d%d" % DEEP_DEPTH, ()),
                        "text", lambda s: s == [DEEP_DEPTH + 1])
    return Workload([(lp, as_)], make_round, [probe], ("ground", "model"))


DENSE_N = 7


def dense_support(d: Path, seed: int) -> Workload:
    """The complete support graph K7: ``p0.`` and ``p_i :- p_j`` for all
    i != j. Queries on p1..p6, shortest/text and kdiff -k 3/json in a
    2:1 mix."""
    rng = random.Random(seed)
    p = [("p%d" % i, ()) for i in range(DENSE_N)]
    rules = [(p[0], (), ())]
    rules += [(p[i], (p[j],), ()) for i in range(DENSE_N)
              for j in range(DENSE_N) if i != j]
    rng.shuffle(rules)
    X = frozenset(p)
    atoms = [atom_text(a) for a in p]
    rng.shuffle(atoms)
    lp = _write(d / "dense.lp", [_rule_line(r) for r in rules])
    as_ = _write(d / "dense.as", [" ".join(atoms)])
    ref = Reference(rules, X)
    ops = []
    for q in p[1:]:
        # The shortest explanation is q :- p0 and the fact; the first
        # kdiff explanation is the longest, a path through all atoms.
        short = _explain_op("shortest/text", lp, as_, ref, q, "text",
                            lambda s: s == [2])
        kdiff = _explain_op("kdiff/json", lp, as_, ref, q, "json",
                            lambda s: len(s) == 3 and s[0] == DENSE_N,
                            ["--mode", "kdiff", "-k", "3"])
        ops += [short, short, kdiff]

    def make_round(r: random.Random) -> list:
        out = list(ops)
        r.shuffle(out)
        return out

    return Workload([(lp, as_)], make_round, [], ("engine",))


GENE_COUNT = 300
GENE_EDGES = 1200
GENE_CHAIN = 4
GENE_ROUND = 6  # ops per round, two per output format
GENE_LAYERS = (6, 6, 6, 18)  # genes at walk distance 1..4 from the start
GENE_TEMPLATES = {
    ("gene_gene_biogrid", 2): "The gene $1 interacts with the gene $2 according to BioGRID.",
    ("start_gene", 1): "The gene $1 is the start gene.",
    ("gene_reachable_from", 2): "The distance of the gene $1 from the start gene is $2.",
    ("what_be_genes", 1): "The gene $1 is an answer.",
    ("max_chain_length", 1): "The maximum chain length is $1.",
}


def gene_program(chain: int) -> list:
    """The non-ground rules of the reachability program, shaped like the
    ``q8`` fixture: ``gene_reachable_from(G, k)`` holds when a walk of
    ``k`` interaction edges leads from ``G`` to the start gene."""
    rules = [(_atom("gene_reachable_from", "GN", 1),
              (_atom("gene_gene_biogrid", "GN", "GM"), _atom("start_gene", "GM")), ())]
    for k in range(2, chain + 1):
        rules.append((_atom("gene_reachable_from", "GN", k),
                      (_atom("gene_gene_biogrid", "GN", "GM"),
                       _atom("gene_reachable_from", "GM", k - 1),
                       _atom("max_chain_length", chain)), ()))
    for k in range(2, chain + 1):
        rules.append((_atom("what_be_genes", "GN"),
                      (_atom("gene_reachable_from", "GN", k),), ()))
    return rules


def gene_answer_set(start: str, edges: list, chain: int) -> tuple[frozenset, list]:
    """The answer set by breadth-first search over walk lengths, and
    ``reach[k]``, the genes with a walk of exactly ``k`` edges to the
    start (index 0 unused)."""
    reach = [set(), {a for a, b in edges if b == start}]
    for _ in range(2, chain + 1):
        reach.append({a for a, b in edges if b in reach[-1]})
    X = {_atom("start_gene", start), _atom("max_chain_length", chain)}
    X |= {_atom("gene_gene_biogrid", a, b) for a, b in edges}
    for k in range(1, chain + 1):
        X |= {_atom("gene_reachable_from", g, k) for g in reach[k]}
    for k in range(2, chain + 1):
        X |= {_atom("what_be_genes", g) for g in reach[k]}
    return frozenset(X), reach


def gene_graph(rng: random.Random, count: int, n_edges: int, layers) -> tuple:
    """A start gene, layers of genes with edges one layer closer to it,
    and unrelated genes. Gene i of a layer has edges to genes i and i+1
    (mod size) of the layer below, and the first layer's genes to the
    start, so every gene of a layer has the same walks to the start, up
    to renaming. Extra edges leave the layered genes or join unrelated
    genes, so they add no walk to the start. The seed draws the names,
    which genes are layered and the extra edges."""
    names = ['"G%04d"' % i for i in rng.sample(range(10_000), count)]
    start, rest = names[0], names[1:]
    layer = [[start]]
    pos = 0
    for size in layers:
        layer.append(rest[pos:pos + size])
        pos += size
    free = rest[pos:]
    edges = set()
    for k in range(1, len(layer)):
        below = layer[k - 1]
        for i, g in enumerate(layer[k]):
            edges |= {(g, below[i % len(below)]), (g, below[(i + 1) % len(below)])}
    core = [g for lay in layer[1:] for g in lay]
    while len(edges) < n_edges:
        a = rng.choice(free + core)
        b = rng.choice(free)
        if a != b:
            edges.add((a, b))
    edges = sorted(edges)
    rng.shuffle(edges)
    return start, edges


def gene_reach(d: Path, seed: int) -> Workload:
    """Non-ground reachability over a seeded graph of 300 genes and
    1,200 quoted-string interaction edges, chain length 4. Queries ask
    why a gene whose only walks to the start have length 4 is an
    answer, rotating through text, nl and json output."""
    rng = random.Random(seed)
    start, edges = gene_graph(rng, GENE_COUNT, GENE_EDGES, GENE_LAYERS)
    rules = gene_program(GENE_CHAIN)
    X, reach = gene_answer_set(start, edges, GENE_CHAIN)
    facts = [(_atom("start_gene", start), (), ()),
             (_atom("max_chain_length", GENE_CHAIN), (), ())]
    facts += [(_atom("gene_gene_biogrid", a, b), (), ()) for a, b in edges]
    lp = _write(d / "gene.lp", [_rule_line(r) for r in facts + rules])
    atoms = sorted(atom_text(a) for a in X)
    rng.shuffle(atoms)
    as_ = _write(d / "gene.as", atoms)
    lookup = _write(d / "gene.lookup",
                    ["%s/%d: %s" % (k[0], k[1], v) for k, v in GENE_TEMPLATES.items()])
    ref = Reference(facts + rules, X, GENE_TEMPLATES)
    targets = sorted(reach[GENE_CHAIN] - reach[GENE_CHAIN - 1] - reach[GENE_CHAIN - 2])
    if len(targets) != GENE_LAYERS[-1]:
        raise ValueError("the outer layer should hold every query gene")
    # A walk of length k costs 3k+1 rules: the answer rule, one
    # reachability rule and one edge fact per step, the chain-length
    # fact on every step but the first, and the start fact.
    size = 3 * GENE_CHAIN + 1
    fmts = ("text", "nl", "json")
    ops = []
    for i, g in enumerate(targets):
        fmt = fmts[i % 3]
        extra = ["--lookup", lookup] if fmt == "nl" else []
        ops.append(_explain_op("shortest/" + fmt, lp, as_, ref, _atom("what_be_genes", g),
                               fmt, lambda s: s == [size], extra))
    rounds = itertools.count()

    def make_round(r: random.Random) -> list:
        # Every query gene has the same shape, so a round takes the next
        # GENE_ROUND of them, an equal number in each format; short
        # rounds let a run end close to its time budget.
        k = next(rounds) * GENE_ROUND % len(ops)
        out = ops[k:k + GENE_ROUND]
        r.shuffle(out)
        return out

    return Workload([(lp, as_)], make_round, [], ("parser", "ground"))


VERIFY_TARGETS = (13, 13, 13, 13)  # answer-set sizes, one program each
VERIFY_SPARE = 3  # atoms of each program outside its answer set, besides u
VERIFY_RULES = 26
VERIFY_FACTS = 3
VERIFY_STRATA = 3


def stratified_answer_set(rules: list, strata: dict) -> frozenset:
    """The answer set of a stratified normal program: strata in order,
    each closed under its rules while negation reads lower strata."""
    X: set = set()
    for s in sorted(set(strata.values())):
        mine = [r for r in rules if strata[r[0]] == s]
        changed = True
        while changed:
            changed = False
            for h, pos, neg in mine:
                if h not in X and set(pos) <= X and not set(neg) & X:
                    X.add(h)
                    changed = True
    return frozenset(X)


def min_sizes(rules: list, X: frozenset) -> dict:
    """The number of rules in a smallest derivation of each atom of
    ``X``: one for the rule plus the sizes below its positive body,
    minimised over the rules that support the atom."""
    w: dict = {}
    changed = True
    while changed:
        changed = False
        for h, pos, neg in rules:
            if set(neg) & X or not all(b in w for b in pos):
                continue
            size = 1 + sum(w[b] for b in pos)
            if size < w.get(h, size + 1):
                w[h] = size
                changed = True
    return w


def random_stratified(rng: random.Random, target: int) -> tuple:
    """A random stratified ground program whose answer set has exactly
    ``target`` atoms, plus an atom ``u`` outside it that occurs in no
    rule body."""
    n = target + VERIFY_SPARE
    while True:
        atoms = [("a%d" % i, ()) for i in range(n)]
        strata = {a: i * VERIFY_STRATA // n for i, a in enumerate(atoms)}
        rules = [(atoms[i], (), ()) for i in rng.sample(range(n // VERIFY_STRATA), VERIFY_FACTS)]
        while len(rules) < VERIFY_RULES - 1:
            h = rng.choice(atoms)
            same_or_lower = [a for a in atoms if strata[a] <= strata[h] and a != h]
            lower = [a for a in atoms if strata[a] < strata[h]]
            pos = tuple(rng.sample(same_or_lower, rng.randint(1, 2)))
            neg = tuple(rng.sample(lower, 1)) if lower and rng.random() < 0.4 else ()
            rules.append((h, pos, neg))
        X = stratified_answer_set(rules, strata)
        used = {a for r in rules for a in (r[0],) + r[1] + r[2]}
        if len(X) == target and used == set(atoms):
            break
    u = ("u", ())
    w = max(X, key=lambda a: strata[a])
    rules.append((u, (), (w,)))  # u :- not w, with w in X: u is unsupported
    return rules, X, u


def _derivation_tree(ref: Reference, sizes: dict, q: tuple):
    """A smallest derivation of ``q`` as an explanation tree document
    (atom and rule vertices), and the e-graph edges that ``exp2jst``
    must produce for it; None when some label would repeat."""
    vertices, edges, expected = [], [], set()
    stack = [(q, None)]
    while stack:
        a, parent = stack.pop()
        best = min((r for r in ref.rules if r[0] == a and set(r[1]) <= ref.X
                    and not set(r[2]) & ref.X
                    and 1 + sum(sizes[b] for b in r[1]) == sizes[a]), key=rule_text)
        av, rv = len(vertices), len(vertices) + 1
        vertices += [{"id": av, "label_kind": "atom", "label_text": atom_text(a)},
                     {"id": rv, "label_kind": "rule", "label_text": rule_text(best)}]
        if parent is not None:
            edges.append({"from": parent, "to": av})
        edges.append({"from": av, "to": rv})
        if not best[1]:
            expected.add((atom_text(a), "top", "+"))
        for b in best[1]:
            expected.add((atom_text(a), atom_text(b), "+"))
            stack.append((b, rv))
    texts = [(v["label_kind"], v["label_text"]) for v in vertices]
    if len(texts) != len(set(texts)):
        return None
    doc = {"kind": "tree", "root": 0, "vertices": vertices, "edges": edges}
    return doc, expected


def _exit_check(stream: int, text: str):
    def check(out: str, err: str) -> None:
        got = (out, err)[stream]
        if text not in got:
            raise CheckError("expected %r in %s, got %r"
                             % (text, ("stdout", "stderr")[stream], got[:200]))
    return check


def verify_small(d: Path, seed: int) -> Workload:
    """Four random stratified ground programs, each with a 13-atom answer
    set and a 17-atom base. Ops: verify the true set (exit 0), verify it
    plus the unsupported atom u (exit 1, not subset-minimal), explain
    --verify, and convert exp2jst of a written derivation tree."""
    rng = random.Random(seed)
    inputs, per_program, converts = [], [], []
    for i, target in enumerate(VERIFY_TARGETS):
        rules, X, u = random_stratified(rng, target)
        # Facts first: the exhaustive check stops at the first rule a
        # subset violates, so a seeded position of the facts would make
        # its cost differ from seed to seed.
        rng.shuffle(rules)
        rules.sort(key=lambda r: bool(r[1] or r[2]))
        lp = _write(d / ("v%d.lp" % i), [_rule_line(r) for r in rules])
        as_ = _write(d / ("v%d.as" % i), [" ".join(sorted(atom_text(a) for a in X))])
        bad = _write(d / ("v%d-bad.as" % i),
                     [" ".join(sorted(atom_text(a) for a in X | {u}))])
        inputs.append((lp, as_))
        ref = Reference(rules, X)
        sizes = min_sizes(rules, X)
        q = max(sorted(X), key=lambda a: sizes[a])
        ops = [
            Op("verify/ok", ["verify", lp, as_], 0, _exit_check(0, "answer set verified")),
            Op("verify/extra", ["verify", lp, bad], 1, _exit_check(1, "not subset-minimal")),
            _explain_op("explain/verify", lp, as_, ref, q, "text",
                        lambda s, n=sizes[q]: s == [n], ["--verify"]),
        ]
        per_program.append(ops)
        for a in sorted(X, key=lambda a: (-sizes[a], a)):
            tree = _derivation_tree(ref, sizes, a)
            if tree is not None:
                break
        doc, expected = tree
        path = d / ("v%d-tree.json" % i)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        converts.append(Op("convert/exp2jst",
                           ["convert", "exp2jst", lp, as_, atom_text(a), str(path)], 0,
                           lambda out, err, e=expected: check_egraph(out, e)))

    def make_round(r: random.Random) -> list:
        ops = [op for group in per_program for op in group] + r.sample(converts, 2)
        r.shuffle(ops)
        return ops

    return Workload(inputs, make_round, [], ("model",))


WORKLOADS = {
    "chain-padded": chain_padded,
    "dense-support": dense_support,
    "gene-reach": gene_reach,
    "verify-small": verify_small,
}

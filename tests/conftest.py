import itertools
import random
from pathlib import Path
from typing import Iterator, Optional, Union

import pytest

from aspexplain import ground
from aspexplain.engine import calculate_difference, create_tree, extract_exp
from aspexplain.ground import (
    GroundingError, GroundingIndex, _check_groundable, _instance, _match_atom,
    _subst_atom, instantiate_for_head,
)
from aspexplain.justify import TOP, AnnotatedAtom, EGraph
from aspexplain.model import (
    Atom, AtomSet, CardinalityExpression, Program, Rule, Term, _atom_instantiations,
    least_model, reduct, satisfies_rule, supports,
)
from aspexplain.trees import EMPTY_TREE, Explanation, Label, VertexLabeledTree

FIXTURES = Path(__file__).parent / "fixtures"

# Filled in by tests/test_acceptance.py; reported after the test run so
# the lines are visible despite output capture.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            "criterion %2d [%s] %s" % (number, status, title)
        )


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def chain_text(n: int) -> tuple[str, str]:
    """Program and answer-set text of the chain ``c0.`` and
    ``c_{i+1} :- c_i.`` for i < n, whose atom ``c_n`` is n steps deep."""
    program = "c0.\n" + "".join("c%d :- c%d.\n" % (i + 1, i) for i in range(n))
    return program, " ".join("c%d" % i for i in range(n + 1))


def complete_text(n: int) -> tuple[str, str]:
    """Program and answer-set text of the complete support graph
    ``K_n``: the fact ``p0.`` and ``p_i :- p_j.`` for all i != j."""
    program = "p0.\n" + "".join(
        "p%d :- p%d.\n" % (i, j) for i in range(n) for j in range(n) if i != j
    )
    return program, " ".join("p%d" % i for i in range(n))


def knowledge_base_text(n: int) -> tuple[str, str, str]:
    """Program and answer-set text of ``n`` binary ``gene_gene_biogrid``
    facts between ``n // 5`` genes, drawn at seed 1, under the
    reachability rules of the ``q8`` fixture, with one answer to query:
    the generator of the CI "Knowledge-base read" step."""
    rules = fixture_text("q8.lp").splitlines()[7:]
    rng = random.Random(1)
    genes = ["G%05d" % i for i in range(n // 5)]
    edges = sorted({(rng.choice(genes), rng.choice(genes)) for _ in range(n + n // 200)})[:n]
    start, facts = genes[0], ['gene_gene_biogrid("%s","%s")' % e for e in edges]
    reach = {0: {start}}
    for k in (1, 2, 3):
        reach[k] = {a for a, b in edges if b in reach[k - 1]}
    answers = sorted(reach[2] | reach[3])
    atoms = facts + ['start_gene("%s")' % start, "max_chain_length(3)"]
    atoms += ['gene_reachable_from("%s",%d)' % (g, k) for k in (1, 2, 3) for g in sorted(reach[k])]
    atoms += ['what_be_genes("%s")' % g for g in answers]
    head = ['start_gene("%s").' % start, "max_chain_length(3)."]
    program = "\n".join(head + [f + "." for f in facts] + rules) + "\n"
    return program, "\n".join(atoms) + "\n", 'what_be_genes("%s")' % answers[0]


def guard_text(nodes: int, edges: int, seed: int, paths: bool = False) -> tuple[str, str]:
    """Program and answer-set text of ``edges`` distinct edges, drawn at
    ``seed``, between ``nodes`` nodes, under the rule
    ``r(X,Y) :- edge(X,Y), node(X), node(Y).``, whose ``node`` atoms
    guard its variables: once ``node(X)`` binds ``X``, ``node(Y)`` alone
    is a cross product with every node. With ``paths``, also
    ``t(X,Z) :- node(X), node(Z), edge(X,Y), edge(Y,Z).``, whose first
    two atoms are one left to right."""
    rng = random.Random(seed)
    names = ["n%d" % i for i in range(nodes)]
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < edges:
        pairs.add((rng.choice(names), rng.choice(names)))
    E = sorted(pairs)
    rules = ["r(X,Y) :- edge(X,Y), node(X), node(Y)."]
    atoms = ["node(%s)" % v for v in names] + ["edge(%s,%s)" % e for e in E]
    atoms += ["r(%s,%s)" % e for e in E]
    if paths:
        rules.append("t(X,Z) :- node(X), node(Z), edge(X,Y), edge(Y,Z).")
        atoms += sorted({"t(%s,%s)" % (x, z) for x, y in E for y2, z in E if y == y2})
    facts = ["node(%s)." % v for v in names] + ["edge(%s,%s)." % e for e in E]
    return "\n".join(facts + rules) + "\n", "\n".join(atoms) + "\n"


def dropped_copy_text() -> tuple[str, str]:
    """Program and answer-set text in which :func:`create_tree` copies
    subtrees into ones that are then dropped. The subtree of ``a`` below
    ``top`` is built under ``top :- a, b`` and copied under the two rules
    with ``f``; ``f`` needs its ancestor ``top``, so it cannot complete,
    and each of those rule vertices goes with the copies in it: the
    first once ``f`` is found to have no rule child, the second as soon
    as ``f`` comes up, as a state known not to complete."""
    program = "top :- a, b.\ntop :- a, f.\ntop :- a, b, f.\nf :- top.\na :- c.\nc.\nb.\n"
    return program, "top a b c f"


def copied_ranges(T: VertexLabeledTree) -> list[tuple[int, int, int]]:
    """Each range of ids an and-or tree copied, as ``(v, s, e)``: a copy
    at ``v`` of the range ``s`` to ``e``, read off its copy table."""
    return [(v, v - shift, end - shift) for v, end, shift in zip(*T.labels.copies)]


def reference_fold(T: VertexLabeledTree, v: int, at_atom, at_rule) -> dict[int, int]:
    """The values of the subtree at ``v``, by plain recursion over
    ``child_ids``: the definition the folds are checked against."""
    out = {}

    def value(u):
        values = [value(c) for c in T.child_ids(u)]
        out[u] = at_atom(values) if T.is_atom_vertex(u) else at_rule(u, values)
        return out[u]

    value(v)
    return out


def ladder_justification(n: int) -> tuple[str, str, EGraph]:
    """Program text, answer-set text and justification of ``x_n`` for
    the ladder ``x0.``, ``x_{i+1} :- x_i, y_i.`` and ``y_i :- x_i.``
    for i < n. The e-graph has 2n + 2 nodes; the explanation tree it
    encodes has 6 * 2^n - 4 vertices, as each rung doubles it."""
    program = "x0.\n" + "".join(
        "x%d :- x%d, y%d.\ny%d :- x%d.\n" % (i + 1, i, i, i, i) for i in range(n)
    )
    xs = [AnnotatedAtom(Atom("x%d" % i), "+") for i in range(n + 1)]
    ys = [AnnotatedAtom(Atom("y%d" % i), "+") for i in range(n)]
    edges = [(xs[0], TOP, "+")]
    for i in range(n):
        edges += [(xs[i + 1], xs[i], "+"), (xs[i + 1], ys[i], "+"), (ys[i], xs[i], "+")]
    G = EGraph(frozenset(xs + ys + [TOP]), frozenset(edges))
    return program, " ".join(a.atom.text for a in xs + ys), G


def random_program(
    rng: random.Random,
    max_atoms: int = 8,
    max_rules: int = 12,
    allow_negation: bool = True,
) -> Program:
    """A small ground normal program for oracle-based testing."""
    n_atoms = rng.randint(1, max_atoms)
    atoms = [Atom("p%d" % i) for i in range(n_atoms)]
    n_rules = rng.randint(1, max_rules)
    rules = []
    for _ in range(n_rules):
        head = rng.choice(atoms)
        pool = [a for a in atoms if a != head]
        rng.shuffle(pool)
        n_pos = rng.randint(0, min(2, len(pool)))
        body_pos = tuple(pool[:n_pos])
        body_neg = ()
        if allow_negation:
            rest = pool[n_pos:]
            n_neg = rng.randint(0, min(2, len(rest)))
            body_neg = tuple(rest[:n_neg])
        rules.append(Rule(head, body_pos, body_neg))
    return Program(tuple(rules)).deduplicated()


def random_constraint_program(
    rng: random.Random, max_atoms: int = 5, max_rules: int = 8
) -> Program:
    """A :func:`random_program` followed by one to three constraints
    ``:- body.``, each with one to three body literals over the
    program's atoms and random negation."""
    P = random_program(rng, max_atoms=max_atoms, max_rules=max_rules)
    atoms = sorted(P.herbrand_base)
    constraints = []
    for _ in range(rng.randint(1, 3)):
        pool = rng.sample(atoms, min(len(atoms), rng.randint(1, 3)))
        n_pos = rng.randint(0, len(pool))
        constraints.append(Rule(None, tuple(pool[:n_pos]), tuple(pool[n_pos:])))
    return Program(P.rules + tuple(constraints)).deduplicated()


def random_nonground_program(rng: random.Random) -> Program:
    """A small safe non-ground normal program: two or three predicates
    of arity at most 2 over at most three constants, variables bound by
    the positive body, negative body atoms at random. Programs whose
    ground base exceeds 9 atoms are redrawn, which keeps
    :func:`answer_sets` on the ground program cheap."""
    while True:
        consts = [Term(c) for c in ("a", "b", "c")[: rng.randint(1, 3)]]
        # The first predicate takes arguments, so the first fact puts
        # constants into the program.
        preds = [("q0", rng.randint(1, 2))]
        preds += [("q%d" % i, rng.randint(0, 2)) for i in range(1, rng.randint(2, 3))]

        def atom(pred, pool):
            name, arity = pred
            return Atom(name, tuple(rng.choice(pool) for _ in range(arity)))

        rules = [Rule(atom(preds[0], consts))]
        rules += [Rule(atom(rng.choice(preds), consts)) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(1, 5)):
            terms = consts + [Term("V"), Term("W")]
            body_pos = tuple(
                atom(rng.choice(preds), terms) for _ in range(rng.randint(1, 2))
            )
            bound = consts + sorted(
                {t for a in body_pos for t in a.args if t.is_variable}
            )
            body_neg = ()
            if rng.random() < 0.5:
                body_neg = (atom(rng.choice(preds), bound),)
            rules.append(Rule(atom(rng.choice(preds), bound), body_pos, body_neg))
        P = Program(tuple(rules)).deduplicated()
        if not P.is_ground and len(P.herbrand_base) <= 9:
            return P


def random_card_program(rng: random.Random) -> Program:
    """A small safe non-ground program whose rules, constraints among
    them, each have one cardinality body of one or two members. A member
    holds ``L`` or ``L`` and ``M``, variables local to the expression,
    maybe repeated as in ``q1(L,L)``, next to the rule's own ``V`` and
    constants; or it is written ground. Programs whose ground base
    exceeds 10 atoms are redrawn, which keeps
    :func:`card_answer_sets` on the ground program cheap."""
    while True:
        consts = [Term(c) for c in ("a", "b", "c")[: rng.randint(1, 3)]]
        preds = [("q0", rng.randint(1, 2))]
        preds += [("q%d" % i, rng.randint(0, 2)) for i in range(1, rng.randint(2, 3))]

        def atom(pool):
            name, arity = rng.choice(preds)
            return Atom(name, tuple(rng.choice(pool) for _ in range(arity)))

        rules = [Rule(Atom("q0", tuple(rng.choice(consts) for _ in range(preds[0][1]))))]
        rules += [Rule(atom(consts)) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(1, 4)):
            body_pos = tuple(atom(consts + [Term("V")]) for _ in range(rng.randint(0, 1)))
            bound = consts + sorted({t for a in body_pos for t in a.args if t.is_variable})
            local = [Term("L"), Term("M")][: rng.randint(1, 2)]
            members = tuple(atom(bound + local * 2) for _ in range(rng.randint(1, 2)))
            lower = rng.randint(0, 2)
            card = CardinalityExpression(lower, rng.choice((None, lower, lower + 1)), members)
            body_neg = (atom(bound),) if rng.random() < 0.3 else ()
            head = atom(bound) if rng.random() < 0.85 else None
            rules.append(Rule(head, body_pos, body_neg, (card,)))
        P = Program(tuple(rules)).deduplicated()
        if not P.is_ground and len(P.herbrand_base) <= 10:
            return P


def card_answer_sets(P: Program) -> list[frozenset[Atom]]:
    """All answer sets of a small ground program with cardinality
    bodies, by exhaustive candidate checking: ``I`` is one when it
    satisfies the constraints and is the least fixpoint of the rules
    whose negative body avoids ``I`` and whose upper bounds ``I`` meets,
    each lower bound counted in the fixpoint built so far (Simons,
    Niemelä & Soininen 2002)."""
    base = sorted(P.herbrand_base)
    out = []
    for mask in range(2 ** len(base)):
        I = frozenset(a for i, a in enumerate(base) if mask >> i & 1)
        rules = [
            r for r in P.rules
            if r.head is not None and I.isdisjoint(r.body_neg)
            and all(c.upper is None or len(I.intersection(c.atoms)) <= c.upper
                    for c in r.body_card)
        ]
        M: set[Atom] = set()
        grew = True
        while grew:
            grew = False
            for r in rules:
                if r.head not in M and M.issuperset(r.body_pos) and all(
                    len(M.intersection(c.atoms)) >= c.lower for c in r.body_card
                ):
                    M.add(r.head)
                    grew = True
        if M == I and all(satisfies_rule(I, r) for r in P.rules if r.head is None):
            out.append(I)
    return out


class _Unbudgeted:
    """What :func:`aspexplain.ground._instance` reads of an index: the
    atoms a cardinality member with a variable stands for, here every
    instance over the universe, or with ``X`` those of them in ``X``,
    and a budget the reference grounding never runs out of."""

    def __init__(self, universe: tuple[Term, ...], X: Optional[AtomSet] = None):
        self.universe = universe
        self.X = X

    def candidates(self, pattern: Atom) -> list[Atom]:
        found = _atom_instantiations(pattern, self.universe)
        return list(found) if self.X is None else [a for a in found if a in self.X]

    def spend(self, n: int) -> None:
        pass


def _product_ground_rule(
    r: Rule, universe: tuple[Term, ...], X: Optional[AtomSet]
) -> list[Rule]:
    if r.is_ground:
        return [r]
    _check_groundable(r, universe)
    global_vars: set[str] = set()
    if r.head is not None:
        global_vars |= r.head.variables()
    for a in itertools.chain(r.body_pos, r.body_neg):
        global_vars |= a.variables()
    names = sorted(global_vars)
    out = [
        _instance(r, dict(zip(names, combo)), _Unbudgeted(universe, X))
        for combo in itertools.product(universe, repeat=len(names))
    ]
    out.sort(key=lambda g: g.text)
    return out


def product_ground(P: Program, X: Optional[AtomSet] = None) -> Program:
    """All ground instances of the rules of ``P`` over its constants, by
    substituting every tuple of the Herbrand universe for the variables
    of each rule; the reference for
    :func:`aspexplain.ground.ground_program`. Exponential in the number
    of variables per rule. A cardinality member with a variable local to
    its expression stands for each of its instances over the universe,
    or with ``X`` only for those in ``X``, as the grounder takes them.

    Already-ground programs are returned unchanged. Instances of one
    rule come out sorted by text; rules keep program order.
    """
    if P.is_ground:
        return P
    universe = tuple(sorted(P.herbrand_universe))
    rules: list[Rule] = []
    for r in P.rules:
        rules.extend(_product_ground_rule(r, universe, X))
    return Program(tuple(rules)).deduplicated()


def reference_join(index: GroundingIndex, i: int, r: Rule, subst: dict) -> list[Rule]:
    """The instances of ``r`` that :func:`aspexplain.ground._join`
    gives, by joining the positive body left to right, under the same
    width cap and instance budget: the reference for the ordered join.
    Rebind ``ground._join`` to it to ground by it."""
    if i not in index.nonground:
        return [r] if index.X.issuperset(r.body_pos) else []
    substs = [subst]
    for pattern in r.body_pos:
        substs = list(itertools.islice((
            m
            for s in substs
            for a in index.candidates(_subst_atom(pattern, s))
            if (m := _match_atom(pattern, a, s)) is not None
        ), ground.MAX_JOIN_WIDTH + 1))
        if len(substs) > ground.MAX_JOIN_WIDTH:
            raise GroundingError(
                "cap exceeded: more than %d partial substitutions in one join"
                % ground.MAX_JOIN_WIDTH
            )
    index.spend(len(substs))
    return [_instance(r, s, index) for s in substs]


def answer_sets(P: Program) -> list[frozenset[Atom]]:
    """All answer sets of a small ground normal program, by exhaustive
    candidate checking against the least model of the reduct."""
    base = sorted(P.herbrand_base)
    out = []
    for mask in range(2 ** len(base)):
        I = frozenset(a for i, a in enumerate(base) if mask >> i & 1)
        if least_model(P, I) == I:
            if all(
                r.head in I
                for r in P.rules
                if r.head is None
                and set(r.body_pos) <= I
                and not (set(r.body_neg) & I)
            ):
                out.append(I)
    return out


def exhaustive_verify(P: Program, I: frozenset[Atom]) -> tuple[bool, str]:
    """The answer-set check by its definition: ``I`` satisfies the
    reduct and no strict subset of ``I`` does. Subsets are tried by
    size, then in sorted order, so a non-minimal ``I`` is reported with
    the first, smallest subset found. Exponential in ``len(I)``; the
    reference for :func:`aspexplain.model.verify_answer_set`."""
    R = reduct(P, I)
    for r in R.rules:
        if not satisfies_rule(I, r):
            return False, "unsatisfied rule: %s." % r.display
    members = sorted(I)
    for k in range(len(members)):
        for combo in itertools.combinations(members, k):
            sub = frozenset(combo)
            if all(satisfies_rule(sub, r) for r in R.rules):
                return False, (
                    "not subset-minimal: {%s} already satisfies the reduct"
                    % ", ".join(a.text for a in sorted(sub))
                )
    return True, ""


def supporting_rules(
    P: Program, p: Atom, Y: AtomSet, Z: AtomSet
) -> tuple[Rule, ...]:
    """The rules of ``P`` that support ``p`` w.r.t. ``Y`` but ``Z``,
    deduplicated, in program order: a scan of the whole program, the
    reference for :func:`aspexplain.ground.instantiate_for_head`."""
    out = dict.fromkeys(r for r in P.rules if supports(r, p, Y, Z))
    return tuple(out)


def reference_create_tree(
    P: Program, X: AtomSet, d: Union[Atom, Rule]
) -> VertexLabeledTree:
    """The and-or tree of :func:`aspexplain.engine.create_tree`, built
    by one depth-first pass that expands every vertex, repeated states
    included, with no vertex cap: the reference for the builder that
    copies repeated subtrees."""
    if isinstance(d, Atom):
        if d not in X:
            raise ValueError("unknown explanandum: %s" % d.text)
    elif d not in set(P.rules):
        raise ValueError("unknown explanandum: %s" % d.text)
    index = GroundingIndex(P, X)
    candidates: dict[Atom, list[Rule]] = {}
    labels: list[Label] = []
    children: list[list[int]] = []
    path: set[Atom] = set()
    stack: list[tuple[int, Iterator[Label]]] = []
    todo: Optional[Label] = d
    while True:
        if todo is not None:
            v = len(labels)
            if stack:
                children[stack[-1][0]].append(v)
            labels.append(todo)
            children.append([])
            if isinstance(todo, Atom):
                if todo not in candidates:
                    candidates[todo] = [
                        r for r in instantiate_for_head(index, todo)
                        if supports(r, todo, X, frozenset())
                    ]
                path.add(todo)
                kids = [r for r in candidates[todo] if path.isdisjoint(r.body_pos)]
            else:
                kids = todo.body_pos
            stack.append((v, iter(kids)))
        v, rest = stack[-1]
        todo = next(rest, None)
        if todo is not None:
            continue
        stack.pop()
        if isinstance(labels[v], Atom):
            path.remove(labels[v])
        complete = bool(children[v]) or not isinstance(labels[v], Atom)
        while not complete:
            del labels[v:], children[v:]
            if not stack:
                return EMPTY_TREE
            u = stack[-1][0]
            children[u].pop()
            complete = isinstance(labels[u], Atom)
            if not complete:
                stack.pop()
                v = u
        if not stack:
            return VertexLabeledTree(
                0, dict(enumerate(labels)), dict(enumerate(map(tuple, children)))
            )


def reference_k_different(
    P: Program, X: AtomSet, p: Atom, k: int
) -> list[Explanation]:
    """The explanations of :func:`aspexplain.engine.k_different`, by one
    difference fold over the whole and-or tree per round: the reference
    for the call that folds once and re-folds only the vertices above
    each explanation it takes."""
    T = create_tree(P, X, p)
    if T.is_empty:
        return []
    out: list[Explanation] = []
    R: frozenset[int] = frozenset()
    for _ in range(k):
        D = calculate_difference(T, T.root, R)
        if D[T.root] == 0 and out:
            break
        e = extract_exp(T, T.root, D, max)
        out.append(e)
        R = R | e.rule_vertex_ids
    return out


def ancestors(T: VertexLabeledTree, v: int) -> tuple[int, ...]:
    """The vertices on the path from ``v``'s parent up to the root."""
    parent = {c: u for u, kids in T.children.items() for c in kids}
    out = []
    while v in parent:
        v = parent[v]
        out.append(v)
    return tuple(out)


def validate_andor_tree(T: VertexLabeledTree, P: Program, X: AtomSet, p: Atom) -> None:
    """Check the defining conditions of an and-or explanation tree for
    ``p``; raises ValueError on the first violation.

    The check is independent of how the tree was built: expected rule
    children are recomputed from the support relation, keeping only
    rules whose subtree is actually constructible under the ancestor
    exclusion (a rule with an underivable body atom contributes no
    child).
    """
    if T.is_empty:
        raise ValueError("empty tree")
    buildable_cache: dict[tuple[Atom, frozenset[Atom]], bool] = {}

    def atom_buildable(a: Atom, excluded: frozenset[Atom]) -> bool:
        key = (a, excluded)
        if key in buildable_cache:
            return buildable_cache[key]
        buildable_cache[key] = False
        ok = any(
            all(atom_buildable(b, excluded | {a}) for b in r.body_pos)
            for r in supporting_rules(P, a, X, excluded | {a})
        )
        buildable_cache[key] = ok
        return ok

    if T.labels[T.root] != p:
        raise ValueError("root is not labeled by the queried atom")
    for v in T.preorder():
        lbl = T.labels[v]
        kids = T.child_ids(v)
        if isinstance(lbl, Atom):
            if lbl not in X:
                raise ValueError("atom vertex %d not in the answer set" % v)
            anc = frozenset(
                T.labels[u] for u in ancestors(T, v) if T.is_atom_vertex(u)
            )
            expected = [
                r
                for r in supporting_rules(P, lbl, X, anc | {lbl})
                if all(atom_buildable(b, anc | {lbl}) for b in r.body_pos)
            ]
            got = sorted(T.labels[c].text for c in kids)
            if not all(T.is_rule_vertex(c) for c in kids):
                raise ValueError("atom vertex %d has an atom child" % v)
            if got != sorted(r.text for r in expected):
                raise ValueError(
                    "atom vertex %d: children are not the supporting rules" % v
                )
            if not kids:
                raise ValueError("atom vertex %d is a leaf" % v)
        else:
            if not all(T.is_atom_vertex(c) for c in kids):
                raise ValueError("rule vertex %d has a rule child" % v)
            got = sorted(T.labels[c].text for c in kids)
            if got != sorted(a.text for a in lbl.body_pos):
                raise ValueError(
                    "rule vertex %d: children differ from the positive body" % v
                )


def validate_explanation_tree(E: VertexLabeledTree, T: VertexLabeledTree) -> None:
    """Check that ``E`` embeds into the and-or tree ``T`` with the same
    root label, every atom vertex choosing exactly one rule and every
    rule vertex keeping all its children. Matching is by label."""
    if E.is_empty or T.is_empty:
        raise ValueError("empty tree")

    def embeds(ev: int, tv: int) -> bool:
        if E.labels[ev].text != T.labels[tv].text:
            return False
        ekids = E.child_ids(ev)
        tkids = T.child_ids(tv)
        if E.is_atom_vertex(ev):
            if len(ekids) != 1:
                return False
            return any(embeds(ekids[0], tc) for tc in tkids)
        if len(ekids) != len(tkids):
            return False
        by_label: dict[str, list[int]] = {}
        for tc in tkids:
            by_label.setdefault(T.labels[tc].text, []).append(tc)
        for ec in ekids:
            cands = by_label.get(E.labels[ec].text, [])
            if not any(embeds(ec, tc) for tc in cands):
                return False
        return True

    if not embeds(E.root, T.root):
        raise ValueError("tree does not embed into the and-or tree")
    for v in E.preorder():
        if E.is_atom_vertex(v) and len(E.child_ids(v)) != 1:
            raise ValueError("atom vertex %d does not have out-degree 1" % v)


def explanation_tree_of(e: Explanation, T: VertexLabeledTree) -> VertexLabeledTree:
    """Rebuild the explanation tree (with atom vertices) that an
    explanation extracted from ``T`` stands for."""
    if e.is_empty:
        return EMPTY_TREE
    chosen = e.rule_vertex_ids
    labels: dict[int, Label] = {}
    children: dict[int, tuple[int, ...]] = {}

    def walk(u: int) -> None:
        labels[u] = T.labels[u]
        if T.is_atom_vertex(u):
            picked = [c for c in T.child_ids(u) if c in chosen]
            children[u] = tuple(picked)
        else:
            children[u] = T.child_ids(u)
        for c in children[u]:
            walk(c)

    walk(T.root)
    return VertexLabeledTree(T.root, labels, children)


def render_program(P: Program) -> str:
    """Program text that parses back to an equal program."""
    return "\n".join(r.text + "." for r in P.rules) + ("\n" if P.rules else "")

import itertools
import random
from pathlib import Path

import pytest

from aspexplain.ground import _check_groundable, _instance
from aspexplain.model import (
    Atom, Program, Rule, Term, least_model, reduct, satisfies_rule,
)

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


def _product_ground_rule(r: Rule, universe: tuple[Term, ...]) -> list[Rule]:
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
        _instance(r, dict(zip(names, combo)), universe)
        for combo in itertools.product(universe, repeat=len(names))
    ]
    out.sort(key=lambda g: g.text)
    return out


def product_ground(P: Program) -> Program:
    """All ground instances of the rules of ``P`` over its constants, by
    substituting every tuple of the Herbrand universe for the variables
    of each rule; the reference for
    :func:`aspexplain.ground.ground_program`. Exponential in the number
    of variables per rule.

    Already-ground programs are returned unchanged. Instances of one
    rule come out sorted by text; rules keep program order.
    """
    if P.is_ground:
        return P
    universe = tuple(sorted(P.herbrand_universe))
    rules: list[Rule] = []
    for r in P.rules:
        rules.extend(_product_ground_rule(r, universe))
    return Program(tuple(rules)).deduplicated()


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

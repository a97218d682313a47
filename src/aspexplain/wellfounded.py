"""Well-founded semantics via the alternating-fixpoint construction,
plus tentative assumptions, negative reducts and assumption sets."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import Atom, Program, AtomSet, least_model

ASSUMPTION_SEARCH_CAP = 2**16


@dataclass(frozen=True)
class PartialInterpretation:
    """A three-valued interpretation: atoms known true and known false."""

    plus: frozenset[Atom]
    minus: frozenset[Atom]

    def __post_init__(self) -> None:
        if self.plus & self.minus:
            raise ValueError("inconsistent interpretation")


def immediate_consequence(
    P: Program, V: AtomSet, S: AtomSet
) -> frozenset[Atom]:
    """Heads derivable from ``S`` in one step, treating the atoms in
    ``V`` as false blockers for negative bodies."""
    if any(r.body_card for r in P.rules):
        raise ValueError("normal programs only")
    return frozenset(
        r.head
        for r in P.rules
        if r.head is not None
        and S.issuperset(r.body_pos)
        and V.isdisjoint(r.body_neg)
    )


def well_founded_model(
    P: Program, base: frozenset[Atom] | None = None
) -> PartialInterpretation:
    """Alternate least fixpoints: K underestimates the true atoms, U
    overestimates them, until both stabilize. The result is ⟨K, B \\ U⟩.

    ``base`` defaults to the program's Herbrand base; callers that have
    removed rules can pass the original base to keep the false side
    complete.
    """
    if base is None:
        base = P.herbrand_base
    K = least_model(P, base)
    U = least_model(P, K)
    while True:
        K2 = least_model(P, U)
        U2 = least_model(P, K2)
        if (K2, U2) == (K, U):
            break
        K, U = K2, U2
    return PartialInterpretation(K, frozenset(base) - U)


def nant(P: Program) -> frozenset[Atom]:
    """Atoms occurring under negation anywhere in the program."""
    return frozenset(a for r in P.rules for a in r.body_neg)


def tentative_assumptions(P: Program, M: AtomSet) -> frozenset[Atom]:
    """Negated atoms that are false in ``M`` but left undetermined by
    the well-founded model."""
    wf = well_founded_model(P)
    false_in_m = P.herbrand_base - M
    return frozenset(nant(P) & false_in_m - wf.plus - wf.minus)


def negative_reduct(P: Program, U: AtomSet) -> Program:
    """Drop every rule whose head is in ``U``."""
    return Program(tuple(r for r in P.rules if r.head not in U))


def assumptions(
    P: Program, M: AtomSet, cap: int = ASSUMPTION_SEARCH_CAP
) -> frozenset[frozenset[Atom]]:
    """All subsets of the tentative assumptions whose negative reduct
    has well-founded model exactly ``M`` (as a complete interpretation
    over the program's base)."""
    base = P.herbrand_base
    ta = sorted(tentative_assumptions(P, M))
    if 2 ** len(ta) > cap:
        raise ValueError(
            "cap exceeded: %d candidate assumption sets" % 2 ** len(ta)
        )
    target = PartialInterpretation(frozenset(M), base - M)
    out = []
    for k in range(len(ta) + 1):
        for combo in itertools.combinations(ta, k):
            U = frozenset(combo)
            wf = well_founded_model(negative_reduct(P, U), base=base)
            if wf == target:
                out.append(U)
    return frozenset(out)

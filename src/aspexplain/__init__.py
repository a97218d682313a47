"""Explanations for atoms in answer sets.

Given a ground answer-set program and one of its answer sets, this
package builds and-or explanation trees, extracts shortest and
k-different explanations, renders them in natural language, and
converts between explanations and offline justifications.
"""
from .model import (
    AnswerSet,
    Atom,
    CardinalityExpression,
    Program,
    Rule,
    Term,
    is_answer_set,
    least_model,
    reduct,
    satisfies_card,
    supports,
)
from .ground import (
    GroundingError, GroundingIndex, ground_program, instantiate_for_head,
)
from .trees import Explanation, VertexLabeledTree
from .engine import (
    calculate_difference,
    calculate_weight,
    create_tree,
    distance,
    enumerate_explanations,
    extract_exp,
    k_different,
    shortest_explanation,
)
from .wellfounded import (
    PartialInterpretation,
    assumptions,
    immediate_consequence,
    negative_reduct,
    tentative_assumptions,
    well_founded_model,
)
from .justify import (
    AnnotatedAtom,
    EGraph,
    explanation_to_justification,
    is_offline_justification,
    justification_to_explanation,
    support_of,
)
from .parser import (
    LookupTable,
    ParseError,
    parse_answer_set,
    parse_atom,
    parse_lookup,
    parse_program,
)
from .serialize import emit_dot, emit_json, parse_json
from .nl import render_nl

__version__ = "0.1.0"

__all__ = [
    "AnswerSet", "Atom", "CardinalityExpression", "Program", "Rule", "Term",
    "is_answer_set", "least_model", "reduct", "satisfies_card",
    "supports", "GroundingError", "GroundingIndex",
    "ground_program", "instantiate_for_head",
    "Explanation", "VertexLabeledTree", "calculate_difference",
    "calculate_weight", "create_tree", "distance", "enumerate_explanations",
    "extract_exp", "k_different", "shortest_explanation",
    "PartialInterpretation", "assumptions", "immediate_consequence",
    "negative_reduct", "tentative_assumptions", "well_founded_model",
    "AnnotatedAtom", "EGraph", "explanation_to_justification",
    "is_offline_justification", "justification_to_explanation", "support_of",
    "LookupTable", "ParseError", "parse_answer_set", "parse_atom",
    "parse_lookup", "parse_program", "emit_dot", "emit_json", "parse_json",
    "render_nl",
]

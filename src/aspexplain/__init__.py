"""Explanations for atoms in answer sets.

Given a ground answer-set program and one of its answer sets, this
package builds and-or explanation trees, extracts shortest and
k-different explanations, renders them in natural language, and
converts between explanations and offline justifications.

Importing the package loads no module of it: each public name imports
its module when it is first used (PEP 562).
"""
# Each module and the public names it defines.
_EXPORTS = {
    "model": (
        "AnswerSet", "Atom", "CardinalityExpression", "Program", "Rule", "Term",
        "is_answer_set", "least_model", "reduct", "satisfies_card", "supports",
    ),
    "ground": (
        "GroundingError", "GroundingIndex", "ground_program", "instantiate_for_head",
    ),
    "trees": ("Explanation", "VertexLabeledTree"),
    "engine": (
        "calculate_difference", "calculate_weight", "create_tree", "distance",
        "enumerate_explanations", "extract_exp", "k_different", "shortest_explanation",
    ),
    "wellfounded": (
        "PartialInterpretation", "assumptions", "immediate_consequence",
        "negative_reduct", "tentative_assumptions", "well_founded_model",
    ),
    "justify": (
        "AnnotatedAtom", "EGraph", "explanation_to_justification",
        "is_offline_justification", "justification_to_explanation", "support_of",
    ),
    "parser": (
        "LookupTable", "ParseError", "parse_answer_set", "parse_atom",
        "parse_lookup", "parse_program",
    ),
    "serialize": ("emit_dot", "emit_json", "parse_json"),
    "nl": ("render_nl",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines public ``name`` and keep its value
    here, so that later reads are plain attribute reads. The module is
    imported through ``__import__``, as by an import statement, so that
    ``-X importtime`` lists it."""
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = __import__("%s.%s" % (__name__, _MODULE_OF[name]), fromlist=(name,))
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""The package root: every public name resolves, from its defining
module, and importing the package loads none of its modules until a
name is used."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aspexplain

SRC = Path(__file__).parents[1] / "src"

PUBLIC_NAMES = {
    "AnnotatedAtom", "AnswerSet", "Atom", "CardinalityExpression", "EGraph",
    "Explanation", "GroundingError", "GroundingIndex", "LookupTable",
    "NotInAnswerSet", "ParseError", "PartialInterpretation", "Program", "Rule", "Term", "VertexLabeledTree",
    "assumptions", "calculate_difference", "calculate_weight", "create_tree",
    "distance", "emit_dot", "emit_json", "enumerate_explanations",
    "explanation_to_justification", "extract_exp", "ground_program",
    "immediate_consequence", "instantiate_for_head", "is_answer_set",
    "is_offline_justification", "justification_to_explanation", "k_different",
    "least_model", "negative_reduct", "parse_answer_set", "parse_atom",
    "parse_json", "parse_lookup", "parse_program", "reduct", "render_nl",
    "satisfies_card", "shortest_explanation", "support_of", "supports",
    "tentative_assumptions", "well_founded_model",
}

# Run in a fresh interpreter; prints the package's loaded modules, by
# their names below the package, after each step, and the public names
# that ``dir`` leaves out before any is used.
PROBE = """
import json, sys

def loaded():
    return sorted(m[len("aspexplain."):] for m in sys.modules if m.startswith("aspexplain."))

steps = {}
import aspexplain
steps["import"] = loaded()
steps["not in dir"] = sorted(set(aspexplain.__all__) - set(dir(aspexplain)))
aspexplain.parse_program
steps["parse_program"] = loaded()
from aspexplain import engine
steps["engine"] = [loaded(), engine is sys.modules["aspexplain.engine"]]
import aspexplain.cli
steps["cli"] = loaded()
print(json.dumps(steps))
"""


def test_modules_load_on_first_use_and_dir_lists_every_public_name():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    steps = json.loads(out)
    assert steps["import"] == [] and steps["not in dir"] == []
    assert steps["parse_program"] == ["model", "parser"]
    assert steps["engine"] == [["engine", "ground", "model", "parser", "trees"], True]
    assert steps["cli"] == ["cli", "engine", "ground", "justify", "model", "nl",
                            "parser", "serialize", "trees"]


def test_public_names_resolve_to_their_defining_module():
    assert len(aspexplain.__all__) == len(PUBLIC_NAMES)
    assert set(aspexplain.__all__) == PUBLIC_NAMES
    for name in aspexplain.__all__:
        value = getattr(aspexplain, name)
        assert value.__module__.startswith("aspexplain.")
        assert vars(importlib.import_module(value.__module__))[name] is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from aspexplain import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert all(namespace[name] is getattr(aspexplain, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        aspexplain.no_such_name
    with pytest.raises(ImportError):
        exec("from aspexplain import no_such_name", {})

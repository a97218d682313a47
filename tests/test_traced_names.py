"""Every function that ``bench/spans.py`` traces must exist, so that a
rename or deletion fails here and not first in a benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module("aspexplain." + module)
    *owners, name = attr.split(".")
    for part in owners:
        obj = getattr(obj, part)
    # A traced method must be defined on its class, not inherited.
    assert callable(vars(obj)[name])

"""The benchmark tracer wraps matfield's layers at names it looks up by string.

perfbench/tracing.py is loaded from its file and only read: a name the
library drops or renames would otherwise surface only when a traced
benchmark run fails to patch it.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from matfield.baselines import SearchProblem
from matfield.rng import SplitMix64

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
LOOKUPS = sorted(
    {pair for lookups in tracing._TARGETS.values() for pair in lookups} | set(tracing._PROBLEMS)
)


@pytest.mark.parametrize("module, attr", LOOKUPS, ids=[f"{m}.{a}" for m, a in LOOKUPS])
def test_tracer_lookup_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_replaced_fields_exist():
    assert callable(SplitMix64.complex_normal_stack)
    names = {f.name for f in dataclasses.fields(SearchProblem)}
    assert {"objective", "power_of", "gradient"} <= names

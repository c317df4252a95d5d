"""The benchmark tracer sees every oracle call of the certified modes.

perfbench/tracing.py wraps the SearchProblem callables and counts a call's
rows from its first argument.  If a wrapper stopped seeing calls, a traced
benchmark run would still finish with per-layer counts of zero; here each
certified mode runs once under the tracer and its oracle counts are checked.
The tracer is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from matfield.experiments import build_config, run

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mode", ["design-trace", "design-det", "relay-mse", "relay-capacity"])
def test_tracer_counts_every_oracle_call(mode):
    cfg = build_config({}, mode=mode, trials=1, budget=50, refinements=5)
    with tracing.Tracer().installed() as tracer:
        run(cfg)
    metrics = tracer.layer_metrics()
    # the budget's samples are scored in one call, outside the refinement
    assert metrics["baselines.score_rows"] == 50
    for name in ("pgd_iterations", "pgd_gradient_rows", "pgd_candidate_rows"):
        assert metrics[f"baselines.{name}"] > 0, name

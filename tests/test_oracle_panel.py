import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "oracle_panel", Path(__file__).resolve().parent.parent / "tools" / "oracle_panel.py"
)
oracle_panel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_panel)


def _record(mode, seed, oracle, rel_gap, dims=(2, 2, 2, 2), power=4.0):
    return {"mode": mode, "dims": list(dims), "power": power, "seed": seed,
            "objective": 1.0, "oracle": oracle, "rel_gap": rel_gap}


def test_compare_counts_moves_and_lists_each_worse_record():
    tol = oracle_panel.MOVE_TOL
    parent = [
        _record("design-trace", 0, 1.0, 0.0),
        _record("design-trace", 1, 2.0, 0.0),
        _record("design-trace", 2, 3.0, 1e-13),
        _record("relay-capacity", 0, -4.0, 0.0),
        _record("relay-capacity", 9, -4.0, 0.0),  # not in this panel
    ]
    records = [
        _record("design-trace", 0, 1.0, 0.0),  # unmoved
        _record("design-trace", 1, 2.0000000000000004, tol),  # moved, within rounding
        _record("design-trace", 2, 3.0 - 1e-13, 0.0),  # better
        _record("relay-capacity", 0, -4.0 - 1e-12, 2e-13),  # worse: the gap rose
    ]
    out = oracle_panel.compare(records, parent).splitlines()
    assert out[2].split(" | ") == ["design-trace", "2x2x2x2", "4", "3", "2", "1", "0", "1.00e-13 -> 8.30e-15"]
    assert out[3].split(" | ") == ["relay-capacity", "2x2x2x2", "4", "1", "1", "0", "1", "0.00e+00 -> 2.00e-13"]
    assert out[4] == "1 worse by more than 8.3e-15"
    assert out[5] == "  relay-capacity 2x2x2x2 P=4 seed 0: relative gap 0.00e+00 -> 2.00e-13"
    assert len(out) == 6


def test_compare_rejects_a_parent_file_that_matches_nothing():
    with pytest.raises(SystemExit):
        oracle_panel.compare([_record("design-det", 0, 1.0, 0.0)], [_record("design-det", 1, 1.0, 0.0)])

"""Dump the harness reports of a fixed set of configs, for diffing two trees.

For every config this prints the JSON report (without the wall-time entry),
then render_csv and render_table of it; a run that raises prints the error's
class and message instead.  Two trees that should give the same reports give
byte-identical dumps, and two runs of one tree in separate processes must too.

    PYTHONPATH=src python3 tools/dump_reports.py > reports.txt

The configs: for each of the six modes, seeds 0-3 at trials 2, budget 300,
refinements 20; one default-config trial; the same small run at P = 1e-12,
at P = 1e12 and at dims 3x2x4x3, and at dims 2x3x3x2 with P = 1e6 and
jitter_pi; then design-det on a jitter_pi instance with a singular Pi.
55 configs in all.
"""

from __future__ import annotations

import json

import numpy as np

from matfield.experiments import MODES, build_config, render_csv, render_table, run
from matfield.instances import generate_system, generate_weighting, matrix_to_json

SMALL = {"trials": 2, "budget": 300, "refinements": 20}


def singular_pi_instance() -> dict:
    model = generate_system(0, (2, 2, 2, 2), 4.0)
    op = generate_weighting(1, (2, 2, 2, 2))
    return {
        "H": matrix_to_json(model.channel),
        "R_n": matrix_to_json(model.noise_cov),
        "W": matrix_to_json(op.weights[0]),
        "Pi": matrix_to_json(np.diag([1.0, 0.0])),
    }


def configs():
    """(mode, config dict) pairs, in dump order."""
    for mode in MODES:
        for seed in range(4):
            yield mode, {**SMALL, "seed": seed}
        yield mode, {"trials": 1}
        yield mode, {**SMALL, "power": 1e-12}
        yield mode, {**SMALL, "power": 1e12}
        yield mode, {**SMALL, "dims": [3, 2, 4, 3]}
        yield mode, {**SMALL, "dims": [2, 3, 3, 2], "power": 1e6, "jitter_pi": True}
    yield "design-det", {**SMALL, "jitter_pi": True, "instance": singular_pi_instance()}


def dump(mode: str, data: dict) -> str:
    head = f"=== {mode} {json.dumps(data, sort_keys=True)}"
    try:
        report = run(build_config(data, mode=mode))
    except Exception as exc:  # noqa: BLE001 - the dump records every outcome
        return f"{head}\n{type(exc).__name__}: {exc}\n"
    report["aggregate"].pop("wall_time_s")
    return "\n".join([head, json.dumps(report, indent=1), render_csv(report), render_table(report), ""])


def main() -> None:
    for mode, data in configs():
        print(dump(mode, data))


if __name__ == "__main__":
    main()

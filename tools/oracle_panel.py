"""Oracle-strength panel: how close the oracle gets to each certified design.

For each certified mode and each panel shape, this runs one trial per seed
0 .. N-1 through the harness (budget 300, 20 refinements) and prints the
quantiles of the relative gap gap / max(1, |objective|) and the count above
1e-9.  A positive gap means the oracle stopped short of the design; a
converged oracle leaves every gap at rounding level.  The exit status is 1
when any relative gap exceeds 1e-9, else 0.

    PYTHONPATH=src python3 tools/oracle_panel.py [--seeds 50] [--records FILE] [--compare FILE]

--records writes every trial's (mode, dims, power, seed, objective, oracle
value, relative gap) as JSON, for comparing the oracle values of two trees.
--compare reads such a file, written on a parent tree, and prints for each
mode and shape how many oracle values moved, how many relative gaps fell
(better) or rose (worse) by more than 8.3e-15, and the worst gap of the
parent and of this tree; then every worse record.  A gap moved by at most
8.3e-15 max(1, |objective|) is rounding.  The gap's sign makes a lower gap
better for every mode, relay-capacity's maximized capacity included.  The
comparison does not change the exit status.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from matfield.experiments import build_config, run

MODES = ("design-trace", "design-det", "relay-mse", "relay-capacity")
# (dims, power): the default shape and a non-square one at moderate power, a
# shape with more streams than transmit antennas at high power, and a wider
# one at moderate SNR
SHAPES = (
    ((2, 2, 2, 2), 4.0),
    ((3, 4, 2, 3), 4.0),
    ((2, 3, 3, 2), 1e6),
    ((4, 4, 4, 4), 100.0),
)
SMALL = {"budget": 300, "refinements": 20}
THRESHOLD = 1e-9
QUANTILES = (0.0, 0.5, 0.9, 1.0)
# --compare: the largest move of a relative gap counted as rounding
MOVE_TOL = 8.3e-15


def panel(seeds: int) -> list[dict]:
    """One record per (mode, shape, seed)."""
    records = []
    for mode in MODES:
        for dims, power in SHAPES:
            for seed in range(seeds):
                cfg = build_config({**SMALL, "dims": list(dims), "power": power, "seed": seed, "trials": 1}, mode=mode)
                for r in run(cfg)["trials"]:
                    objective = r["objective_structured"]
                    records.append({
                        "mode": mode,
                        "dims": list(dims),
                        "power": power,
                        "seed": seed,
                        "objective": objective,
                        "oracle": r["objective_oracle_best"],
                        "rel_gap": r["gap"] / max(1.0, abs(objective)),
                    })
    return records


def table(records: list[dict]) -> str:
    head = ["mode", "dims", "power", "n"] + [f"q{int(100 * q)}" for q in QUANTILES] + [f"> {THRESHOLD:g}"]
    lines = [" | ".join(head), " | ".join("---" for _ in head)]
    for mode in MODES:
        for dims, power in SHAPES:
            gaps = np.array([
                r["rel_gap"] for r in records
                if r["mode"] == mode and tuple(r["dims"]) == dims and r["power"] == power
            ])
            row = [mode, "x".join(map(str, dims)), f"{power:g}", str(gaps.size)]
            row += [f"{v:.1e}" for v in np.quantile(gaps, QUANTILES)]
            row.append(str(int(np.sum(gaps > THRESHOLD))))
            lines.append(" | ".join(row))
    return "\n".join(lines)


def _key(r: dict) -> tuple:
    return r["mode"], tuple(r["dims"]), r["power"], r["seed"]


def compare(records: list[dict], parent: list[dict]) -> str:
    """This tree's records against a parent's, matched by (mode, dims, power, seed)."""
    before = {_key(r): r for r in parent}
    if not any(_key(r) in before for r in records):
        raise SystemExit("--compare: no record of the parent file matches this panel")
    head = ["mode", "dims", "power", "n", "moved", "better", "worse", "worst gap (parent -> this)"]
    lines = [" | ".join(head), " | ".join("---" for _ in head)]
    worse = []
    for mode in MODES:
        for dims, power in SHAPES:
            pairs = [(before[_key(r)], r) for r in records
                     if r["mode"] == mode and tuple(r["dims"]) == dims and r["power"] == power and _key(r) in before]
            if not pairs:
                continue
            rise = [r["rel_gap"] - p["rel_gap"] for p, r in pairs]
            worse += [(p, r) for (p, r), d in zip(pairs, rise) if d > MOVE_TOL]
            lines.append(" | ".join([
                mode, "x".join(map(str, dims)), f"{power:g}", str(len(pairs)),
                str(sum(p["oracle"] != r["oracle"] for p, r in pairs)),
                str(sum(d < -MOVE_TOL for d in rise)), str(sum(d > MOVE_TOL for d in rise)),
                f"{max(p['rel_gap'] for p, _ in pairs):.2e} -> {max(r['rel_gap'] for _, r in pairs):.2e}",
            ]))
    lines.append(f"{len(worse)} worse by more than {MOVE_TOL:g}")
    lines += [
        f"  {r['mode']} {'x'.join(map(str, r['dims']))} P={r['power']:g} seed {r['seed']}: "
        f"relative gap {p['rel_gap']:.2e} -> {r['rel_gap']:.2e}"
        for p, r in worse
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=50, help="trials per mode and shape (seeds 0 .. N-1)")
    parser.add_argument("--records", help="write every trial's record to this JSON file")
    parser.add_argument("--compare", help="compare with the records a parent tree wrote to this JSON file")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    parent = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            parent = json.load(fh)
    records = panel(args.seeds)
    print(table(records))
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
    if parent is not None:
        print(compare(records, parent))
    worst = max(r["rel_gap"] for r in records)
    print(f"worst relative gap {worst:.2e}; {sum(r['rel_gap'] > THRESHOLD for r in records)} above {THRESHOLD:g}")
    return 1 if worst > THRESHOLD else 0


if __name__ == "__main__":
    sys.exit(main())

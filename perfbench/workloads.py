"""The two benchmark workloads, built from a seed.

certify-default  all eight harness modes at the CLI's default config through
                 matfield.run (one trial per call), then render_table,
                 render_csv and JSON serialisation of each report.
design-sweep     closed-form designs only: a fixed set of seeded designs over
                 four families, dims 1-8 and budgets 10 to 1e6, plus two
                 fixed fault slices, designed once and untimed, that fail at
                 this commit (see fault_slices).

Each workload's operations are made from the seed.  certify-default runs
seeded rounds, each call once, until the time is up; design-sweep attempts
each design of a fixed set once, then times whole passes over the set until
the time is up, and times each design by its median over the passes.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

import checks

_perf = time.perf_counter

# matfield.DEFAULT_TOLERANCES["optimality_gap"]
OPTIMALITY_GAP = 1e-6
CERTIFIED_MODES = ("design-trace", "design-det", "relay-mse", "relay-capacity")
FAMILIES = ("trace", "det", "relay-mse", "relay-capacity")

# On the shared 2-vCPU host the benchmark was tuned on, the vCPU switches
# between a fast and an up to 1.9x slower state, within seconds in some
# phases and for minutes in others.  A time summed over a run follows the
# share of time spent in each state.  The fastest of several passes of an
# operation instead lands in whichever state the run happened to touch,
# which made run totals bimodal and twice as spread (see the README).

# design-sweep's set is timed in whole passes, at least this many; each
# design is timed by its median over the passes.
MIN_PASSES = 2

# certify-default times each call once, in whole rounds of all eight modes
# at one config seed, until the time is up: the PGD work of a trial varies
# with its instance, and more distinct trials per run average it out.  A
# 55 s run did 29-37 rounds on that host.  A traced run does a fixed
# TRACED_ROUNDS rounds, so its counts repeat exactly for a seed.
TRACED_ROUNDS = 8

# design-sweep: budgets 10^1 .. 10^6, SWEEP_PER_CELL instances per
# (family, budget), alternating square and non-square dims.  Budgets below
# 10 are left out: the water-filling bisection misses the budget by more
# than 1e-9 relative on a seed-dependent share of instances there.
SWEEP_POWERS = tuple(10.0**e for e in range(1, 7))
SWEEP_PER_CELL = 50
# relay capacity above this budget keeps the destination no wider than the
# signal rank: wider destinations make its two capacity routes disagree on a
# seed-dependent share of instances.
RELAY_CAPACITY_WIDE_DST_MAX_POWER = 1e4

# fault slices: fixed inputs, independent of the seed
LOW_POWER = 1e-12
LOW_POWER_SHAPES = ((1, 1, 1, 1), (2, 2, 2, 2), (4, 4, 4, 4), (8, 8, 8, 8),
                    (3, 2, 2, 3), (2, 4, 3, 2), (6, 8, 4, 5))
HIGH_POWER = 1e12
HIGH_POWER_SHAPES = ((3, 3, 2, 2), (2, 4, 3, 2), (6, 6, 4, 4), (8, 8, 6, 6))
SLICE_SEEDS = range(10)


class Stats:
    """Counts and timings of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []     # wrong outputs; any makes the run incorrect
        # per operation, in order: (measured seconds, latency seconds,
        # units) where a unit is a certified trial or a design; operations
        # with no units (the oracle-free modes) have no latency
        self.ops = []


def _no_span(name):
    return contextlib.nullcontext()


def median_passes(run_pass, seconds):
    """Call run_pass(first) in whole passes until `seconds` have passed.

    run_pass returns an array of times, one row per operation; the result
    is their elementwise median over the passes, and the pass count.  A
    pass that would end past `seconds` is not started.
    """
    start = _perf()
    runs = [run_pass(True)]
    while len(runs) < MIN_PASSES or (_perf() - start) * (len(runs) + 1) / len(runs) <= seconds:
        runs.append(run_pass(False))
    return np.median(runs, axis=0), len(runs)


# ---------------------------------------------------------------------------
# certify workloads


class Certify:
    """Harness modes through matfield.run, one trial per call, each report checked."""

    name = "certify-default"

    def run_round(self, mf, seed, rnd, stats, span=_no_span):
        """Every mode once at the round's config seed; returns (run() seconds, certified trials) per call."""
        times = []
        cfg_seed = int(np.random.default_rng([seed, rnd]).integers(2**31))
        for mode in mf.experiments.MODES:
            cfg = mf.build_config({}, mode=mode, trials=1, seed=cfg_seed)
            stats.attempted += 1
            try:
                with span(f"experiments.mode.{mode}"):
                    start = _perf()
                    report = mf.run(cfg)
                    elapsed = _perf() - start
                with span("experiments.render"):
                    table = mf.experiments.render_table(report)
                    csv = mf.experiments.render_csv(report)
                    text = json.dumps(report)
            except mf.MatfieldError as exc:
                stats.failed += 1
                stats.errors.append(f"{mode} seed {cfg_seed}: {type(exc).__name__}: {exc}")
                times.append((0.0, 0))
                continue
            times.append((elapsed, sum(1 for r in report["trials"] if r["gap"] is not None)))
            problem = checks.check_certify_report(
                report, 2 if mode == "oracle-compare" else 1, OPTIMALITY_GAP)
            if problem is None and json.loads(text) != report:
                problem = "JSON round trip changed the report"
            if problem is None and not table.endswith("result: PASS"):
                problem = "rendered table does not end in PASS"
            if problem is None and csv.count("\n") != len(report["trials"]) + 1:
                problem = "CSV rows do not match the records"
            if problem is not None:
                stats.errors.append(f"seed {cfg_seed}: {problem}")
        return np.asarray(times, dtype=float)

    def measure(self, mf, seed, seconds, stats):
        """Whole rounds, each call timed once, until `seconds` have passed.

        Returns how many rounds ran.  A round that would end past `seconds`
        is not started.  A call's latency is its whole run() time, not a
        share per trial: per-trial times of the five certified modes form
        clusters whose median fell in the gap between two of them.
        """
        start = _perf()
        times = []
        while not times or (_perf() - start) * (len(times) + 1) / len(times) <= seconds:
            times.append(self.run_round(mf, seed, len(times), stats))
        stats.ops = [(t, t, int(n)) for t, n in np.concatenate(times)]
        return f"{len(times)} rounds"

    def run_fixed(self, mf, seed, stats, span=_no_span):
        """TRACED_ROUNDS rounds, for traced runs."""
        for rnd in range(TRACED_ROUNDS):
            self.run_round(mf, seed, rnd, stats, span)


# oracle gap shares at or below this count as closed
GAP_FLOOR = 1e-16
PANEL_TRIALS = 2


def oracle_gap_decades(mf):
    """Mean over a fixed panel of log10(max(share, GAP_FLOOR) / GAP_FLOOR).

    share = max(0, gap) / max(1, |structured objective|) for each trial.
    The panel is the first PANEL_TRIALS trials of each certified design mode
    at the default config and seed 0, the CLI's default seed, so it does not depend on the benchmark
    seed.  Relay gaps sit near 1e-3 and point-to-point gaps at 1e-11 or
    below; on a log scale an oracle that weakens by some decades in any one
    mode moves the mean, where an arithmetic mean of shares would hear only
    the relay modes.  Returns (mean decades, failure reason or None).
    """
    decades = []
    for mode in CERTIFIED_MODES:
        report = mf.run(mf.build_config({}, mode=mode, trials=PANEL_TRIALS, seed=0))
        problem = checks.check_certify_report(report, PANEL_TRIALS, OPTIMALITY_GAP)
        if problem is not None:
            return float("nan"), problem
        for r in report["trials"]:
            share = max(0.0, r["gap"]) / max(1.0, abs(r["objective_structured"]))
            decades.append(float(np.log10(max(share, GAP_FLOOR) / GAP_FLOOR)))
    return float(np.mean(decades)), None


# ---------------------------------------------------------------------------
# design-sweep


def _square_or_not(rng, j):
    if j % 2 == 0:
        return (int(rng.integers(1, 9)),) * 4
    return tuple(int(d) for d in rng.integers(1, 9, 4))


def sweep_ops(seed):
    """(family, dims, power, instance seeds) of the seeded design set."""
    rng = np.random.default_rng(seed)
    ops = []
    for family in FAMILIES:
        for power in SWEEP_POWERS:
            for j in range(SWEEP_PER_CELL):
                dims = _square_or_not(rng, j)
                if family == "relay-capacity" and power > RELAY_CAPACITY_WIDE_DST_MAX_POWER:
                    dims = (dims[0], min(dims), dims[2], dims[3])
                seeds = tuple(int(s) for s in rng.integers(0, 2**63, 2))
                ops.append((family, dims, power, seeds))
    return ops


def fault_slices():
    """The two fixed fault slices; their inputs do not depend on the seed.

    low-power   every family at P = 1e-12, LOW_POWER_SHAPES x SLICE_SEEDS
    high-power  relay capacity at P = 1e12, HIGH_POWER_SHAPES x SLICE_SEEDS,
                destinations wider than the relay input
    """
    ops = []
    for family in FAMILIES:
        for i in SLICE_SEEDS:
            for dims in LOW_POWER_SHAPES:
                ops.append((family, dims, LOW_POWER, (i, 1000 + i), "low-power"))
    for i in SLICE_SEEDS:
        for dims in HIGH_POWER_SHAPES:
            ops.append(("relay-capacity", dims, HIGH_POWER, (i, 1000 + i), "high-power"))
    return ops


def design_once(mf, family, dims, power, seeds):
    """Generate one instance and design it.

    Returns (generate seconds, design seconds, failure reason or None).
    """
    start = _perf()
    if family in ("trace", "det"):
        model = mf.generate_system(seeds[0], dims, power)
        op = mf.generate_weighting(seeds[1], dims)
        made = _perf()
        try:
            if family == "trace":
                design = mf.design_trace_min(model, op)
            else:
                design = mf.design_det_min(model, op)
        except mf.MatfieldError as exc:
            return made - start, _perf() - made, f"{type(exc).__name__}: {exc}"
        done = _perf()
        problem = checks.check_point_design(
            model.channel, model.noise_cov, op.weights[0], op.offset, power,
            family, design.precoder, design.objective_value)
    else:
        relay = mf.generate_relay(seeds[0], dims, power)
        made = _perf()
        try:
            if family == "relay-mse":
                fwd, value, _ = mf.design_relay_sum_mse(relay)
            else:
                fwd, value, _ = mf.design_relay_capacity(relay)
        except mf.MatfieldError as exc:
            return made - start, _perf() - made, f"{type(exc).__name__}: {exc}"
        done = _perf()
        problem = checks.check_relay_design(
            relay.channel1, relay.channel2, relay.source_cov, relay.noise1_cov,
            relay.noise2_cov, power, "trace" if family == "relay-mse" else "det", fwd, value)
    return made - start, done - made, problem


class DesignSweep:
    """Closed-form designs: fault slices once, untimed; the seeded set timed.

    The 320 fault-slice designs are attempted once per run, before timing,
    so `failed` is exactly their failing count whatever the machine speed,
    and their designs, which fail their checks, stay out of the timings.
    Every pass checks every output.
    """

    name = "design-sweep"

    def run_faults(self, mf, stats):
        for family, dims, power, seeds, _ in fault_slices():
            stats.attempted += 1
            if design_once(mf, family, dims, power, seeds)[2] is not None:
                stats.failed += 1

    def run_pass(self, mf, ops, stats, first):
        """Design every op once; returns (generate + design, design) seconds."""
        times = np.empty((len(ops), 2))
        for i, (family, dims, power, seeds) in enumerate(ops):
            gen_s, design_s, problem = design_once(mf, family, dims, power, seeds)
            times[i] = gen_s + design_s, design_s
            stats.attempted += first
            if problem is not None:
                stats.failed += first
                stats.errors.append(f"{family} {dims} P={power:g} seeds {seeds}: {problem}")
        return times

    def measure(self, mf, seed, seconds, stats):
        """Fault slices, then the seeded set in passes; returns how many passes ran."""
        self.run_faults(mf, stats)
        ops = sweep_ops(seed)
        typical, passes = median_passes(lambda first: self.run_pass(mf, ops, stats, first), seconds)
        stats.ops = [(total, design, 1) for total, design in typical]
        return f"{passes} passes"

    def run_fixed(self, mf, seed, stats, span=_no_span):
        """The fault slices and one pass over the seeded set, for traced runs."""
        self.run_faults(mf, stats)
        self.run_pass(mf, sweep_ops(seed), stats, True)


WORKLOADS = {w.name: w for w in (Certify(), DesignSweep())}


# ---------------------------------------------------------------------------
# the checks bite


def self_test(mf):
    """Show that corrupted outputs fail their checks.  Returns a reason or None."""
    model = mf.generate_system(11, (3, 3, 2, 2), 4.0)
    op = mf.generate_weighting(12, (3, 3, 2, 2))
    args = (model.channel, model.noise_cov, op.weights[0], op.offset, 4.0)
    for kind, design in (("trace", mf.design_trace_min(model, op)),
                         ("det", mf.design_det_min(model, op))):
        f = design.precoder
        if checks.check_point_design(*args, kind, f, design.objective_value) is not None:
            return f"{kind}: a correct design fails its check"
        if checks.check_point_design(*args, kind, 1.01 * f, design.objective_value) is None:
            return f"{kind}: a precoder scaled by 1.01 passes"
        if checks.check_point_design(*args, kind, f, design.objective_value * (1 + 1e-6)) is None:
            return f"{kind}: an objective off by 1e-6 passes"
        c, s = np.cos(0.1), np.sin(0.1)
        turned = f @ np.array([[c, -s], [s, c]])
        phi, _ = checks.error_cov(model.channel, model.noise_cov, turned)
        psi = op.weights[0].conj().T @ phi @ op.weights[0] + op.offset
        if checks.check_point_design(*args, kind, turned, checks.objective_value(psi, kind)) is None:
            return f"{kind}: a precoder turned off its optimal basis passes"
    relay = mf.generate_relay(13, (3, 3, 2, 2), 4.0)
    mats = (relay.channel1, relay.channel2, relay.source_cov, relay.noise1_cov, relay.noise2_cov, 4.0)
    for kind, make in (("trace", mf.design_relay_sum_mse), ("det", mf.design_relay_capacity)):
        fwd, value, _ = make(relay)
        if checks.check_relay_design(*mats, kind, fwd, value) is not None:
            return f"relay {kind}: a correct design fails its check"
        if checks.check_relay_design(*mats, kind, 1.01 * fwd, value) is None:
            return f"relay {kind}: a forwarding matrix scaled by 1.01 passes"
    report = mf.run(mf.build_config({}, mode="design-trace", trials=1))
    report["trials"][0]["objective_oracle_best"] = report["trials"][0]["objective_structured"] - 1e-3
    if checks.check_certify_report(report, 1, OPTIMALITY_GAP) is None:
        return "a report whose oracle beats the design passes"
    return None

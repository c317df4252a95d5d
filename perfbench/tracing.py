"""Spans recorded from the benchmark around calls into matfield's layers.

Each layer is wrapped at the names through which its callers look it up
(module globals such as ``matfield.experiments.random_search_oracle`` or
``matfield.design.waterfill_trace``), so no file of the program changes.
The SearchProblem callables are wrapped by wrapping the four ``*_problem``
constructors.  Spans (name, start, end, parent, rows) stay in memory and
are written out when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time

_perf = time.perf_counter

# span name -> (module, attribute) lookups wrapped while tracing.  A span
# name is the stem of its metrics: its self time is <name>_s.
_TARGETS = {
    "instances.generate": [
        (m, f) for m in ("matfield", "matfield.experiments")
        for f in ("generate_system", "generate_weighting", "generate_relay")
    ],
    "spectral.decomp": [
        (m, f) for m in ("matfield.design", "matfield.experiments")
        for f in ("ordered_svd", "ordered_evd")
    ],
    "design.whiten": [("matfield.design", "whiten_channel"), ("matfield.experiments", "whiten_channel")],
    "design.waterfill": [("matfield.design", "waterfill_trace"), ("matfield.design", "waterfill_logdet")],
    "design.assemble": [("matfield.design", "assemble_precoder")],
    # the rest of the design entry points
    "design.self": [
        (m, f) for m in ("matfield", "matfield.experiments", "matfield.relay")
        for f in ("design_trace_min", "design_det_min")
    ],
    "weighting.apply": [
        ("matfield.design", "weighted_mse_of_precoder"),
        ("matfield.experiments", "weighted_mse_of_precoder"),
    ],
    "relay.map": [
        ("matfield.relay", "relay_to_weighted"),
        ("matfield.experiments", "relay_to_weighted"),
        ("matfield.relay", "precoder_to_forwarding"),
        ("matfield.experiments", "forwarding_to_precoder"),
        *((m, f) for m in ("matfield", "matfield.experiments")
          for f in ("design_relay_sum_mse", "design_relay_capacity")),
    ],
    "relay.chain": [
        ("matfield.relay", "relay_weighted_mse"),
        ("matfield.experiments", "relay_weighted_mse"),
        ("matfield.relay", "relay_capacity"),
        ("matfield.experiments", "relay_transmit_power"),
    ],
    "baselines.oracle_self": [("matfield.experiments", "random_search_oracle")],
    "baselines.pgd": [("matfield.baselines", "projected_gradient_descent")],
}
# spans that also count their calls (<name>_calls) or the rows they were given
_CALLS = ("spectral.decomp", "design.waterfill")
_ROWS = {"rng.sample": "rng.sample_entries"}
_PROBLEMS = [
    ("matfield.experiments", f)
    for f in ("trace_problem", "logdet_problem", "relay_mse_problem", "relay_logdet_problem")
]
MODES = (
    "design-trace", "design-det", "relay-mse", "relay-capacity",
    "verify-inequalities", "verify-equivalence", "oracle-compare", "demo-schur",
)


def _stack_rows(args):
    shape = getattr(args[0], "shape", ())
    return shape[0] if len(shape) == 3 else 1


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, rows]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name, rows):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, rows]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _perf()
        return rec

    def _end(self, rec):
        rec[2] = _perf()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._begin(name, 0)
        try:
            yield
        finally:
            self._end(rec)

    def wrap(self, name, fn, rows=None):
        def traced(*args, **kwargs):
            rec = self._begin(name, rows(args) if rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(rec)

        traced.__wrapped__ = fn
        return traced

    def _wrap_problem(self, make):
        def traced_make(*args, **kwargs):
            rec = self._begin("baselines.problem", 0)
            try:
                problem = make(*args, **kwargs)
            finally:
                self._end(rec)
            return dataclasses.replace(
                problem,
                objective=self.wrap("baselines.objective", problem.objective, _stack_rows),
                power_of=self.wrap("baselines.power_of", problem.power_of, _stack_rows),
                gradient=problem.gradient
                and self.wrap("baselines.gradient", problem.gradient, _stack_rows),
            )

        return traced_make

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup name with a span-recording wrapper, then restore."""
        saved = []
        wrapped = {}

        def patch(owner, attr, make):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            setattr(owner, attr, wrapped[id(original)])

        try:
            for name, lookups in _TARGETS.items():
                for module, attr in lookups:
                    patch(importlib.import_module(module), attr,
                          lambda fn, name=name: self.wrap(name, fn))
            for module, attr in _PROBLEMS:
                patch(importlib.import_module(module), attr, self._wrap_problem)
            rng = importlib.import_module("matfield.rng").SplitMix64
            patch(rng, "complex_normal_stack",
                  lambda fn: self.wrap("rng.sample", fn, lambda a: a[1] * a[2] * a[3]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as CSV: id,name,start_s,end_s,parent,rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,rows\n")
            for i, (name, start, end, parent, rows) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{rows}\n")

    def layer_metrics(self):
        """Per-layer self times, counts and ratios derived from the spans."""
        n = len(self.spans)
        child = [0.0] * n
        in_pgd = [False] * n
        first_in_parent = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_pgd[i] = in_pgd[parent] or self.spans[parent][0] == "baselines.pgd"
        m = {key: 0 if unit == "count" else 0.0 for key, unit in METRIC_UNITS.items()}
        accepted = candidates = 0
        for i, (name, start, end, parent, rows) in enumerate(self.spans):
            dur = end - start
            own = dur - child[i]
            if name == "baselines.pgd":
                m["baselines.pgd_s"] += dur
                m["baselines.pgd_self_s"] += own
            elif name in ("baselines.objective", "baselines.gradient"):
                first = (parent, name) not in first_in_parent
                first_in_parent.setdefault((parent, name), i)
                if not in_pgd[i]:
                    m["baselines.score_s"] += own
                    m["baselines.score_rows"] += rows
                elif name == "baselines.objective":
                    m["baselines.pgd_objective_s"] += own
                    m["baselines.pgd_objective_rows"] += rows
                    if not first:
                        m["baselines.pgd_iterations"] += 1
                        candidates += rows
                else:
                    m["baselines.pgd_gradient_s"] += own
                    m["baselines.pgd_gradient_rows"] += rows
                    if not first:
                        accepted += rows
            elif name.startswith("experiments.mode."):
                m[name + ".s"] += dur
                m["experiments.self_s"] += own
            elif name == "experiments.render":
                m["experiments.render_s"] += dur
            else:
                m[name + "_s"] += own
                if name in _CALLS:
                    m[name + "_calls"] += 1
                if name in _ROWS:
                    m[_ROWS[name]] += rows
        m["baselines.pgd_candidate_rows"] = candidates
        m["baselines.pgd_accept_ratio"] = accepted / candidates if candidates else 0.0
        return m


# per-layer metric -> unit; *_s are self times unless the README says "total"
METRIC_UNITS = {
    "rng.sample_s": "s",
    "rng.sample_entries": "count",
    "instances.generate_s": "s",
    "spectral.decomp_s": "s",
    "spectral.decomp_calls": "count",
    "design.whiten_s": "s",
    "design.waterfill_s": "s",
    "design.waterfill_calls": "count",
    "design.assemble_s": "s",
    "design.self_s": "s",
    "weighting.apply_s": "s",
    "relay.map_s": "s",
    "relay.chain_s": "s",
    "baselines.problem_s": "s",
    "baselines.score_s": "s",
    "baselines.score_rows": "count",
    "baselines.oracle_self_s": "s",
    "baselines.pgd_s": "s",
    "baselines.pgd_self_s": "s",
    "baselines.pgd_iterations": "count",
    "baselines.pgd_objective_s": "s",
    "baselines.pgd_objective_rows": "count",
    "baselines.pgd_gradient_s": "s",
    "baselines.pgd_gradient_rows": "count",
    "baselines.pgd_candidate_rows": "count",
    "baselines.pgd_accept_ratio": "1",
    "baselines.power_of_s": "s",
    **{f"experiments.mode.{mode}.s": "s" for mode in MODES},
    "experiments.self_s": "s",
    "experiments.render_s": "s",
}

"""Experiment harness: seeded verification and design-vs-oracle runs.

Every mode is a per-trial function (cfg, trial) -> record paired with an
aggregate of the records; run() loops over the trials and returns a
JSON-serializable report with one record per trial, the tolerances actually
applied, and a single overall pass flag.
Reports are deterministic for a fixed config except for the wall-time entry.

Sub-stream layout: component c of trial t uses derive_seed(seed, t, c) with
  0 = instance matrices, 1 = weighting operator, 2 = oracle sampling,
  3/4 = PSD test pair, 5 = random forwarding/probe matrices.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from ._version import __version__
from .baselines import (
    logdet_problem,
    random_search_oracle,
    relay_logdet_problem,
    relay_mse_problem,
    trace_problem,
)
from .design import (
    design_det_min,
    design_trace_min,
    det_sum_lower_bound,
    logdet_kkt_residual,
    trace_kkt_residual,
    trace_product_lower_bound,
    whiten_channel,
)
from .errors import ConfigError
from .instances import (
    check_dims,
    generate_relay,
    generate_system,
    generate_weighting,
    relay_from_json,
    system_from_json,
    weighting_from_json,
)
from .mimo import as_float, is_integer, is_real, transmit_power
from .relay import (
    design_relay_capacity,
    design_relay_sum_mse,
    forwarding_to_precoder,
    relay_capacity_routes,
    relay_to_weighted,
    relay_transmit_power,
    relay_weighted_mse,
)
from .rng import SplitMix64, derive_seed
# whiten_channel and ordered_svd are not called here: perfbench/tracing.py wraps both by name
from .spectral import from_eigs, logdet_pd, ordered_evd, ordered_svd, symmetrize  # noqa: F401
from .weighting import weighted_mse_of_precoder

DEFAULT_TOLERANCES = {
    "two_route_rel": 1e-10,
    "inequality_slack": 1e-9,
    "equality_rel": 1e-9,
    "optimality_gap": 1e-6,
    "scalarization": 1e-8,
    "equivalence_rel": 1e-9,
    "power_rel": 1e-9,
    "kkt_rel": 1e-8,
}

# derive_seed component tags
TAG_INSTANCE = 0
TAG_WEIGHTING = 1
TAG_ORACLE = 2
TAG_PSD_A = 3
TAG_PSD_B = 4
TAG_PROBE = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated harness configuration (CLI flags override file fields)."""

    mode: str
    dims: tuple = (2, 2, 2, 2)
    power: float = 4.0
    trials: int = 20
    seed: int = 0
    budget: int = 2000
    refinements: int = 100
    jitter_pi: bool = False
    tolerances: dict = field(default_factory=DEFAULT_TOLERANCES.copy)
    instance: Optional[dict] = None


def load_config_file(path: str) -> dict:
    """Read a JSON config file, mapping parse problems to ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def build_config(data: dict, mode: Optional[str] = None, **overrides) -> ExperimentConfig:
    """Merge a config dict with CLI-style overrides and validate fields."""
    merged = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
    merged.update(data)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    for key in merged:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
    if mode is not None:
        merged["mode"] = mode
    if "mode" not in merged:
        raise ConfigError("mode: missing (give a subcommand or a mode field)")
    if merged["mode"] not in MODES:
        raise ConfigError(f"mode: unknown mode {merged['mode']!r}, expected one of {MODES}")
    dims = check_dims(merged["dims"])
    if any(d > 64 for d in dims):
        raise ConfigError("dims: entries above 64 are not supported by the harness")
    if not is_real(merged["power"]):
        raise ConfigError(f"power: expected a number, got {merged['power']!r}")
    power = as_float(merged["power"])
    # below the smallest normal double Tr(F F^H) keeps too few digits for the power check
    if not sys.float_info.min <= power < np.inf:
        raise ConfigError(f"power: must be finite and at least {sys.float_info.min!r}, got {power!r}")
    # trials and oracle samples per trial stop at 10**6, 50000 and 500 times
    # the defaults, so a mistyped count exits at once instead of running on
    for key, lo, hi in (("trials", 1, 10**6), ("budget", 1, 10**6), ("refinements", 0, None),
                        ("seed", None, None)):
        if not is_integer(merged[key]):
            raise ConfigError(f"{key}: expected an integer, got {merged[key]!r}")
        merged[key] = int(merged[key])
        if lo is not None and merged[key] < lo:
            raise ConfigError(f"{key}: must be >= {lo}")
        if hi is not None and merged[key] > hi:
            raise ConfigError(f"{key}: values above {hi} are not supported by the harness")
    tol = merged.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances: expected an object of name -> value")
    for name, value in tol.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{name}: unknown tolerance name")
        if not is_real(value) or not 0 < as_float(value) < np.inf:
            raise ConfigError(f"tolerances.{name}: expected a positive finite number, got {value!r}")
    instance = merged.get("instance")
    if instance is not None and not isinstance(instance, dict):
        raise ConfigError("instance: expected an object")
    if instance is not None and merged["mode"] == "verify-inequalities":
        raise ConfigError("instance: verify-inequalities draws its own matrix pairs and takes none")
    if not isinstance(merged["jitter_pi"], bool):
        raise ConfigError("jitter_pi: expected true or false")
    tol = {**DEFAULT_TOLERANCES, **{name: float(value) for name, value in tol.items()}}
    return ExperimentConfig(**{**merged, "dims": dims, "power": power, "tolerances": tol})


# ---------------------------------------------------------------------------
# small shared helpers


def _rel_gap(a, b) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / max(na, nb, 1.0)


def _scalar_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _design_invariants(cfg, design, kind: str, power: float, power_used: float,
                       gap: float) -> tuple[dict, dict]:
    """Power, KKT, ordering, scalarization and oracle-gap checks shared by design modes.

    The checks read the paired spectra the design water-filled.  power is
    the budget; power_used is the power the design spends: Tr(F F^H) for a
    point design, Tr(P C1 P^H) for a relay design.  gap is the oracle's best
    minus the design's objective.
    """
    lam_obj = design.weight_eigs
    lam_h_modes = design.channel_eigs
    gains_sq = np.pad(design.gains**2, (0, lam_obj.size - design.gains.size))
    pi_eff = design.offset
    if kind == "trace":
        scalar = float(np.sum(lam_obj / (1.0 + lam_h_modes * gains_sq))) + float(
            np.real(np.trace(pi_eff))
        )
        kkt = trace_kkt_residual(lam_obj, lam_h_modes, gains_sq, design.multiplier)
    else:
        scalar = logdet_pd(pi_eff) + float(
            np.sum(np.log(lam_obj / (1.0 + lam_h_modes * gains_sq) + 1.0))
        )
        kkt = logdet_kkt_residual(lam_obj, lam_h_modes, gains_sq, design.multiplier)
    any_active = bool(np.any(lam_obj * lam_h_modes > 0.0))
    if any_active:
        power_ok = abs(power_used - power) <= cfg.tolerances["power_rel"] * power
    else:
        power_ok = power_used <= cfg.tolerances["power_rel"] * power
    products = lam_h_modes * gains_sq
    ordering_ok = bool(np.all(np.diff(products) <= 1e-9 * max(1.0, float(products.max(initial=0.0)))))
    flags = {
        "power": bool(power_ok),
        "kkt": bool(kkt <= cfg.tolerances["kkt_rel"]),
        "ordering": ordering_ok,
        "scalarization": bool(
            _scalar_gap(design.objective_value, scalar) <= cfg.tolerances["scalarization"]
        ),
        "gap": bool(gap >= -cfg.tolerances["optimality_gap"]),
    }
    detail = {
        "power_used": float(power_used),
        "kkt_residual": float(kkt),
        "scalarized_objective": float(scalar),
    }
    return flags, detail


def _record_pass(flags: dict) -> bool:
    return all(bool(v) for v in flags.values())


def _num(value):
    return None if value is None else float(value)


def _record(trial, flags, detail, objective=None, oracle_best=None, gap=None, power=None):
    """One per-trial report entry."""
    return {
        "trial": trial,
        "objective_structured": _num(objective),
        "objective_oracle_best": _num(oracle_best),
        "gap": _num(gap),
        "power_used": _num(power),
        "invariant_pass": flags,
        "detail": detail,
    }


# complex entries in one trial's oracle sample stack, budget x rows x cols; a trial
# at the cap peaked at 0.66-0.97 GB resident, and the default budget fits at dims 64
MAX_ORACLE_ENTRIES = 10**7
# complex entries in one trial's refinement starts, min(refinements, budget) x rows x
# cols; 125,000 starts of 2x2 peaked at 0.72 GB, and the default 100 fit at dims 64
MAX_REFINED_ENTRIES = 500_000


def _oracle(cfg: ExperimentConfig, trial: int, problem) -> float:
    rows, cols = problem.shape
    entries = cfg.budget * rows * cols
    if entries > MAX_ORACLE_ENTRIES:
        raise ConfigError(
            f"budget: {cfg.budget} oracle samples of {rows}x{cols} matrices are {entries} "
            f"entries, above the harness's cap of {MAX_ORACLE_ENTRIES}"
        )
    starts = min(cfg.refinements, cfg.budget)
    refined = starts * rows * cols
    if refined > MAX_REFINED_ENTRIES:
        raise ConfigError(
            f"refinements: {starts} refinement starts of {rows}x{cols} matrices are {refined} "
            f"entries, above the harness's cap of {MAX_REFINED_ENTRIES}"
        )
    return random_search_oracle(
        problem, cfg.budget, derive_seed(cfg.seed, trial, TAG_ORACLE), refinements=cfg.refinements
    )


# ---------------------------------------------------------------------------
# per-trial mode functions: (cfg, trial) -> record


def _system_and_weighting(cfg: ExperimentConfig, trial: int):
    """The trial's model and a single-factor weighting that fits its streams."""
    if cfg.instance is None:
        model = generate_system(derive_seed(cfg.seed, trial, TAG_INSTANCE), cfg.dims, cfg.power)
    else:
        model = system_from_json(cfg.instance, cfg.power)
    if cfg.instance is not None and ("W" in cfg.instance or "Pi" in cfg.instance):
        op = weighting_from_json(cfg.instance)
        if op.k != 1:
            raise ConfigError(f"instance.W: the closed-form designs take one factor, got {op.k}")
        if op.n_streams != model.n_streams:
            raise ConfigError(
                f"instance.W: {op.n_streams} rows, but the model has {model.n_streams} streams"
            )
        return model, op
    op = generate_weighting(derive_seed(cfg.seed, trial, TAG_WEIGHTING), cfg.dims)
    if op.n_streams != model.n_streams:
        raise ConfigError(
            f"dims: the generated weighting has {op.n_streams} streams, but the instance has "
            f"{model.n_streams} (give instance.W and instance.Pi, or set dims)"
        )
    return model, op


def _relay(cfg: ExperimentConfig, trial: int):
    if cfg.instance is not None:
        return relay_from_json(cfg.instance, cfg.power)
    return generate_relay(derive_seed(cfg.seed, trial, TAG_INSTANCE), cfg.dims, cfg.power)


def _point_design(cfg: ExperimentConfig, trial: int, kind: str) -> dict:
    model, op = _system_and_weighting(cfg, trial)
    if kind == "trace":
        design = design_trace_min(model, op)
        problem = trace_problem(model, op)
    else:
        design = design_det_min(model, op, jitter_pi=cfg.jitter_pi)
        problem = logdet_problem(model, op)
    oracle_best = _oracle(cfg, trial, problem)
    gap = oracle_best - design.objective_value
    flags, detail = _design_invariants(cfg, design, kind, model.power, transmit_power(design.precoder),
                                       gap)
    return _record(trial, flags, detail, design.objective_value, oracle_best, gap, detail["power_used"])


def _relay_design(cfg: ExperimentConfig, trial: int, kind: str) -> dict:
    """kind "trace" is the sum-MSE design, "det" the capacity design.

    route_match compares the chain objective at P = F C1^{-1/2} with the design's at F.
    """
    relay = _relay(cfg, trial)
    if kind == "trace":
        fwd, objective, design = design_relay_sum_mse(relay)
        oracle_best = _oracle(cfg, trial, relay_mse_problem(relay))
        gap = oracle_best - objective
        mapped = design.objective_value
    else:
        fwd, objective, design = design_relay_capacity(relay, jitter_pi=cfg.jitter_pi)
        oracle_min = _oracle(cfg, trial, relay_logdet_problem(relay))
        logdet_rs = logdet_pd(relay.source_cov)
        oracle_best = logdet_rs - oracle_min
        gap = objective - oracle_best
        mapped = logdet_rs - design.objective_value
    route_gap = _scalar_gap(objective, mapped)
    power_used = relay_transmit_power(relay, fwd)
    flags, detail = _design_invariants(cfg, design, kind, relay.power, power_used, gap)
    flags["route_match"] = bool(route_gap <= cfg.tolerances["equivalence_rel"])
    detail["route_rel_gap"] = float(route_gap)
    return _record(trial, flags, detail, objective, oracle_best, gap, power_used)


def _verify_inequalities(cfg: ExperimentConfig, trial: int) -> dict:
    n = cfg.dims[2]
    sa = SplitMix64(derive_seed(cfg.seed, trial, TAG_PSD_A))
    sb = SplitMix64(derive_seed(cfg.seed, trial, TAG_PSD_B))
    ba = sa.complex_normal(n, n)
    bb = sb.complex_normal(n, n)
    a = symmetrize(ba.conj().T @ ba)
    b = symmetrize(bb.conj().T @ bb)
    bound1, holds1 = trace_product_lower_bound(a, b, cfg.tolerances["inequality_slack"])
    bound2, holds2 = det_sum_lower_bound(a, b, cfg.tolerances["inequality_slack"])
    # equality constructions: shared eigenvectors, reversed order for the
    # trace bound, aligned order for the determinant bound
    evd_a = ordered_evd(a)
    eigs_b = np.sort(np.linalg.eigvalsh(b))
    u = evd_a.vectors
    b_rev = from_eigs(u, eigs_b)
    tr_rev = float(np.real(np.trace(a @ b_rev)))
    eq1_gap = _scalar_gap(tr_rev, trace_product_lower_bound(a, b_rev)[0])
    b_ali = from_eigs(u, eigs_b[::-1])
    det_ali = float(np.real(np.linalg.det(a + b_ali)))
    eq2_gap = _scalar_gap(det_ali, det_sum_lower_bound(a, b_ali)[0])
    flags = {
        "trace_bound": bool(holds1),
        "det_bound": bool(holds2),
        "trace_equality": bool(eq1_gap <= cfg.tolerances["equality_rel"]),
        "det_equality": bool(eq2_gap <= cfg.tolerances["equality_rel"]),
    }
    detail = {
        "trace_bound": bound1,
        "det_bound": bound2,
        "trace_equality_rel_gap": eq1_gap,
        "det_equality_rel_gap": eq2_gap,
    }
    return _record(trial, flags, detail)


def _verify_equivalence(cfg: ExperimentConfig, trial: int) -> dict:
    relay = _relay(cfg, trial)
    sysmodel, op = relay_to_weighted(relay)
    probe = SplitMix64(derive_seed(cfg.seed, trial, TAG_PROBE))
    fwd = probe.complex_normal(relay.n_relay_tx, relay.n_relay_rx)
    fwd = fwd * np.sqrt(relay.power / max(relay_transmit_power(relay, fwd), 1e-300))

    psi_relay = relay_weighted_mse(relay, fwd)
    f_mapped = forwarding_to_precoder(relay, fwd)
    psi_weighted = weighted_mse_of_precoder(op, sysmodel, f_mapped)
    route_rel = _rel_gap(psi_relay, psi_weighted)

    pi_identity = _rel_gap(op.factor_gram() + op.offset, relay.source_cov)

    # fwd was scaled to spend relay.power by Tr(P C1 P^H); the mapped F must spend it too
    power_used = transmit_power(f_mapped)
    power_gap = abs(power_used - relay.power) / max(1.0, relay.power)

    # the flag, not relay_capacity's NumericalError, reports a disagreement
    cap_gap = _scalar_gap(*relay_capacity_routes(relay, fwd))

    # independent end-to-end error covariance in information form
    t = relay.channel2 @ fwd
    a_chain = t @ relay.channel1
    c_noise = symmetrize(t @ relay.noise1_cov @ t.conj().T + relay.noise2_cov)
    x = np.linalg.solve(c_noise, a_chain)
    info = np.linalg.inv(relay.source_cov) + a_chain.conj().T @ x
    e2e = np.linalg.inv(symmetrize(info))
    e2e_rel = _rel_gap(psi_relay, e2e)

    flags = {
        "route_match": bool(route_rel <= cfg.tolerances["equivalence_rel"]),
        "pi_identity": bool(pi_identity <= cfg.tolerances["two_route_rel"]),
        "power_bijection": bool(power_gap <= cfg.tolerances["power_rel"]),
        "capacity_two_route": bool(cap_gap <= cfg.tolerances["equivalence_rel"]),
        "end_to_end_lmmse": bool(e2e_rel <= cfg.tolerances["equivalence_rel"]),
    }
    detail = {
        "route_rel_gap": route_rel,
        "pi_identity_rel_gap": pi_identity,
        "power_rel_gap": power_gap,
        "capacity_rel_gap": cap_gap,
        "end_to_end_rel_gap": e2e_rel,
    }
    return _record(trial, flags, detail, power=power_used)


def _worst_gap(records: list) -> dict:
    return {"worst_gap": float(min(r["gap"] for r in records))}


def _largest(name: str, *keys: str):
    """The aggregate that reports, as name, the largest detail field in keys over all records."""
    return lambda records: {name: float(max(r["detail"][k] for r in records for k in keys))}


# mode -> (CLI help line, per-trial function, aggregate of the records);
# MODES keeps this order
_MODE_TABLE = {
    "design-trace": ("trace-optimal weighted design vs the random-search oracle",
                     lambda cfg, trial: _point_design(cfg, trial, "trace"), _worst_gap),
    "design-det": ("log-det-optimal weighted design vs the random-search oracle",
                   lambda cfg, trial: _point_design(cfg, trial, "det"), _worst_gap),
    "relay-mse": ("relay sum-MSE design through the chain vs the oracle",
                  lambda cfg, trial: _relay_design(cfg, trial, "trace"), _worst_gap),
    "relay-capacity": ("relay capacity design through the chain vs the oracle",
                       lambda cfg, trial: _relay_design(cfg, trial, "det"), _worst_gap),
    "verify-inequalities": (
        "spectral trace/determinant bounds and equality cases", _verify_inequalities,
        _largest("max_equality_rel_gap", "trace_equality_rel_gap", "det_equality_rel_gap"),
    ),
    "verify-equivalence": (
        "relay chain vs weighted point-to-point consistency", _verify_equivalence,
        _largest("max_rel_discrepancy", "route_rel_gap", "capacity_rel_gap", "end_to_end_rel_gap"),
    ),
}
MODES = tuple(_MODE_TABLE)


# ---------------------------------------------------------------------------
# entry point and rendering


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured mode and return the report dict."""
    start = time.perf_counter()
    _, per_trial, aggregate_of = _MODE_TABLE[cfg.mode]
    records = [per_trial(cfg, trial) for trial in range(cfg.trials)]
    failures = sum(0 if _record_pass(r["invariant_pass"]) else 1 for r in records)
    aggregate = {
        "trials": len(records),
        "failures": failures,
        "wall_time_s": time.perf_counter() - start,
    }
    aggregate.update(aggregate_of(records))
    return {
        "tool": "matfield",
        "version": __version__,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config": {
            "dims": list(cfg.dims),
            "power": cfg.power,
            "trials": cfg.trials,
            "budget": cfg.budget,
            "refinements": cfg.refinements,
            "jitter_pi": cfg.jitter_pi,
            "explicit_instance": cfg.instance is not None,
        },
        "tolerances": dict(cfg.tolerances),
        "trials": records,
        "aggregate": aggregate,
        "pass": failures == 0,
    }


# (table header, record key, table format) of each per-trial column; the CSV
# header is the record key, and a column the first record leaves None stays
# out of the table
_COLUMNS = (
    ("trial", "trial", "{}"),
    ("objective", "objective_structured", "{:.9g}"),
    ("oracle_best", "objective_oracle_best", "{:.9g}"),
    ("gap", "gap", "{:+.3e}"),
    ("power", "power_used", "{:.6g}"),
)


def render_table(report: dict) -> str:
    """Aligned plain-text table of the per-trial records."""
    records = report["trials"]
    lines = []
    header = f"matfield {report['mode']}  seed={report['seed']}  trials={len(records)}"
    lines.append(header)
    lines.append("-" * len(header))
    if not records:
        return "\n".join(lines + ["(no trials)"])
    shown = [c for c in _COLUMNS if records[0].get(c[1]) is not None]
    cols = [name for name, _, _ in shown] + ["ok"]
    rows = [
        [fmt.format(r[key]) for _, key, fmt in shown]
        + ["pass" if _record_pass(r["invariant_pass"]) else "FAIL"]
        for r in records
    ]
    widths = [max(len(c), max(len(row[i]) for row in rows)) for i, c in enumerate(cols)]
    lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(cols)))
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    agg = report["aggregate"]
    summary = ", ".join(
        f"{k}={agg[k]:.6g}" if isinstance(agg[k], float) else f"{k}={agg[k]}"
        for k in sorted(agg)
        if k != "wall_time_s"
    )
    lines.append(f"aggregate: {summary}")
    lines.append("result: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines)


def render_csv(report: dict) -> str:
    """Flat CSV of the per-trial records (invariant flags as 0/1 columns)."""
    records = report["trials"]
    if not records:
        return ""
    flag_names = sorted({name for r in records for name in r["invariant_pass"]})
    detail_names = sorted(
        {
            name
            for r in records
            for name, v in r.get("detail", {}).items()
            if isinstance(v, (int, float))
        }
    )
    cols = [key for _, key, _ in _COLUMNS]
    cols += [f"inv_{n}" for n in flag_names] + [f"detail_{n}" for n in detail_names]
    out = [",".join(cols)]
    for r in records:
        # str of a float is its repr
        cells = ["" if r.get(key) is None else str(r[key]) for _, key, _ in _COLUMNS]
        for n in flag_names:
            cells.append(str(int(bool(r["invariant_pass"].get(n, True)))))
        for n in detail_names:
            v = r.get("detail", {}).get(n)
            cells.append("" if not isinstance(v, (int, float)) else repr(float(v)))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"

import copy
import dataclasses
import json
import sys

import numpy as np
import pytest

from matfield import ConfigError, NumericalError, logdet_pd, weighted_mse_of_precoder
from matfield.experiments import (
    DEFAULT_TOLERANCES,
    MODES,
    build_config,
    load_config_file,
    render_csv,
    render_table,
    run,
)
from matfield.instances import generate_relay, generate_system, generate_weighting, matrix_to_json


def test_build_config_defaults():
    cfg = build_config({}, mode="design-trace")
    assert cfg.mode == "design-trace"
    assert cfg.dims == (2, 2, 2, 2)
    # the tolerances are fixed: no config sets them, and every report echoes the table in its order
    with pytest.raises(ConfigError, match="^unknown config field 'tolerances'$"):
        build_config({"tolerances": {"optimality_gap": 1.0}}, mode="design-trace")
    echo = run(build_config({"trials": 1}, mode="verify-inequalities"))["tolerances"]
    assert echo == DEFAULT_TOLERANCES and list(echo) == list(DEFAULT_TOLERANCES)


def test_build_config_overrides_win():
    cfg = build_config({"seed": 1, "trials": 5}, mode="design-det", seed=9)
    assert cfg.seed == 9 and cfg.trials == 5


def test_build_config_caps_the_budget():
    assert build_config({"budget": 10**6}, mode="design-trace").budget == 10**6
    for budget in (10**6 + 1, 10**400):
        with pytest.raises(ConfigError, match="^budget:"):
            build_config({"budget": budget}, mode="design-trace")
    with pytest.raises(ConfigError, match="^budget:"):
        build_config({}, mode="design-trace", budget=10**6 + 1)


def test_build_config_caps_the_trials():
    assert build_config({"trials": 10**6}, mode="design-trace").trials == 10**6
    for trials in (10**6 + 1, 10**400):
        with pytest.raises(ConfigError, match="^trials:"):
            build_config({"trials": trials}, mode="design-trace")
        with pytest.raises(ConfigError, match="^trials:"):
            build_config({}, mode="design-trace", trials=trials)


def test_build_config_rejects_bad_input():
    with pytest.raises(ConfigError, match="unknown config field"):
        build_config({"bogus": 1}, mode="design-trace")
    with pytest.raises(ConfigError, match="mode"):
        build_config({})
    with pytest.raises(ConfigError, match="mode"):
        build_config({"mode": "noexist"})
    with pytest.raises(ConfigError, match="dims"):
        build_config({"dims": [2, 2]}, mode="design-trace")
    with pytest.raises(ConfigError, match="dims"):
        build_config({"dims": [2, 2, -1, 2]}, mode="design-trace")
    # below the smallest normal double the power flag fails on valid designs
    for power in (0, float("inf"), float("nan"), 10**400, -(10**400), 1e-320, 5e-324):
        with pytest.raises(ConfigError, match="^power:"):
            build_config({"power": power}, mode="design-trace")
    with pytest.raises(ConfigError, match="trials"):
        build_config({"trials": 0}, mode="design-trace")
    # the tolerances are not a config field, whatever the value
    for tol in ({}, {"optimality_gap": 1e-6}, {"nope": 1.0}, 1e-8):
        with pytest.raises(ConfigError, match="^unknown config field 'tolerances'$"):
            build_config({"tolerances": tol}, mode="design-trace")
    with pytest.raises(ConfigError, match="jitter_pi"):
        build_config({"jitter_pi": "yes"}, mode="design-trace")


def test_build_config_bounds_the_seed():
    # a seed is one 64-bit word: past either end derive_seed would wrap it onto another seed
    for seed in (0, 2**64 - 1):
        assert build_config({"seed": seed}, mode="design-trace").seed == seed
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="^seed:"):
            build_config({"seed": seed}, mode="design-trace")
        with pytest.raises(ConfigError, match="^seed:"):
            build_config({}, mode="design-trace", seed=seed)
    assert run(build_config({"trials": 1, "seed": 2**64 - 1}, mode="verify-inequalities"))["pass"]


def test_build_config_does_not_truncate_numbers():
    data = {"dims": [2.7, 2, 2, 2], "trials": 2.9, "budget": True, "seed": 1.5}
    for key in data:
        with pytest.raises(ConfigError, match=key):
            build_config({key: data[key]}, mode="design-trace")
    # integral floats are integers
    cfg = build_config({"dims": [3.0, 2, 2, 2], "trials": 2.0}, mode="design-trace")
    assert cfg.dims == (3, 2, 2, 2) and cfg.trials == 2 and type(cfg.trials) is int


def test_load_config_file_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"mode": }')
    with pytest.raises(ConfigError, match=r"bad\.json:1:"):
        load_config_file(str(p))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.json"))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"trials": 3}))
    assert load_config_file(str(good)) == {"trials": 3}


@pytest.mark.parametrize("mode", MODES)
def test_all_modes_run_and_pass(mode):
    cfg = build_config(
        {"trials": 3, "budget": 150, "refinements": 5, "seed": 11}, mode=mode
    )
    report = run(cfg)
    assert report["pass"], report["aggregate"]
    # one record per trial
    assert len(report["trials"]) == 3 == report["aggregate"]["trials"]
    assert report["mode"] == mode
    assert report["tolerances"] == DEFAULT_TOLERANCES  # the fixed tolerances are always echoed
    # renderings never crash and mention the mode
    assert mode in render_table(report)
    csv = render_csv(report)
    assert csv.startswith("trial,objective_structured,") and csv.count("\n") == 4


@pytest.mark.parametrize("mode", MODES)
def test_reports_are_deterministic_modulo_walltime(mode):
    cfg = build_config({"trials": 2, "budget": 50, "refinements": 5, "seed": 5}, mode=mode)
    a = run(cfg)
    b = run(cfg)
    a = copy.deepcopy(a)
    b = copy.deepcopy(b)
    a["aggregate"].pop("wall_time_s")
    b["aggregate"].pop("wall_time_s")
    assert a == b


# Oracle values of one seed-0 trial at the default config, pinned at full
# precision (numpy 2.4 with OpenBLAS 0.3.31, x86-64).  Any change to the
# oracle's sampling, its refinement or the order of its arithmetic shows
# here; a different BLAS build may also move the last digits.
GOLDEN_ORACLE = {
    "design-trace": [(4.817040411704237, 0.0)],
    "design-det": [(1.4147404404640478, -6.661338147750939e-16)],
    "relay-mse": [(1.8695457776252287, -1.5543122344752192e-15)],
    "relay-capacity": [(1.4384651267312696, 0.0)],
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_ORACLE))
def test_oracle_values_match_golden(mode):
    records = run(build_config({"trials": 1, "seed": 0}, mode=mode))["trials"]
    got = [(r["objective_oracle_best"], r["gap"]) for r in records]
    assert got == GOLDEN_ORACLE[mode]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mode", ["relay-mse", "relay-capacity"])
def test_relay_oracle_closes_the_gap_at_the_default_config(mode, seed):
    # the oracle's refinement, with the C1 power form in its gradient, reaches
    # the structured optimum, so a relay certificate is tight to rounding
    for r in run(build_config({"trials": 1, "seed": seed}, mode=mode))["trials"]:
        assert abs(r["gap"]) <= 1e-9 * max(1.0, abs(r["objective_structured"]))


@pytest.mark.parametrize("mode", ["design-trace", "design-det", "relay-mse", "relay-capacity"])
def test_oracle_reaches_the_design_at_high_power(mode):
    # more streams than transmit antennas at P = 1e6: the objective's
    # curvature spans about six decades, where first-order descent stalled
    # 5e-8 to 8e-6 (relative) short of the design
    data = {"trials": 2, "budget": 300, "refinements": 20, "dims": [2, 3, 3, 2], "power": 1e6}
    for r in run(build_config(data, mode=mode))["trials"]:
        assert r["gap"] <= 1e-9 * max(1.0, abs(r["objective_structured"]))


@pytest.mark.parametrize("mode", ["relay-mse", "relay-capacity"])
def test_relay_oracle_at_an_ill_conditioned_bracket(mode):
    # one relay transmit antenna and two destination antennas at P = 1e12: the
    # 2x2 bracket B = T C1 T^H + R_n2 has a condition number near 1e12, and the
    # oracle must score T^H B^-1 T as accurately as the design does (an inverse
    # formed by the adjugate let it "beat" the design by up to 1.4e-3)
    data = {"trials": 3, "budget": 300, "refinements": 20, "dims": [1, 2, 1, 2], "power": 1e12}
    for r in run(build_config(data, mode=mode))["trials"]:
        assert abs(r["gap"]) <= 1e-12 * max(1.0, abs(r["objective_structured"]))


def test_design_trace_records_have_expected_fields():
    cfg = build_config({"trials": 2, "budget": 100, "seed": 3}, mode="design-trace")
    rec = run(cfg)["trials"][0]
    assert {"trial", "objective_structured", "objective_oracle_best", "gap", "power_used", "invariant_pass"} <= set(rec)
    assert rec["gap"] >= -DEFAULT_TOLERANCES["optimality_gap"]


def test_explicit_instance_is_used():
    h = [[[2.0, 0.0]]]
    eye1 = [[[1.0, 0.0]]]
    cfg = build_config(
        {
            "trials": 1,
            "budget": 50,
            "instance": {"H": h, "R_n": eye1, "W": eye1, "Pi": [[[0.0, 0.0]]]},
        },
        mode="design-trace",
        power=3.0,
    )
    report = run(cfg)
    assert report["config"]["explicit_instance"]
    # scalar channel with gain 4: best weighted error is 1/(1+4*3)
    assert abs(report["trials"][0]["objective_structured"] - 1.0 / 13.0) < 1e-9


def test_relay_capacity_mode_reports_gap():
    cfg = build_config({"trials": 2, "budget": 150, "seed": 8}, mode="relay-capacity")
    report = run(cfg)
    assert report["pass"]
    for rec in report["trials"]:
        assert rec["gap"] >= -DEFAULT_TOLERANCES["optimality_gap"]


def test_verify_inequalities_counts_each_pair_once():
    cfg = build_config({"trials": 50, "seed": 2}, mode="verify-inequalities")
    report = run(cfg)
    assert report["aggregate"]["trials"] == 50
    assert report["aggregate"]["failures"] == 0


def test_verify_equivalence_tracks_max_discrepancy():
    cfg = build_config({"trials": 20, "seed": 4}, mode="verify-equivalence")
    report = run(cfg)
    assert report["pass"]
    assert report["aggregate"]["max_rel_discrepancy"] <= DEFAULT_TOLERANCES["equivalence_rel"]


@pytest.mark.parametrize("mode", ["demo-schur", "oracle-compare"])
def test_retired_mode_is_a_config_error(mode):
    with pytest.raises(ConfigError, match=f"^mode: unknown mode '{mode}'") as exc:
        build_config({}, mode=mode)
    assert str(MODES) in str(exc.value) and len(MODES) == 6


def test_tolerance_override_is_echoed_and_enforced(monkeypatch):
    # the checks read the table itself, so a patched entry is enforced and echoed
    monkeypatch.setitem(DEFAULT_TOLERANCES, "equivalence_rel", 1e-300)
    report = run(build_config({"trials": 2, "seed": 6}, mode="verify-equivalence"))
    assert report["tolerances"]["equivalence_rel"] == 1e-300
    assert list(report["tolerances"]) == list(DEFAULT_TOLERANCES)  # the entry keeps its place
    assert not report["pass"]  # float roundoff exceeds an impossible tolerance


@pytest.mark.parametrize(
    "mode, design", [("relay-mse", "design_relay_sum_mse"), ("relay-capacity", "design_relay_capacity")]
)
def test_relay_power_flag_rejects_zero_forwarding(monkeypatch, mode, design):
    import matfield.experiments

    real = getattr(matfield.experiments, design)

    def silent_relay(*args, **kwargs):
        fwd, objective, result = real(*args, **kwargs)
        return np.zeros_like(fwd), objective, result

    monkeypatch.setattr(matfield.experiments, design, silent_relay)
    rec = run(build_config({"trials": 1, "budget": 20, "refinements": 1}, mode=mode))["trials"][0]
    assert rec["power_used"] == 0.0
    assert rec["invariant_pass"]["power"] is False


def _tampered_design(monkeypatch, mode, tamper):
    """Run one trial of a point design mode whose design is passed through tamper."""
    import matfield.experiments

    name = "design_trace_min" if mode == "design-trace" else "design_det_min"
    real = getattr(matfield.experiments, name)
    monkeypatch.setattr(matfield.experiments, name, lambda *a, **k: tamper(real(*a, **k), *a))
    rec = run(build_config({"trials": 1, "budget": 20, "refinements": 1}, mode=mode))["trials"][0]
    return {flag for flag, ok in rec["invariant_pass"].items() if not ok}


@pytest.mark.parametrize("mode", ["design-trace", "design-det"])
def test_invariants_reject_precoder_off_its_basis(monkeypatch, mode):
    def off_basis(design, model, op, *_):
        # swap the stream columns and report the objective the swapped precoder attains:
        # the same gains at the same power, so only the value moves off the scalar formula
        f = design.precoder[:, ::-1]
        psi = weighted_mse_of_precoder(op, model, f)
        value = float(np.trace(psi).real) if mode == "design-trace" else logdet_pd(psi)
        return dataclasses.replace(design, precoder=f, objective_value=value)

    # the oracle beats the worse value too
    assert _tampered_design(monkeypatch, mode, off_basis) == {"scalarization", "gap"}


@pytest.mark.parametrize("mode", ["design-trace", "design-det"])
def test_invariants_reject_wrong_multiplier(monkeypatch, mode):
    def shifted(design, *_):
        return dataclasses.replace(design, multiplier=design.multiplier * (1.0 + 1e-6))

    assert _tampered_design(monkeypatch, mode, shifted) == {"kkt"}


DESIGN_MODES = ("design-trace", "design-det", "relay-mse", "relay-capacity")


def relay_instance(relay):
    """The JSON instance fields of a relay model."""
    return {
        "H1": matrix_to_json(relay.channel1),
        "H2": matrix_to_json(relay.channel2),
        "R_s": matrix_to_json(relay.source_cov),
        "R_n1": matrix_to_json(relay.noise1_cov),
        "R_n2": matrix_to_json(relay.noise2_cov),
    }


def scaled_noise_instance(mode, scale):
    """Seeded 2x2x2x2 instance with its receiver noise (R_n, or R_n2 of a relay) scaled."""
    if mode.startswith("relay"):
        relay = generate_relay(7, (2, 2, 2, 2), 4.0)
        return {**relay_instance(relay), "R_n2": matrix_to_json(scale * relay.noise2_cov)}
    model = generate_system(7, (2, 2, 2, 2), 4.0)
    op = generate_weighting(8, (2, 2, 2, 2))
    return {
        "H": matrix_to_json(model.channel),
        "R_n": matrix_to_json(scale * model.noise_cov),
        "W": matrix_to_json(op.weights[0]),
        "Pi": matrix_to_json(op.offset),
    }


def assert_report_passes(report):
    # the report holds at the fixed tolerances
    assert report["tolerances"] == DEFAULT_TOLERANCES
    for rec in report["trials"]:
        assert all(rec["invariant_pass"].values()), rec
    assert report["pass"]


# (power, dims) inputs: the default dims keep their plain power ids
EXTREME_BUDGETS = [
    pytest.param(p, [2, 2, 2, 2], id=str(p)) for p in (sys.float_info.min, 1e-12, 1e-9, 1e12)
] + [
    pytest.param(1e-12, [1, 2, 2, 2], id="1e-12-dims1x2x2x2"),
    pytest.param(1e-9, [1, 2, 2, 2], id="1e-09-dims1x2x2x2"),
    # fewer transmit antennas than streams: (F^H K F + I)^{-1} loses the unit
    # eigenvalues of the unserved streams when rank(F^H K F) < n_streams, so the
    # design's objective leaves the scalar formula (3.7171015 vs 3.7169620)
    pytest.param(
        1e12,
        [1, 2, 2, 2],
        id="1000000000000.0-dims1x2x2x2",
        marks=pytest.mark.xfail(strict=True, reason="mimo.lmmse_error loses precision at high SNR"),
    ),
]


@pytest.mark.parametrize("power, dims", EXTREME_BUDGETS)
@pytest.mark.parametrize("mode", DESIGN_MODES)
def test_design_modes_hold_at_extreme_budgets(mode, power, dims):
    data = {"trials": 2, "budget": 50, "refinements": 2, "power": power, "dims": dims}
    assert_report_passes(run(build_config(data, mode=mode)))


@pytest.mark.parametrize("scale", [1e-12, 1e12])
@pytest.mark.parametrize("mode", DESIGN_MODES)
def test_design_modes_hold_at_extreme_noise(mode, scale):
    data = {"trials": 1, "budget": 50, "refinements": 2, "instance": scaled_noise_instance(mode, scale)}
    assert_report_passes(run(build_config(data, mode=mode)))


def test_relay_capacity_wide_destination_at_huge_budget():
    cfg = build_config(
        {"trials": 1, "budget": 50, "refinements": 2, "power": 1e12, "dims": [3, 3, 2, 2]},
        mode="relay-capacity",
    )
    assert_report_passes(run(cfg))


def test_relay_mse_route_at_high_snr():
    # trial 0: the chain, the information form and the scalar formula agree on
    # 4.17380296132353; with K formed from the whitened channel the weighted
    # objective at F is within 1e-9 of them (route_rel_gap 1.37e-9 when K came
    # from a solve against R_n)
    cfg = build_config(
        {"trials": 2, "budget": 50, "refinements": 2, "power": 3e6, "dims": [4, 1, 2, 3]},
        mode="relay-mse",
    )
    assert_report_passes(run(cfg))


@pytest.mark.xfail(
    strict=True, raises=NumericalError, reason="the error capacity route cancels when R_s is ill-conditioned"
)
def test_relay_capacity_with_ill_conditioned_source():
    # cond(R_s) = 1e8: log det R_s - log det Psi gives 0.7795862534873, while the
    # whitened route and the information form give 0.779586257933719
    q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    instance = relay_instance(generate_relay(0, (2, 2, 2, 2), 4.0))
    instance["R_s"] = matrix_to_json(q @ np.diag([1.0, 1e-8]) @ q.T)
    cfg = build_config({"trials": 1, "budget": 50, "refinements": 2, "instance": instance}, mode="relay-capacity")
    assert_report_passes(run(cfg))

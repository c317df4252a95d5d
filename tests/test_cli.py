import argparse
import json
from pathlib import Path

import pytest

import matfield.experiments
from matfield import __version__
from matfield.cli import build_parser, main
from matfield.experiments import MAX_ORACLE_ENTRIES, MAX_REFINED_ENTRIES, MODES


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in (capsys.readouterr().out + capsys.readouterr().err).lower()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_verify_inequalities_passes(capsys):
    assert main(["verify-inequalities", "--trials", "25", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "verify-inequalities" in out
    assert "PASS" in out


def test_design_trace_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        [
            "design-trace",
            "--trials", "2",
            "--budget", "100",
            "--seed", "3",
            "--out", str(out_path),
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["mode"] == "design-trace"
    assert report["seed"] == 3
    assert report["config"]["trials"] == 2
    assert report["pass"] is True
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per trial


def test_flag_overrides_beat_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"trials": 50, "seed": 1})
    assert main(["verify-equivalence", "--config", cfg, "--trials", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "trials=5" in out and "seed=2" in out


def test_invariant_failure_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tolerances": {"equivalence_rel": 1e-300}})
    assert main(["verify-equivalence", "--config", cfg, "--trials", "3", "--seed", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["design-trace", "--config", str(tmp_path / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_exits_two(tmp_path, capsys, flag):
    target = tmp_path / "missing-dir" / "report"
    assert main(["verify-inequalities", "--trials", "2", flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not target.exists()


def test_malformed_json_exits_two(tmp_path, capsys):
    # the second text is an integer literal past Python's 4,300-digit limit
    for text in ("{", '{"power": 1' + "0" * 5000 + "}"):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["design-trace", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bad.json" in err


def test_non_utf8_config_exits_two(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"power": 4.0, "seed": "\xe9"}'.encode("latin-1"))
    assert main(["design-trace", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and "latin1.json" in err


def test_unknown_field_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"wat": 1})
    assert main(["design-det", "--config", cfg]) == 2
    assert "wat" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("dims", [2.7, 2, 2, 2]),
        ("dims", [True, 2, 2, 2]),
        ("trials", 2.9),
        ("budget", True),
        ("refinements", 1.5),
        ("seed", 1.5),
        ("power", True),
        # json.dumps writes Infinity, which Python's json reads back
        ("power", float("inf")),
        # an integer literal too large for a float
        pytest.param("power", 10**400, id="power-overflowing"),
        pytest.param("power", -(10**400), id="power-negative-overflowing"),
        # below the smallest normal double, which the power flag cannot check
        pytest.param("power", 1e-320, id="power-subnormal"),
        # the budget cap, 10**6 oracle samples
        pytest.param("budget", 10**400, id="budget-huge"),
        pytest.param("budget", 10**6 + 1, id="budget-over-cap"),
        # the trials cap, 10**6 trials
        pytest.param("trials", 10**400, id="trials-huge"),
        pytest.param("trials", 10**6 + 1, id="trials-over-cap"),
    ],
)
def test_non_integral_or_boolean_number_exits_two(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {"trials": 1, "budget": 10, "refinements": 1, field: value})
    assert main(["design-trace", "--config", cfg]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_trials_flag_over_the_cap_exits_two(capsys):
    assert main(["design-trace", "--trials", str(10**6 + 1)]) == 2
    assert "config error: trials:" in capsys.readouterr().err


def _no_sampling(*args, **kwargs):
    raise AssertionError("the oracle drew its sample stack")


@pytest.mark.parametrize("mode", ["design-trace", "design-det", "relay-mse", "relay-capacity"])
def test_oversized_oracle_stack_exits_two_before_sampling(tmp_path, capsys, monkeypatch, mode):
    # 10**6 samples of 64x64 matrices would ask bulk_u64 for 61 GiB
    monkeypatch.setattr(matfield.experiments, "random_search_oracle", _no_sampling)
    cfg = write_config(tmp_path, {"dims": [64, 64, 64, 64], "budget": 1000000, "trials": 1})
    assert main([mode, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: budget: 1000000 oracle samples of 64x64 matrices")
    assert str(MAX_ORACLE_ENTRIES) in err and "Traceback" not in err


def test_oversized_oracle_stack_of_an_instance_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(matfield.experiments, "random_search_oracle", _no_sampling)
    eye = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    instance = {"H": eye, "R_n": eye, "W": eye, "Pi": eye}
    cfg = write_config(tmp_path, {"budget": 625001, "trials": 1, "instance": instance})
    assert main(["design-det", "--config", cfg]) == 2
    assert "625001 oracle samples of 4x4 matrices are 10000016 entries" in capsys.readouterr().err


def test_oracle_stack_at_the_cap_is_sampled(tmp_path, monkeypatch):
    calls = []

    def stub_oracle(problem, budget, seed, refinements):
        calls.append((problem.shape, budget))
        return 1e300

    monkeypatch.setattr(matfield.experiments, "random_search_oracle", stub_oracle)
    cfg = write_config(tmp_path, {"dims": [4, 4, 4, 4], "budget": MAX_ORACLE_ENTRIES // 16})
    assert main(["design-trace", "--config", cfg, "--trials", "1"]) == 0
    assert calls == [((4, 4), 625000)]


def test_oversized_refinement_exits_two_before_sampling(tmp_path, capsys, monkeypatch):
    # 10**6 refinement starts of 2x2 matrices would ask the L-BFGS memory for
    # about 1 GiB of pairs alone; every count is within its own cap
    monkeypatch.setattr(matfield.experiments, "random_search_oracle", _no_sampling)
    cfg = write_config(tmp_path, {"budget": 1000000, "refinements": 1000000, "trials": 1})
    assert main(["design-trace", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: refinements: 1000000 refinement starts of 2x2 matrices")
    assert str(MAX_REFINED_ENTRIES) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "budget, refinements", [(10**6, MAX_REFINED_ENTRIES // 4), (MAX_REFINED_ENTRIES // 4, 10**6)]
)
def test_refinement_at_the_cap_is_sampled(tmp_path, monkeypatch, budget, refinements):
    # the starts are the best min(refinements, budget) samples
    calls = []

    def stub_oracle(problem, budget, seed, refinements):
        calls.append((problem.shape, budget, refinements))
        return 1e300

    monkeypatch.setattr(matfield.experiments, "random_search_oracle", stub_oracle)
    cfg = write_config(tmp_path, {"budget": budget, "refinements": refinements, "trials": 1})
    assert main(["design-trace", "--config", cfg]) == 0
    assert calls == [((2, 2), budget, refinements)]


def test_numerical_error_exits_three(tmp_path, capsys):
    one = [[[1.0, 0.0]]]
    zero = [[[0.0, 0.0]]]
    cfg = write_config(
        tmp_path,
        {"trials": 1, "budget": 20, "instance": {"H": one, "R_n": one, "W": one, "Pi": zero}},
    )
    assert main(["design-det", "--config", cfg]) == 3
    assert capsys.readouterr().err.strip()


def test_jitter_flag_rescues_singular_offset(tmp_path):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    # singular offset with nonzero trace: the scaled jitter can lift it
    pi = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    cfg = write_config(
        tmp_path,
        {"trials": 1, "budget": 20, "instance": {"H": eye, "R_n": eye, "W": eye, "Pi": pi}},
    )
    assert main(["design-det", "--config", cfg]) == 3
    assert main(["design-det", "--config", cfg, "--jitter-pi"]) == 0


@pytest.mark.parametrize("mode", ["demo-schur", "oracle-compare"])
def test_retired_mode_exits_two(capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main([mode, "--trials", "1"])
    assert exc.value.code == 2
    assert f"invalid choice: '{mode}'" in capsys.readouterr().err


def test_cli_and_readme_list_exactly_the_modes():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(sub.choices) == MODES
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| mode | what it checks |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    assert tuple(row.split("`")[1] for row in table.splitlines()) == MODES


ONE = [[[1.0, 0.0]]]
EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
NEG = [[[-1.0, 0.0]]]
ROW3 = [[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]]
POINT = {"H": ONE, "R_n": ONE, "W": ONE, "Pi": ONE}
RELAY = {"H1": ONE, "H2": ONE, "R_s": ONE, "R_n1": ONE, "R_n2": ONE}


@pytest.mark.parametrize(
    "mode, instance, field",
    [
        ("design-trace", {**POINT, "R_n": NEG}, "R_n"),
        ("design-trace", {**POINT, "R_n": EYE2}, "R_n"),
        ("design-det", {**POINT, "R_n": [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "R_n: matrix is not Hermitian"),
        ("design-trace", {**POINT, "Pi": NEG}, "Pi"),
        ("design-det", {**POINT, "Pi": EYE2}, "Pi"),
        ("design-trace", {**POINT, "n_streams": 0}, "instance.n_streams"),
        ("design-det", {**POINT, "n_streams": "two"}, "instance.n_streams"),
        ("design-trace", {**POINT, "W": EYE2, "Pi": EYE2}, "instance.W"),
        ("design-trace", {**POINT, "H": [[[float("nan"), 0.0]]]}, "instance.H"),
        ("design-trace", {**POINT, "H": [[[10**400, 0.0]]]}, "instance.H"),
        ("relay-mse", {**RELAY, "R_s": [[[1.0, -(10**400)]]]}, "instance.R_s"),
        ("relay-mse", {**RELAY, "R_n2": NEG}, "R_n2"),
        ("relay-capacity", {**RELAY, "R_s": EYE2}, "R_s"),
        ("verify-equivalence", {**RELAY, "R_n1": NEG}, "R_n1"),
        ("verify-equivalence", POINT, "instance.H1"),
        ("verify-inequalities", RELAY, "instance"),
        ("design-trace", {"H": ROW3, "R_n": ONE}, "dims"),
        ("design-det", {**POINT, "W": [ONE, ONE]}, "instance.W"),
        ("design-trace", {**POINT, "n_stream": 1}, "instance.n_stream"),
        ("design-trace", {**POINT, "H1": ONE}, "instance.H1"),
        ("relay-mse", {**RELAY, "H": ONE}, "instance.H:"),
        ("verify-equivalence", {**RELAY, "n_streams": 1}, "instance.n_streams"),
        ("design-trace", {"H": EYE2, "R_n": EYE2, "Pi": EYE2}, "instance.W: missing"),
        ("design-det", {"H": EYE2, "R_n": EYE2, "Pi": EYE2}, "instance.W: missing"),
        ("design-trace", {"H": EYE2, "R_n": EYE2, "W": EYE2}, "instance.Pi: missing"),
    ],
    ids=[
        "non-pd-noise",
        "noise-shape",
        "non-hermitian-noise",
        "non-psd-offset",
        "offset-shape",
        "zero-streams",
        "string-streams",
        "weight-rows",
        "nan-channel",
        "overflowing-channel",
        "overflowing-relay-source",
        "relay-non-pd-destination-noise",
        "relay-source-shape",
        "equivalence-uses-instance",
        "equivalence-needs-relay-fields",
        "inequalities-take-no-instance",
        "streams-differ-from-dims",
        "several-weight-factors",
        "misspelt-point-field",
        "stray-relay-field-in-point-instance",
        "stray-point-field-in-relay-instance",
        "streams-in-relay-instance",
        "lone-offset-trace",
        "lone-offset-det",
        "lone-weight",
    ],
)
def test_bad_instance_exits_two(tmp_path, capsys, mode, instance, field):
    cfg = write_config(tmp_path, {"trials": 1, "budget": 20, "instance": instance})
    assert main([mode, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


def test_integral_float_streams_count(tmp_path):
    # n_streams follows the integer rule of dims: 2.0 is 2
    instance = {"H": EYE2, "R_n": EYE2, "n_streams": 2.0}
    cfg = write_config(tmp_path, {"trials": 1, "budget": 20, "instance": instance})
    assert main(["design-trace", "--config", cfg]) == 0


def test_verify_equivalence_runs_on_the_given_instance(tmp_path, monkeypatch):
    def no_generation(*args, **kwargs):
        raise AssertionError("the instance was ignored")

    monkeypatch.setattr(matfield.experiments, "generate_relay", no_generation)
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, {"trials": 2, "instance": RELAY})
    assert main(["verify-equivalence", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["explicit_instance"] is True
    assert report["pass"] and len(report["trials"]) == 2

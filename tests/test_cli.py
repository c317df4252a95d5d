import json

import pytest

from matfield import __version__
from matfield.cli import main


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
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert main(["design-trace", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err


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
    ],
)
def test_non_integral_or_boolean_number_exits_two(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {"trials": 1, "budget": 10, "refinements": 1, field: value})
    assert main(["design-trace", "--config", cfg]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


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


def test_oracle_compare_smoke(capsys):
    assert main(["oracle-compare", "--trials", "1", "--budget", "100", "--seed", "5"]) == 0
    assert "oracle-compare" in capsys.readouterr().out


def test_demo_schur_smoke(capsys):
    assert main(["demo-schur", "--trials", "1", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "demo-schur" in out


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
        ("design-det", {**POINT, "R_n": [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "instance.R_n"),
        ("design-trace", {**POINT, "Pi": NEG}, "Pi"),
        ("design-det", {**POINT, "Pi": EYE2}, "Pi"),
        ("design-trace", {**POINT, "n_streams": 0}, "instance.n_streams"),
        ("design-det", {**POINT, "n_streams": "two"}, "instance.n_streams"),
        ("design-trace", {**POINT, "W": EYE2, "Pi": EYE2}, "instance.W"),
        ("design-trace", {**POINT, "H": [[[float("nan"), 0.0]]]}, "instance.H"),
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


def test_demo_schur_ignores_the_weighting(tmp_path):
    for instance in ({"H": ROW3, "R_n": ONE}, {**POINT, "W": [ONE, ONE]}):
        cfg = write_config(tmp_path, {"trials": 1, "instance": instance})
        assert main(["demo-schur", "--config", cfg]) == 0


def test_verify_equivalence_runs_on_the_given_instance(tmp_path, monkeypatch):
    import matfield.experiments

    def no_generation(*args, **kwargs):
        raise AssertionError("the instance was ignored")

    monkeypatch.setattr(matfield.experiments, "generate_relay", no_generation)
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, {"trials": 2, "instance": RELAY})
    assert main(["verify-equivalence", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["explicit_instance"] is True
    assert report["pass"] and len(report["trials"]) == 2

import json
import math
import os
import subprocess

import numpy as np
import pytest

import twisim
from twisim import harness
from twisim.cli import main
from twisim.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
    model_from_dict,
    serialize_config,
)
from twisim.core import Empirical, ShiftedExponential, TwoPoint, UniformRange
from twisim.harness import (
    exponential_chain,
    reproduce_two_rate_curve,
    rows_to_csv,
    run_experiment,
    two_rate_chain,
)

CHAIN_CFG = {
    "kind": "chain_sim",
    "seed": 5,
    "trials": 2000,
    "twi": {"window": 0.5, "offset": "random"},
    "scenario": {
        "action_times": [1.0],
        "inputs": [
            {"type": "link", "model": {"kind": "shifted_exponential", "rate": 2.0}},
            {"type": "link", "model": {"kind": "shifted_exponential", "rate": 2.0}},
        ],
    },
}


def test_model_round_trip():
    for obj in [
        {"kind": "constant", "value": 0.003},
        {"kind": "uniform", "low": 0.0, "high": 1.0},
        {"kind": "shifted_exponential", "shift": 0.1, "rate": 2.0},
        {"kind": "two_point", "value_a": 2.0, "value_b": 1.0, "p_a": 0.5},
        {"kind": "empirical", "values": [0.1, 0.2]},
    ]:
        model = model_from_dict(obj)
        assert model_from_dict(json.loads(json.dumps(obj))) == model
        assert model.to_dict() == obj


def test_model_errors_name_the_field():
    with pytest.raises(ConfigError, match="model.kind"):
        model_from_dict({"kind": "gaussian"})
    with pytest.raises(ConfigError, match="model.value"):
        model_from_dict({"kind": "constant"})
    with pytest.raises(ConfigError, match="model"):
        model_from_dict({"kind": "uniform", "low": 2.0, "high": 1.0})


def test_config_round_trip():
    cfg = config_from_dict(CHAIN_CFG)
    assert cfg.scenario.n == 2
    assert cfg.twi.random_offset
    again = config_from_dict(json.loads(serialize_config(cfg)))
    assert again == cfg


def test_serialized_config_is_compact_sorted_json():
    text = serialize_config(config_from_dict(CHAIN_CFG))
    assert "\n" not in text and ", " not in text and ": " not in text
    obj = json.loads(text)
    assert list(obj) == sorted(obj)


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict({"kind": "nope"})
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict({"kind": "reproduce", "trials": 0})
    with pytest.raises(ConfigError, match="scenario.inputs"):
        config_from_dict({"kind": "chain_sim", "scenario": {"action_times": [], "inputs": []}})
    with pytest.raises(ConfigError, match="w_sweep"):
        config_from_dict({**CHAIN_CFG, "w_sweep": [0.2, 0.1]})
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({"kind": "reproduce", "schema_version": 99})
    for name, bad in [
        ("trials", "abc"), ("trials", 1.7), ("trials", True), ("threads", "x"), ("seed", -1),
    ]:
        with pytest.raises(ConfigError, match=f"config.{name}"):
            config_from_dict({"kind": "reproduce", name: bad})
    sensor = {"type": "sensor", "t_s": 0.01, "d_s": "8"}
    with pytest.raises(ConfigError, match=r"inputs\[0\]\.d_s"):
        config_from_dict({"kind": "fanout_sim", "scenario": {"inputs": [sensor]}})


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "reproduce",\n  "trials": }\n')
    with pytest.raises(ConfigError, match=r":2:\d+"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


def test_rows_to_csv_formatting():
    text = rows_to_csv(
        ("a", "b", "c", "d"),
        [{"a": 0.1, "b": True, "c": None, "d": math.nan}, {"a": 2, "b": False, "c": "x"}],
    )
    assert text == "a,b,c,d\n0.1,true,,\n2,false,x,\n"
    assert "\r" not in text


def test_reference_scenarios():
    s = two_rate_chain(4)
    assert s.n == 4 and s.action_times == (0.5,) * 3
    assert s.inputs[0].model == TwoPoint(2.0, 1.0, 0.5)
    s = exponential_chain(3, tau=2.0)
    assert s.inputs[0].model == ShiftedExponential(0.0, 1.0)


def test_run_experiment_chain():
    header, rows = run_experiment(config_from_dict(CHAIN_CFG))
    assert len(rows) == 1
    assert rows[0]["kind"] == "chain_no_violation"
    assert 0.0 <= rows[0]["estimate"] <= 1.0


def test_run_experiment_analytic():
    cfg = config_from_dict(
        {
            "kind": "analytic",
            "params": {"op": "sim_violation_n", "arrivals": [1.0, 1.5], "w": 1.0},
        }
    )
    header, rows = run_experiment(cfg)
    assert rows == [{"scenario_id": "run", "op": "sim_violation_n", "name": "p_violation", "value": 0.5}]
    with pytest.raises(ConfigError, match="params.op"):
        run_experiment(config_from_dict({"kind": "analytic", "params": {"op": "nope"}}))
    with pytest.raises(ConfigError, match="params.w"):
        run_experiment(
            config_from_dict(
                {"kind": "analytic", "params": {"op": "sim_violation_n", "arrivals": [1.0]}}
            )
        )


def test_empirical_csv_has_python_floats_and_the_array_is_read_only():
    model = {"kind": "empirical", "values": [0.002, 0.004, 0.011]}
    for kind, params in [
        ("analytic", {"op": "expected_cv_two_input", "t_s": 0.01, "w": 0.005, "model": model}),
        ("plan", {"model": model, "w": 0.005}),
    ]:
        header, rows = run_experiment(config_from_dict({"kind": kind, "params": params}))
        assert "np." not in rows_to_csv(header, rows)
    array = model_from_dict(model).array
    assert array.dtype == np.float64
    with pytest.raises(ValueError):
        array[0] = 1.0
    assert Empirical((0.002, 0.004)) == Empirical((0.002, 0.004))


def test_run_experiment_bounds_check_columns():
    cfg = config_from_dict(
        {
            "kind": "bounds_check",
            "trials": 2000,
            "twi": {"window": 0.0},
            "scenario": CHAIN_CFG["scenario"],
        }
    )
    _, rows = run_experiment(cfg)
    assert rows[0]["product_bound"] is not None
    assert rows[0]["holder_bound"] is None
    cfg = config_from_dict(
        {
            "kind": "bounds_check",
            "trials": 2000,
            "twi": {"window": 0.5, "offset": "random"},
            "scenario": CHAIN_CFG["scenario"],
        }
    )
    _, rows = run_experiment(cfg)
    assert rows[0]["product_bound"] is None
    assert rows[0]["holder_bound"] is not None
    assert rows[0]["max_pairwise"] is not None


def test_fanout_reports_analytic_reference():
    cfg = config_from_dict(
        {
            "kind": "fanout_sim",
            "trials": 50_000,
            "twi": {"window": 4.0, "offset": "random"},
            "scenario": {
                "inputs": [
                    {"type": "link", "model": {"kind": "constant", "value": 1.0}},
                    {"type": "link", "model": {"kind": "constant", "value": 3.0}},
                ]
            },
        }
    )
    _, rows = run_experiment(cfg)
    assert rows[0]["analytic_value"] == pytest.approx(0.5)
    assert rows[0]["sigma_distance"] <= 4.0


def test_reproduce_rows_match_closed_form():
    rows = reproduce_two_rate_curve(trials=50_000, seed=1, n_values=[2, 5])
    for row in rows:
        assert row["exact"] == (row["N"] + 1) / 2 ** row["N"]
        assert abs(row["mc_estimate"] - row["exact"]) <= 4.0 * row["std_err"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_simulate_writes_csv_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    out = tmp_path / "out.csv"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    body = out.read_bytes()
    assert body.startswith(b"scenario_id,kind,n,w,")
    assert b"\r" not in body
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["trials"] == 2000
    assert len(manifest["config_sha256"]) == 64
    assert manifest["package_version"] == twisim.__version__


def test_manifest_describes_the_package_tree_with_one_git_call(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs.get("cwd")))
        return subprocess.CompletedProcess(cmd, 0, stdout="v0-1-gabc\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    harness._git_describe.cache_clear()
    try:
        cfg = write_cfg(tmp_path, CHAIN_CFG)
        for name in ("a.csv", "b.csv"):
            assert main(["simulate", cfg, "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["git_describe"] == "v0-1-gabc"
    finally:
        harness._git_describe.cache_clear()
    assert len(calls) == 1
    cmd, cwd = calls[0]
    assert cmd[0] == "git"
    assert os.path.samefile(cwd, os.path.dirname(twisim.__file__))


def test_cli_threads_do_not_change_csv_body(tmp_path):
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "trials": 100_000})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["simulate", cfg, "--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_overrides_change_results(tmp_path):
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["simulate", cfg, "--out", str(b), "--seed", "2"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["simulate", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, CHAIN_CFG)
    # wrong subcommand for the config kind
    assert main(["plan", cfg]) == 2
    # sweep needs a w_sweep list
    assert main(["sweep", cfg]) == 2
    # unwritable output path
    assert main(["simulate", cfg, "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 4
    assert main(["simulate", cfg, "--trials", "0"]) == 2
    assert main(["simulate", cfg, "--seed", "-1"]) == 2
    for name, bad in [("trials", "abc"), ("trials", 1.7), ("trials", True), ("threads", "x"), ("seed", -1)]:
        assert main(["simulate", write_cfg(tmp_path, {**CHAIN_CFG, name: bad})]) == 2


@pytest.mark.parametrize("bad", [True, "x", None])
def test_empirical_values_must_be_numbers(tmp_path, capsys, bad):
    link = {"type": "link", "model": {"kind": "empirical", "values": [0.1, bad, 0.2]}}
    cfg = {"kind": "fanout_sim", "trials": 100, "scenario": {"inputs": [link]}}
    assert main(["simulate", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "inputs[0].model.values" in err
    assert f"expected a number, got {bad!r}" in err


def test_cli_reproduce_needs_figure(tmp_path, capsys):
    assert main(["reproduce"]) == 2
    out = tmp_path / "f7.csv"
    assert main(["reproduce", "--figure", "7", "--trials", "2000", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "N,exact,bound,mc_estimate,std_err"


def test_cli_sweep(tmp_path):
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "w_sweep": [0.0, 0.5, 1.0], "trials": 20_000})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + one row per window

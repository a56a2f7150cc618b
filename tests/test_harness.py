import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import MISSING, asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twisim
from twisim import analytics, config, harness, mc, planner
from twisim.cli import main
from twisim.config import (
    ConfigError,
    config_from_dict,
    load_config,
    model_from_dict,
)
from twisim.core import Empirical, ShiftedExponential, TwoPoint, UniformRange
from twisim.harness import (
    ANALYTIC_OPS,
    PLAN_SECTIONS,
    exponential_chain,
    reproduce_two_rate_curve,
    rows_to_csv,
    run_experiment,
    two_rate_chain,
)
from twisim.twi import TwiSpec, event_throughput_loss

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


MODELS = [
    {"kind": "constant", "value": 0.003},
    {"kind": "uniform", "low": 0.0, "high": 1.0},
    {"kind": "shifted_exponential", "shift": 0.1, "rate": 2.0},
    {"kind": "two_point", "value_a": 2.0, "value_b": 1.0, "p_a": 0.5},
    {"kind": "empirical", "values": [0.1, 0.2]},
]


def test_model_round_trip():
    for obj in MODELS:
        model = model_from_dict(obj)
        assert model_from_dict(json.loads(json.dumps(obj))) == model


def test_model_errors_name_the_field():
    with pytest.raises(ConfigError, match="model.kind"):
        model_from_dict({"kind": "gaussian"})
    with pytest.raises(ConfigError, match="model.value"):
        model_from_dict({"kind": "constant"})
    with pytest.raises(ConfigError, match="model"):
        model_from_dict({"kind": "uniform", "low": 2.0, "high": 1.0})


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
    for scenario in (5, "inputs", []):
        with pytest.raises(ConfigError, match="config.scenario: expected an object"):
            config_from_dict({"kind": "fanout_sim", "scenario": scenario})


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "reproduce",\n  "trials": }\n')
    with pytest.raises(ConfigError, match=r":2:\d+"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    path.write_bytes(b'{"kind": "reproduce", "scenario_id": "\xff"}')  # not UTF-8
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(path))
    # Python refuses integer literals of more than 4300 digits
    path.write_text('{"kind": "reproduce", "seed": ' + "9" * 5000 + "}")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_load_config_frees_the_bytes_and_text_before_building_models(tmp_path):
    # a 1 MB trace: while it is read, the file's bytes and decoded text
    # (1x each) would sit beside its parsed floats and the model's tuple
    trace = np.random.default_rng(4).gamma(2.0, 0.02, 100_000).round(6).tolist()
    path = tmp_path / "trace.json"
    link = {"type": "link", "model": {"kind": "empirical", "values": trace}}
    path.write_text(json.dumps({"kind": "fanout_sim", "scenario": {"inputs": [link]}}))
    size = path.stat().st_size
    assert 0.9e6 < size < 1.2e6
    tracemalloc.start()
    try:
        cfg = load_config(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.scenario.inputs[0].model.values == tuple(trace)
    assert peak - kept <= 2.2 * size


@pytest.mark.parametrize(
    "text",
    [
        "[" * 200_000 + "]" * 200_000,
        '{"kind": "analytic", "params": {"op": "expected_cv_two_input", "model": '
        + '{"a": ' * 200_000 + "1" + "}" * 200_000 + "}}",
    ],
    ids=["array", "params"],
)
def test_a_config_nested_too_deeply_exits_2(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["analytic", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {path}: invalid JSON: nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"kind": "analytic", "params": {"op": "event_throughput_loss", "w": 1.0, "w": 3.0, "t_0": 1.0}}', "w"),
        ('{"kind": "analytic", "kind": "plan", "params": {"slot": 0.5}}', "kind"),
    ],
    ids=["params-w", "kind"],
)
def test_a_key_given_twice_in_one_object_exits_2(tmp_path, capsys, text, key):
    # json.loads would keep the last value and run the plan, or W = 3
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert main(["analytic", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {path}: invalid JSON: duplicate key {key!r}\n"
    assert captured.out == ""


def test_a_config_that_starts_with_a_utf8_bom_exits_2(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"kind": "reproduce", "params": {"figure": 7}}).encode())
    assert main(["reproduce", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {path}:1:1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
    assert captured.out == ""


def test_sweep_and_simulate_agree_on_a_window_too_small_for_in_order_arrivals(tmp_path, capsys):
    # constant arrivals 1.0 and 1.5: no pair is inverted, but 1.5 / 1e-310 overflows
    links = [{"type": "link", "model": {"kind": "constant", "value": 1.0}}] * 2
    scenario = {"action_times": [0.5], "inputs": links}
    for command, field in (("simulate", {"twi": {"window": 1e-310}}), ("sweep", {"w_sweep": [1e-310]})):
        cfg = {"kind": "chain_sim", "trials": 100, "scenario": scenario, **field}
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == "runtime error: window 1e-310 is too small relative to the arrival times\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command, params, message",
    [
        ("analytic", {"op": "event_throughput_loss", "w": 1e300, "t_0": 1e-300}, "relative to t_0=1e-300"),
        ("plan", {"slot": 1e-300, "w": 1e300}, "relative to slot 1e-300"),
    ],
    ids=["event_throughput_loss", "plan-slot"],
)
def test_a_ratio_that_overflows_exits_3(tmp_path, capsys, command, params, message):
    out = tmp_path / "x.csv"
    assert main([command, write_cfg(tmp_path, {"kind": command, "params": params}), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"runtime error: window 1e+300 is too large {message}\n"
    assert not out.exists()


def test_a_nan_t_max_is_named_not_blamed_on_t_ab(tmp_path, capsys):
    params = {"op": "conditions_digital_cause", "t_s": 0.01, "t_ab": 0.005, "t_max": math.nan}  # written as NaN
    assert main(["analytic", write_cfg(tmp_path, {"kind": "analytic", "params": params})]) == 3
    assert capsys.readouterr().err == "runtime error: requires t_min <= t_max\n"


def test_rows_to_csv_formatting():
    text = rows_to_csv([{"a": 0.1, "b": True, "c": None, "d": math.nan}, {"a": 2, "b": False, "c": "x", "d": None}])
    assert text == "a,b,c,d\n0.1,true,,\n2,false,x,\n"
    assert "\r" not in text


def test_reference_scenarios():
    s = two_rate_chain(4)
    assert s.n == 4 and s.action_times == (0.5,) * 3
    assert s.inputs[0].model == TwoPoint(2.0, 1.0, 0.5)
    s = exponential_chain(3, tau=2.0)
    assert s.inputs[0].model == ShiftedExponential(0.0, 1.0)


def test_run_experiment_chain():
    rows = run_experiment(config_from_dict(CHAIN_CFG))
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
    rows = run_experiment(cfg)
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
        rows = run_experiment(config_from_dict({"kind": kind, "params": params}))
        assert "np." not in rows_to_csv(rows)
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
    rows = run_experiment(cfg)
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
    rows = run_experiment(cfg)
    assert rows[0]["product_bound"] is None
    assert rows[0]["holder_bound"] is not None
    assert rows[0]["max_pairwise"] is not None


# Constant arrivals 1, 0, 3, 2 and zero action times: the first and last
# pairs are each inverted by 1.  Under one shared window of W = 2 with a
# random offset, each is stamped in order with probability 1/2, and on the
# same offsets, since their gaps coincide mod W.  So the joint value, 1/2,
# exceeds the product of the pairwise ones, 1/4: the product bound does not
# hold under a shared window, and `bounds` does not report it there.
SHARED_WINDOW_CHAIN = {
    "kind": "bounds_check",
    "trials": 20_000,
    "twi": {"window": 2.0, "offset": "random"},
    "scenario": {
        "action_times": [0.0, 0.0, 0.0],
        "inputs": [{"type": "link", "model": {"kind": "constant", "value": v}} for v in (1.0, 0.0, 3.0, 2.0)],
    },
}


def test_bounds_withholds_the_product_bound_that_a_shared_window_breaks(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", write_cfg(tmp_path, SHARED_WINDOW_CHAIN), "--out", str(out)]) == 0
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["product_bound"] == ""
    pairwise = [float(p) for p in row["pairwise"].split(";")]
    assert pairwise[1] == 1.0
    assert float(row["joint_estimate"]) == pytest.approx(0.5, abs=0.02)
    assert math.prod(pairwise) == pytest.approx(0.25, abs=0.02)


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
    rows = run_experiment(cfg)
    assert rows[0]["analytic_value"] == pytest.approx(0.5)
    assert rows[0]["sigma_distance"] <= 4.0


def test_sigma_distance_is_finite_at_an_estimate_of_zero():
    # arrivals 1.0 and 1.01 at W = 4: violated with probability 0.0025, so
    # 100 trials see no violation, and the Wilson interval holds 0.0025
    links = [{"type": "link", "model": {"kind": "constant", "value": v}} for v in (1.0, 1.01)]
    cfg = config_from_dict(
        {
            "kind": "fanout_sim",
            "trials": 100,
            "twi": {"window": 4.0, "offset": "random"},
            "scenario": {"inputs": links},
        }
    )
    (row,) = run_experiment(cfg)
    assert row["estimate"] == 0.0 and row["ci_lo"] <= row["analytic_value"] <= row["ci_hi"]
    assert row["sigma_distance"] == pytest.approx(0.0025 / math.sqrt(0.0025 * 0.9975 / 100))
    assert row["sigma_distance"] == pytest.approx(0.5006, abs=1e-4)


@given(
    trials=st.integers(min_value=1, max_value=10**6),
    frac=st.floats(min_value=0.0, max_value=1.0),
    analytic=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0)),
)
@settings(max_examples=300, deadline=None)
def test_sigma_distance_is_the_statistic_the_wilson_interval_inverts(trials, frac, analytic):
    successes = round(frac * trials)
    e = mc._make_estimate(successes, trials, 1)
    z = harness._sigma_distance(e.p_hat, analytic, trials)
    if analytic in (0.0, 1.0):
        assert z == (0.0 if e.p_hat == analytic else math.inf)
    assume(abs(z - 1.96) > 1e-6)  # clear of the interval's ends, where rounding decides
    assert (z <= 1.96) == (e.ci95[0] <= analytic <= e.ci95[1])


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


def test_a_manifest_records_python_numpy_and_the_usable_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    out = tmp_path / "a.csv"
    assert main(["analytic", write_cfg(tmp_path, ANALYTIC_CFG), "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert (manifest["python"], manifest["numpy"]) == (platform.python_version(), np.__version__)
    assert manifest["cpus"] == 3
    assert "chunks" not in manifest and "workers" not in manifest  # an analytic run draws nothing


# Runs each argv in turn in one fresh interpreter, reads the numpy and scipy
# keys of each run's manifest, then imports both to print their versions.
MANIFEST_VERSIONS = (
    "import json, sys, twisim.cli\n"
    "seen = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert twisim.cli.main(argv) == 0\n"
    "    manifest = json.loads(open(argv[-1] + '.manifest.json').read())\n"
    "    seen.append({key: manifest[key] for key in ('numpy', 'scipy') if key in manifest})\n"
    "import numpy, scipy\n"
    "print(json.dumps([seen, numpy.__version__, scipy.__version__]))\n"
)


def test_a_manifest_names_numpy_and_scipy_where_the_process_loaded_them(tmp_path):
    # read at each write: a run that loads neither package does not record
    # them, and a later run in the same process that loads one does
    receiver = {"op": "expected_cv_two_input", "t_s": 0.05, "tau_s": 0.01, "tau_a": 0.02, "w": 0.1}
    configs = {
        "constant": ("analytic", {"kind": "analytic", "params": {**receiver, "model": MODELS[0]}}),
        "exponential": ("analytic", {"kind": "analytic", "params": {**receiver, "model": MODELS[2]}}),
        "chain": ("simulate", CHAIN_CFG),
    }
    runs = {
        name: [command, write_cfg(tmp_path, obj, f"{name}.json"), "--out", str(tmp_path / f"{name}.csv")]
        for name, (command, obj) in configs.items()
    }
    env = {**os.environ, "PYTHONPATH": str(Path(twisim.__file__).resolve().parents[1])}

    def manifests(*names):
        argv = [sys.executable, "-c", MANIFEST_VERSIONS, json.dumps([runs[name] for name in names])]
        return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout)

    [seen], numpy_version, scipy_version = manifests("constant")
    assert seen == {}
    assert manifests("exponential")[0] == [{"numpy": numpy_version, "scipy": scipy_version}]
    assert manifests("constant", "chain")[0] == [{}, {"numpy": numpy_version}]


@pytest.mark.parametrize(
    "trials, threads, cpus, chunks, workers",
    [(70_000, 4, 3, 3, 3), (70_000, 2, 3, 3, 2), (2000, 4, 3, 1, 1), (200_000, 4, 2, 7, 2)],
)
def test_a_monte_carlo_manifest_counts_the_chunks_and_the_workers_that_ran(
    tmp_path, monkeypatch, trials, threads, cpus, chunks, workers
):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    helpers = []

    class Recording(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(mc, "Thread", Recording)
    out = tmp_path / "a.csv"
    argv = ["simulate", write_cfg(tmp_path, CHAIN_CFG), "--trials", str(trials), "--threads", str(threads)]
    assert main([*argv, "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert (manifest["cpus"], manifest["chunks"], manifest["workers"]) == (cpus, chunks, workers)
    assert len(helpers) + 1 == workers  # one estimator call: the caller and its helpers


def _receiver_chain_cfg(cause, tau_a, w, trials):
    """The chain_sim config of the two-input receiver: the cause's input
    first, the action time between them; a negative tau_a delays the link."""
    sensor = {"type": "sensor", "t_s": 0.010, "tau_s": 0.001}
    link = {"type": "link", "model": {"kind": "uniform", "low": 0.002, "high": 0.030}, "delay": max(0.0, -tau_a)}
    return {
        "kind": "chain_sim",
        "seed": 4,
        "trials": trials,
        "twi": {"window": w, "offset": "random" if w > 0 else 0.0},
        "scenario": {
            "action_times": [max(0.0, tau_a)],
            "inputs": [sensor, link] if cause == "physical" else [link, sensor],
        },
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("w", [0.0, 0.006])
@pytest.mark.parametrize("cause, tau_a", [("physical", 0.002), ("digital", 0.002), ("digital", -0.004)])
def test_a_chain_sim_of_the_receiver_estimates_one_minus_its_violation_probability(tmp_path, cause, tau_a, w, threads):
    trials = 70_000  # three chunks
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, _receiver_chain_cfg(cause, tau_a, w, trials))
    assert main(["simulate", cfg, "--threads", str(threads), "--out", str(out)]) == 0
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    receiver = analytics.TwoInputParams(t_s=0.010, tau_s=0.001, tau_a=tau_a, t_min=0.0, t_max=1.0, w=w)
    e = mc.estimate_cv_two_input(receiver, UniformRange(0.002, 0.030), cause, trials, 4, threads)
    assert int(row["trials"]) == e.trials == trials
    assert 0 < e.p_hat < 1
    # estimate = 1 - p_hat, compared as counts of trials
    assert round(float(row["estimate"]) * trials) == trials - round(e.p_hat * trials)


ANALYTIC_CFG = {
    "kind": "analytic",
    "params": {"op": "expected_cv_two_input", "t_s": 0.1, "w": 0.05, "model": MODELS[-1]},
}


def _write(cfg, out):
    rows = run_experiment(cfg)
    harness.write_outputs(cfg, rows, str(out), 0.25)
    return out.read_bytes(), Path(f"{out}.manifest.json").read_bytes()


def test_outputs_overwrite_longer_files_without_a_stale_tail(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ANALYTIC_CFG))
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    old = tmp_path / "old" / "out.csv"
    old.write_bytes(b"x" * 10_000)
    Path(f"{old}.manifest.json").write_bytes(b"y" * 10_000)
    assert _write(cfg, old) == _write(cfg, tmp_path / "new" / "out.csv")


def test_outputs_keep_a_symlink_and_the_file_mode(tmp_path):
    cfg = write_cfg(tmp_path, ANALYTIC_CFG)
    fresh = tmp_path / "fresh.csv"
    assert main(["analytic", cfg, "--out", str(fresh)]) == 0
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"x" * 10_000)
    target.chmod(0o640)
    link.symlink_to(target)
    assert main(["analytic", cfg, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()
    assert target.stat().st_mode & 0o777 == 0o640


def test_outputs_write_to_a_device_and_refuse_a_directory(tmp_path, capsys):
    harness._rewrite(os.devnull, "a,b\n1,2\n")  # open(path, "w") works on it; it cannot be cut
    assert main(["analytic", write_cfg(tmp_path, ANALYTIC_CFG), "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_outputs_written_a_few_bytes_at_a_time_are_whole(tmp_path, monkeypatch):
    cfg = load_config(write_cfg(tmp_path, ANALYTIC_CFG))
    (tmp_path / "whole").mkdir()
    (tmp_path / "short").mkdir()
    whole = _write(cfg, tmp_path / "whole" / "out.csv")
    short = tmp_path / "short" / "out.csv"
    short.write_bytes(b"x" * 10_000)
    real_write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(min(len(data), 7))
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    assert _write(cfg, short) == whole
    monkeypatch.undo()
    assert sum(sizes) == sum(map(len, whole)) and max(sizes) == 7


def test_outputs_to_a_fifo_reach_the_reader_whole(tmp_path):
    cfg = write_cfg(tmp_path, ANALYTIC_CFG)
    fresh = tmp_path / "fresh.csv"
    assert main(["analytic", cfg, "--out", str(fresh)]) == 0
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["analytic", cfg, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [fresh.read_bytes()]


@pytest.mark.parametrize(
    "from_file, git, wall_time",
    [
        pytest.param(False, "v0-1-gabc", 0.25, id="config-sha256-null"),
        pytest.param(True, 'v0-"1\\-\u00e9-dirty', 0.25, id="git-quote-backslash-non-ascii"),
        pytest.param(True, "", 1e-05, id="wall-time-exponent"),
    ],
)
def test_manifest_is_the_indented_json_of_its_fields(tmp_path, monkeypatch, from_file, git, wall_time):
    monkeypatch.setattr(harness, "_git_describe", lambda: git)
    cfg = load_config(write_cfg(tmp_path, ANALYTIC_CFG)) if from_file else config_from_dict(ANALYTIC_CFG)
    out = tmp_path / "out.csv"
    rows = run_experiment(cfg)
    harness.write_outputs(cfg, rows, str(out), wall_time)
    text = Path(f"{out}.manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert (manifest["config_sha256"] is None) != from_file
    assert manifest["git_describe"] == git and manifest["wall_time_s"] == wall_time


def test_manifest_is_sorted_json_indented_by_two(tmp_path):
    assert main(["analytic", write_cfg(tmp_path, ANALYTIC_CFG), "--out", str(tmp_path / "a.csv")]) == 0
    text = (tmp_path / "a.csv.manifest.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf], ids=["negative", "nan", "infinity"])
def test_a_sweep_width_that_is_no_duration_exits_2(tmp_path, capsys, bad, first):
    widths = [bad, 0.5, 1.0] if first else [0.0, 0.5, bad]
    cfg_path = write_cfg(tmp_path, {**CHAIN_CFG, "w_sweep": widths})  # json writes NaN and Infinity
    assert main(["sweep", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {cfg_path}.w_sweep: width must be finite and >= 0, got {bad!r}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_two_point_arrivals_that_overflow_at_w0_exit_3(tmp_path, capsys, threads):
    # 1.7e308 + 1e308 overflows, so the chain draws its arrivals, and the
    # first trial that takes value_a raises
    links = [
        {"type": "link", "model": {"kind": "two_point", "value_a": 1.7e308, "value_b": 1.0}, "delay": 1e308},
        {"type": "link", "model": {"kind": "constant", "value": 1.0}},
    ]
    cfg = {
        "kind": "chain_sim",
        "trials": 70000,
        "threads": threads,
        "twi": {"window": 0.0},
        "scenario": {"action_times": [0.5], "inputs": links},
    }
    assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == "runtime error: overflow encountered in add\n"
    assert not (tmp_path / "x.csv").exists()


def test_a_window_too_small_for_the_arrivals_exits_3(tmp_path, capsys):
    links = [{"type": "link", "model": {"kind": "constant", "value": v}} for v in (2.0, 1.0)]
    cfg = {
        "kind": "fanout_sim",
        "trials": 100,
        "twi": {"window": 1e-310, "offset": 0.0},
        "scenario": {"inputs": links},
    }
    assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "runtime error: window 1e-310 is too small" in err
    assert "Warning" not in err
    assert not (tmp_path / "x.csv").exists()


def _sensor_chain(sensor_id):
    sensor = {"type": "sensor", "t_s": 0.01, "sensor_id": sensor_id}
    link = CHAIN_CFG["scenario"]["inputs"][0]
    return {**CHAIN_CFG, "scenario": {**CHAIN_CFG["scenario"], "inputs": [sensor, link]}}


def test_a_long_sensor_id_used_twice_exits_2_quoting_it_in_short(tmp_path, capsys):
    sensor = {"type": "sensor", "t_s": 0.01, "sensor_id": "s" * 100_000}
    cfg = {
        "kind": "fanout_sim",
        "trials": 100,
        "twi": {"window": 0.25, "offset": "random"},
        "scenario": {"inputs": [sensor, sensor]},
    }
    assert main(["simulate", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "used by two inputs" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "command, cfg, path, message",
    [
        pytest.param(
            "simulate",
            {**CHAIN_CFG, "scenario": {**CHAIN_CFG["scenario"], "anchor_first_arrival": "false"}},
            "config.json.scenario.anchor_first_arrival",
            "expected true or false, got 'false'",
            id="anchor-string",
        ),
        pytest.param(
            "simulate",
            {**CHAIN_CFG, "scenario": {**CHAIN_CFG["scenario"], "anchor_first_arrival": 0}},
            "config.json.scenario.anchor_first_arrival",
            "expected true or false, got 0",
            id="anchor-zero",
        ),
        pytest.param(
            "sweep",
            {**CHAIN_CFG, "w_sweep": [0.0, 0.5], "params": {"common_random_numbers": "false"}},
            "params.common_random_numbers",
            "expected true or false, got 'false'",
            id="crn-string",
        ),
        pytest.param(
            "simulate",
            {**CHAIN_CFG, "output": True},
            "config.json.output",
            "expected a string, got True",
            id="output-true",
        ),
        pytest.param(
            "simulate",
            _sensor_chain(["x"]),
            "config.json.scenario.inputs[0].sensor_id",
            "expected a string, got ['x']",
            id="sensor-id-list",
        ),
        *(
            pytest.param(
                "simulate",
                {**CHAIN_CFG, "scenario_id": bad},
                "config.json.scenario_id",
                f"expected a string without commas, quotes or line breaks, got {bad!r}",
                id=f"scenario-id-{name}",
            )
            for name, bad in [
                ("list", ["x", 1]), ("comma", "a,b"), ("quote", 'a"b'), ("cr", "a\rb"), ("lf", "a\nb"),
            ]
        ),
        *(
            pytest.param(
                "reproduce",
                {"kind": "reproduce", "trials": 100, "params": {"figure": bad}},
                "params.figure",
                f"expected one of (7, 8), got {bad!r}",
                id=f"figure-{name}",
            )
            for name, bad in [("true", True), ("string", "7"), ("nine", 9)]
        ),
        *(
            pytest.param(
                "reproduce",
                {"kind": "reproduce", "schema_version": bad, "params": {"figure": 7}},
                "config.json.schema_version",
                f"unsupported version {bad!r}",
                id=f"schema-version-{name}",
            )
            for name, bad in [("true", True), ("float", 1.0), ("two", 2)]
        ),
    ],
)
def test_booleans_and_strings_are_strict(tmp_path, capsys, command, cfg, path, message):
    assert main([command, write_cfg(tmp_path, cfg, "config.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.endswith(f"{path}: {message}\n")
    assert captured.out == ""


def test_strict_booleans_keep_their_meaning(tmp_path):
    csv = {}
    for name, anchor, crn in [("a", False, True), ("b", True, True), ("c", False, False)]:
        scenario = {**CHAIN_CFG["scenario"], "anchor_first_arrival": anchor}
        params = {"common_random_numbers": crn}
        cfg = {**CHAIN_CFG, "scenario": scenario, "w_sweep": [0.0, 0.5], "params": params}
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        csv[name] = out.read_bytes()
    assert len(set(csv.values())) == 3
    named = _sensor_chain("s1")
    assert main(["simulate", write_cfg(tmp_path, {**named, "output": str(tmp_path / "named.csv")})]) == 0
    assert (tmp_path / "named.csv").exists()


def test_an_ordinary_scenario_id_writes_one_field(tmp_path):
    params = {"op": "event_throughput_loss", "w": 1.0, "t_0": 2.0}
    cfg = {"kind": "analytic", "scenario_id": "fig 8/run-2_a", "params": params}
    out = tmp_path / "loss.csv"
    assert main(["analytic", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert row.split(",") == ["fig 8/run-2_a", "event_throughput_loss", "loss", "0.5"]
    assert len(header.split(",")) == 4


@pytest.mark.parametrize("bad", [True, "x", None])
def test_empirical_values_must_be_numbers(tmp_path, capsys, bad):
    link = {"type": "link", "model": {"kind": "empirical", "values": [0.1, bad, 0.2]}}
    cfg = {"kind": "fanout_sim", "trials": 100, "scenario": {"inputs": [link]}}
    assert main(["simulate", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "inputs[0].model.values" in err
    assert f"expected a number, got {bad!r}" in err


LINK = CHAIN_CFG["scenario"]["inputs"][0]
SENSOR = {"type": "sensor", "t_s": 0.01}
FANOUT_CFG = {"kind": "fanout_sim", "trials": 100, "scenario": {"inputs": [SENSOR, LINK]}}
# A config with three misspelt fields; each used to take its default.
MISSPELT_CFG = {
    **CHAIN_CFG,
    "trails": 10,
    "twi": {"window": 0.5, "offest": "random"},
    "scenario": {"action_times": [1.0], "inputs": [{**SENSOR, "tua_s": 0.5}, LINK]},
}
def _with_params(kind, params):
    base = {"chain_sim": CHAIN_CFG, "bounds_check": {**CHAIN_CFG, "kind": "bounds_check"}, "fanout_sim": FANOUT_CFG}
    return {**base.get(kind, {"kind": kind}), "params": params}


@pytest.mark.parametrize(
    "command, cfg, path",
    [
        pytest.param("simulate", MISSPELT_CFG, "config.json.trails", id="misspelt-config"),
        pytest.param("simulate", {**CHAIN_CFG, "trails": 10}, "config.json.trails", id="top-level"),
        pytest.param(
            "analytic",
            {"kind": "analytic", "scenario": CHAIN_CFG["scenario"], "params": {"op": "event_throughput_loss"}},
            "config.json.scenario",
            id="top-level-scenario-of-analytic",
        ),
        pytest.param(
            "simulate", {**CHAIN_CFG, "twi": {"window": 0.5, "offest": "random"}}, "config.json.twi.offest", id="twi"
        ),
        pytest.param(
            "simulate", {**FANOUT_CFG, "w_sweep": [0.1, 0.2]}, "config.json.w_sweep", id="w_sweep-fanout_sim"
        ),
        pytest.param(
            "bounds",
            {**CHAIN_CFG, "kind": "bounds_check", "w_sweep": [0.1]},
            "config.json.w_sweep",
            id="w_sweep-bounds_check",
        ),
        *(
            pytest.param(
                kind, {**_with_params(kind, params), "twi": {"window": 1.0}}, "config.json.twi", id=f"twi-{kind}"
            )
            for kind, params in (
                ("analytic", {"op": "event_throughput_loss", "w": 1.0, "t_0": 2.0}),
                ("plan", {"slot": 0.002}),
                ("reproduce", {"figure": 7}),
            )
        ),
        pytest.param(
            "simulate",
            {**CHAIN_CFG, "scenario": {**CHAIN_CFG["scenario"], "anchor": True}},
            "config.json.scenario.anchor",
            id="chain-scenario",
        ),
        pytest.param(
            "simulate",
            {**FANOUT_CFG, "scenario": {**FANOUT_CFG["scenario"], "action_times": []}},
            "config.json.scenario.action_times",
            id="fanout-scenario",
        ),
        pytest.param(
            "simulate",
            {**FANOUT_CFG, "scenario": {"inputs": [SENSOR, {**LINK, "dealy": 0.1}]}},
            "config.json.scenario.inputs[1].dealy",
            id="link",
        ),
        pytest.param(
            "simulate",
            {**FANOUT_CFG, "scenario": {"inputs": [{**SENSOR, "d_s": 100.0}, LINK]}},
            "config.json.scenario.inputs[0].d_s",
            id="sensor",
        ),
        *(
            pytest.param(
                "simulate",
                {**FANOUT_CFG, "scenario": {"inputs": [{"type": "link", "model": {**model, "scale": 2.0}}]}},
                "config.json.scenario.inputs[0].model.scale",
                id=f"model-{model['kind']}",
            )
            for model in MODELS
        ),
        pytest.param(
            "analytic",
            _with_params("analytic", {"op": "event_throughput_loss", "w": 1.0, "t_0": 2.0, "t_s": 1.0}),
            "params.t_s",
            id="params-analytic",
        ),
        pytest.param(
            "analytic",
            _with_params("analytic", {"op": "expected_cv_two_input", "t_s": 0.01, "model": MODELS[1], "t_min": 0.0}),
            "params.t_min",
            id="params-analytic-dropped-field",
        ),
        pytest.param(
            "analytic",
            _with_params("analytic", {"op": "expected_cv_two_input", "t_s": 0.01, "model": {**MODELS[1], "mean": 1}}),
            "params.model.mean",
            id="params-analytic-model",
        ),
        pytest.param(
            "plan",
            _with_params("plan", {"slot": 0.002, "t": 0.0051, "t_s": 0.01}),
            "params.t_s",
            id="params-plan",
        ),
        pytest.param(
            "simulate",
            _with_params("chain_sim", {"common_random_number": False}),
            "params.common_random_number",
            id="params-chain_sim",
        ),
        pytest.param(
            "simulate",
            _with_params("fanout_sim", {"common_random_numbers": True}),
            "params.common_random_numbers",
            id="params-fanout_sim",
        ),
        pytest.param(
            "bounds", _with_params("bounds_check", {"figure": 7}), "params.figure", id="params-bounds_check"
        ),
        pytest.param(
            "reproduce", _with_params("reproduce", {"figure": 7, "trials": 10}), "params.trials", id="params-reproduce"
        ),
    ],
)
def test_an_unknown_key_exits_2_naming_it(tmp_path, capsys, command, cfg, path):
    cfg_path = write_cfg(tmp_path, cfg, "config.json")
    assert main([command, cfg_path]) == 2
    captured = capsys.readouterr()
    prefix = "" if path.startswith("params.") else cfg_path[: -len("config.json")]
    assert captured.err.startswith(f"config error: {prefix}{path}: unknown field")
    assert captured.out == ""


def test_manifest_hashes_the_bytes_of_the_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(CHAIN_CFG, indent=1).encode() + b"\n")
    assert main(["simulate", str(path), "--out", str(tmp_path / "sim.csv")]) == 0
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    # without a config file, the hash is that of the document README gives
    assert main(["reproduce", "--figure", "7", "--trials", "100", "--out", str(tmp_path / "f7.csv")]) == 0
    manifest = json.loads((tmp_path / "f7.csv.manifest.json").read_text())
    document = b'{"kind":"reproduce","params":{"figure":7}}'
    assert manifest["config_sha256"] == hashlib.sha256(document).hexdigest()
    fig8 = write_cfg(tmp_path, {"kind": "reproduce", "params": {"figure": 8}})
    assert main(["reproduce", fig8, "--figure", "7"]) == 2
    assert capsys.readouterr().err == "config error: reproduce takes a config file or --figure, not both\n"


def test_cli_reproduce_needs_figure(tmp_path, capsys):
    assert main(["reproduce"]) == 2
    out = tmp_path / "f7.csv"
    assert main(["reproduce", "--figure", "7", "--trials", "2000", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "N,exact,bound,mc_estimate,std_err"


FIG8_SEED3_SHA256 = "58c0a26ccdc6cf8b0e9ba870e2e442cfd8a64570c4f940bee80003d95d00c607"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_figure_8_csv_is_byte_identical_to_the_recorded_one(tmp_path, threads):
    # 65536 trials are two chunks.  The CSV bytes are the reproducibility
    # contract: a faster sweep must write the same ones at every thread count
    out = tmp_path / "f8.csv"
    args = ["reproduce", "--figure", "8", "--trials", "65536", "--seed", "3", "--threads", threads]
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG8_SEED3_SHA256


FIG7_SEED3_SHA256 = "ca79d95fef09e977cf1d8d2baecb964be77005b8443649cc3e829f9abcfeda37"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_figure_7_csv_is_byte_identical_to_the_recorded_one(tmp_path, threads):
    # 70000 trials are two full chunks and a partial one; figure 7's W = 0
    # chains of two-point inputs count from the atoms each input took
    out = tmp_path / "f7.csv"
    args = ["reproduce", "--figure", "7", "--trials", "70000", "--seed", "3", "--threads", threads]
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG7_SEED3_SHA256


def test_cli_sweep(tmp_path):
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "w_sweep": [0.0, 0.5, 1.0], "trials": 20_000})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + one row per window


# ---------------------------------------------------------------------------
# analytic ops and plan sections
# ---------------------------------------------------------------------------

MODEL = {"kind": "uniform", "low": 0.0, "high": 0.01}
RECEIVER = {"t_s": 0.01, "tau_s": 0.002, "tau_a": 0.001, "w": 0.004}
TWO_INPUT = {**RECEIVER, "t_min": 0.0, "t_max": 0.03}
TWO = analytics.TwoInputParams(**TWO_INPUT)


CV = {"op": "cv_physical_cause", "t_s": 1.0, "t_d": 0.5}
CONDITIONS = {"t_s": 1.0, "t_ab": 0.5}


@pytest.mark.parametrize(
    "kind, params, field",
    [
        # missing fields, and values of the wrong type
        pytest.param(
            "analytic", {"op": "sim_violation_n", "arrivals": 5, "w": 1.0}, "arrivals", id="arrivals-5"
        ),
        pytest.param("analytic", {**CV, "w": None}, "w", id="w-null"),
        pytest.param(
            "analytic", {"op": "conditions_digital_cause", **CONDITIONS, "t_max": None}, "t_max",
            id="t_max-null",
        ),
        pytest.param("plan", {"slot": None, "w": 1.0}, "slot", id="plan-slot-null"),
        pytest.param("plan", {"sender_budget": 0.01}, "t_s", id="plan-budget-without-t_s"),
        # strings where a number or a cause belongs
        pytest.param("analytic", {**CV, "w": "x"}, "w", id="w-x"),
        pytest.param(
            "analytic", {"op": "conditions_physical_cause", **CONDITIONS, "tau_a": "x"}, "tau_a",
            id="tau_a-x",
        ),
        pytest.param(
            "analytic", {"op": "expected_cv_two_input", "t_s": 1.0, "model": MODEL, "cause": "nope"},
            "cause",
            id="cause-nope",
        ),
        # values float() would take, and a plan model section without its w
        pytest.param("analytic", {**CV, "w": True}, "w", id="w-true"),
        pytest.param("analytic", {**CV, "w": "0.5"}, "w", id="w-numeric-string"),
        pytest.param(
            "plan", {"model": MODEL, "slot": 0.5, "t": 1.0}, "w", id="plan-model-and-slot-without-w"
        ),
        pytest.param("analytic", {"op": ["sim_violation_n"]}, "op", id="op-list"),
    ],
)
def test_malformed_params_exit_2_naming_the_field(tmp_path, capsys, kind, params, field):
    assert main([kind, write_cfg(tmp_path, {"kind": kind, "params": params})]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: params.{field}: ")
    assert "Traceback" not in err


HUGE = 10**400  # parses as a Python int, overflows float()


def _fanout(model):
    return {"kind": "fanout_sim", "scenario": {"inputs": [{"type": "link", "model": model}]}}


@pytest.mark.parametrize(
    "command, cfg, path",
    [
        pytest.param(
            "simulate",
            _fanout({"kind": "constant", "value": HUGE}),
            "config.json.scenario.inputs[0].model.value",
            id="constant-value",
        ),
        pytest.param(
            "simulate",
            _fanout({"kind": "empirical", "values": [0.1, HUGE]}),
            "config.json.scenario.inputs[0].model.values",
            id="empirical-value",
        ),
        pytest.param(
            "simulate", {**CHAIN_CFG, "twi": {"window": HUGE}}, "config.json.twi.window", id="twi-window"
        ),
        pytest.param(
            "analytic",
            {"kind": "analytic", "params": {"op": "cv_physical_cause", "t_s": 1.0, "t_d": HUGE, "w": 1.0}},
            "params.t_d",
            id="analytic-param",
        ),
    ],
)
def test_a_number_too_large_for_a_float_exits_2(tmp_path, capsys, command, cfg, path):
    assert main([command, write_cfg(tmp_path, cfg, "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: number too large for a float" in err
    assert "Traceback" not in err


def _values(kind, params):
    rows = run_experiment(config_from_dict({"kind": kind, "params": params}))
    return {row["name"]: row["value"] for row in rows}


OP_CASES = [
    (
        {"op": "two_sensor_min_window", "t_s1": 0.01, "t_s2": 0.002, "tau_s2": 0.005},
        {"w_min": analytics.twi_two_sensor_min_window(0.01, 0.002, 0.0, 0.005)},
    ),
    (
        {"op": "sim_violation_n", "arrivals": [0.1, 0.4, 0.2], "w": 0.5},
        {"p_violation": analytics.p_sim_violation_n([0.1, 0.4, 0.2], 0.5)},
    ),
    (
        {"op": "cv_physical_cause", "t_s": 0.3, "t_d": 0.1, "w": 0.5},
        {"p_violation": analytics.p_cv_physical_cause(0.3, 0.1, 0.5)},
    ),
    (
        {"op": "cv_digital_cause", "t_s": 0.1, "t_d": 0.3, "w": 0.5},
        {"p_violation": analytics.p_cv_digital_cause(0.1, 0.3, 0.5)},
    ),
    (
        {"op": "conditions_physical_cause", **TWO_INPUT, "t_ab": 0.02},
        asdict(analytics.causality_conditions_physical_cause(TWO, 0.02)),
    ),
    (
        {"op": "conditions_digital_cause", **TWO_INPUT, "t_ab": 0.02},
        asdict(analytics.causality_conditions_digital_cause(TWO, 0.02)),
    ),
    (
        {"op": "expected_cv_two_input", **RECEIVER, "model": MODEL, "cause": "digital"},
        {"p_violation": analytics.expected_cv_two_input(TWO, UniformRange(0.0, 0.01), "digital")},
    ),
    (
        {"op": "event_throughput_loss", "w": 0.004, "t_0": 0.01},
        {"loss": event_throughput_loss(0.004, 0.01)},
    ),
]


@pytest.mark.parametrize("params, expected", OP_CASES, ids=[params["op"] for params, _ in OP_CASES])
def test_each_analytic_op_matches_a_direct_call(params, expected):
    assert set(expected) == set(ANALYTIC_OPS[params["op"]][1])
    assert _values("analytic", params) == expected


def test_each_plan_section_matches_a_direct_call():
    model = UniformRange(0.0, 0.01)
    budget = planner.latency_budget_digital_cause(0.01, 0.001, 0.002, 0.004)
    assert _values("plan", {"sender_budget": 0.004, "t_s": 0.01, "tau_a": 0.001, "tau_s": 0.002}) == {
        "max_t_ab": budget.max_t_ab,
        "radio_budget": budget.radio_budget,
    }
    unknown = planner.p_miss_unknown_edge(model, 0.004)
    assert _values("plan", {"model": MODEL, "w": 0.004}) == {
        "p_miss_known_edge": planner.p_miss_known_edge(model, 0.004),
        "p_miss_nominal": unknown.nominal_value,
        "p_miss_exact": unknown.exact_value,
    }
    grid = planner.SlotGrid(0.002)
    assert _values("plan", {"slot": 0.002, "w": 0.005, "t": 0.0051}) == {
        "twi_on_grid": planner.validate_twi_on_grid(0.005, grid),
        "slot_index": planner.quantize_to_slots(0.0051, grid),
    }
    assert _values("plan", {"slot": 0.002, "t": 0.0051}) == {"slot_index": 3}
    # sections run in table order, each once
    params = {"slot": 0.002, "w": 0.004, "sender_budget": 0.004, "t_s": 0.01}
    rows = run_experiment(config_from_dict({"kind": "plan", "params": params}))
    assert [r["name"] for r in rows] == ["max_t_ab", "radio_budget", "twi_on_grid"]
    with pytest.raises(ConfigError, match="params: plan config needs"):
        run_experiment(config_from_dict({"kind": "plan", "params": {"slot": 0.002}}))


def _readme_default(default):
    if default is MISSING:
        return "required"
    if default is None:
        return "none"
    if default == TwiSpec(0.0):
        return "{}"
    if isinstance(default, str):
        return f'"{default}"'
    if isinstance(default, (bool, dict, tuple)):
        return json.dumps(list(default) if isinstance(default, tuple) else default)
    return "inf" if default == math.inf else f"{default:g}"


def test_readme_lists_every_analytic_op_and_plan_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = []
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0] in ("analytic", "plan"):
            kind, (name,), required, optional, outputs = (
                cells[0], re.findall(r"`(\w+)`", cells[1]), *cells[2:]
            )
            listed.append(
                (
                    kind,
                    name,
                    set(re.findall(r"`(\w+)`", required)),
                    dict(re.findall(r"`(\w+)` \(([^)]*)\)", optional)),
                    tuple(re.findall(r"`(\w+)`", outputs)),
                )
            )
    expected = [
        (
            kind,
            name,
            {f for f, d in fields.items() if d is MISSING},
            {f: _readme_default(d) for f, d in fields.items() if d is not MISSING},
            names,
        )
        for kind, table in (("analytic", ANALYTIC_OPS), ("plan", PLAN_SECTIONS))
        for name, (fields, names, _) in table.items()
    ]
    assert listed == expected


def _readme_field_tables() -> dict[str, dict[str, str]]:
    """README heading -> {field: the cells after its value cell (the default,
    and the kinds in the top-level table) joined by " | ", backticks removed}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables, heading = {}, None
    for line in readme.splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) in (3, 4) and re.fullmatch(r"`\w+`", cells[0]):
            tables.setdefault(heading, {})[cells[0].strip("`")] = " | ".join(cells[2:]).replace("`", "")
    return tables


def test_readme_lists_every_config_field():
    def listed(spec, tag=None):
        return {**({tag: "required"} if tag else {}), **{f: _readme_default(d) for f, (_, d) in spec.items()}}

    # a top-level field has one default, and README names the kinds that take it
    specs = config._CONFIG_SPECS
    top_level = {}
    for spec in specs.values():
        for name, (_, default) in spec.items():
            assert _readme_default(top_level.setdefault(name, default)) == _readme_default(default)

    def kinds(name):
        taking = [kind for kind, spec in specs.items() if name in spec]
        return "every kind" if taking == list(specs) else ", ".join(taking)

    expected = {
        "top level": {
            "kind": "required | every kind",
            **{name: f"{_readme_default(d)} | {kinds(name)}" for name, d in top_level.items()},
        },
        "twi": listed(config._TWI_SPEC),
        "chain scenario": listed(config._CHAIN_SPEC),
        "fan-out scenario": listed(config._FANOUT_SPEC),
        **{f"{kind} input": listed(spec, "type") for kind, spec in config._INPUT_SPECS.items()},
        **{f"{kind} model": listed(spec, "kind") for kind, spec in config._MODEL_SPECS.items()},
    }
    tables = _readme_field_tables()
    assert {name: tables.get(name) for name in expected} == expected


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        pytest.param(
            "analytic",
            {"kind": "analytic", "params": {"op": "two_sensor_min_window", "t_s1": [0.1] * 100_000, "t_s2": 0.1}},
            "params.t_s1",
            id="number-list",
        ),
        pytest.param(
            "analytic",
            {"kind": "analytic", "params": {"op": "event_throughput_loss", "w": {"a": [0.25] * 50_000}, "t_0": 2.0}},
            "params.w",
            id="number-object",
        ),
        pytest.param(
            "simulate", {**CHAIN_CFG, "scenario_id": list(range(100_000))}, "config.json.scenario_id", id="id-list"
        ),
        pytest.param(
            "simulate", {**CHAIN_CFG, "scenario_id": "x" * 100_000 + ","}, "config.json.scenario_id", id="id-string"
        ),
        pytest.param("simulate", {**CHAIN_CFG, "seed": -(10**4000)}, "config.json.seed", id="seed-huge"),
        pytest.param("analytic", {"kind": "analytic", "params": {"op": ["x"] * 100_000}}, "params.op", id="op-list"),
    ],
)
def test_a_config_error_quotes_a_long_value_in_short(tmp_path, capsys, command, cfg, field):
    assert main([command, write_cfg(tmp_path, cfg, "config.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{field}: " in err
    assert len(err.encode()) < 300


def test_a_scenario_id_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "loss.csv"
    out.write_bytes(b"the previous run's rows\n")
    params = {"op": "event_throughput_loss", "w": 1.0, "t_0": 2.0}
    cfg = {"kind": "analytic", "scenario_id": "a\ud800b", "params": params}  # a lone surrogate
    assert main(["analytic", write_cfg(tmp_path, cfg, "config.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "config.json.scenario_id: expected a string encodable as UTF-8" in err
    assert out.read_bytes() == b"the previous run's rows\n"


_SIM_COLUMNS = "scenario_id,kind,n,w,trials,estimate,std_err,ci_lo,ci_hi,analytic_value,bound_value,sigma_distance"
_BOUNDS_COLUMNS = "scenario_id,n,w,trials,joint_estimate,joint_std_err,product_bound,holder_bound,max_pairwise,pairwise"
_NAME_VALUE_COLUMNS = "scenario_id,op,name,value"
_REPRODUCE = {"kind": "reproduce", "trials": 500}
_FANOUT_INPUTS = [
    {"type": "sensor", "t_s": 0.02, "sensor_id": "s0"},
    {"type": "link", "model": {"kind": "empirical", "values": [0.01, 0.03]}},
]


@pytest.mark.parametrize(
    "command, cfg, header",
    [
        ("simulate", CHAIN_CFG, _SIM_COLUMNS),
        ("sweep", {**CHAIN_CFG, "w_sweep": [0.0, 0.5, 1.0]}, _SIM_COLUMNS),
        (
            "simulate",
            {"kind": "fanout_sim", "twi": {"window": 0.05, "offset": "random"}, "scenario": {"inputs": _FANOUT_INPUTS}},
            _SIM_COLUMNS,
        ),
        ("bounds", {**CHAIN_CFG, "kind": "bounds_check", "twi": {"window": 0.0}}, _BOUNDS_COLUMNS),
        ("bounds", {**CHAIN_CFG, "kind": "bounds_check"}, _BOUNDS_COLUMNS),
        ("analytic", ANALYTIC_CFG, _NAME_VALUE_COLUMNS),
        ("plan", {"kind": "plan", "params": {"model": MODELS[2], "w": 0.5, "slot": 0.1, "t": 0.25}}, _NAME_VALUE_COLUMNS),
        ("reproduce", {**_REPRODUCE, "params": {"figure": 7}}, "N,exact,bound,mc_estimate,std_err"),
        ("reproduce", {**_REPRODUCE, "params": {"figure": 8}}, "W_over_tau,N,estimate,std_err"),
    ],
    ids=["chain_sim", "sweep", "fanout_sim", "bounds_check-w0", "bounds_check-w", "analytic", "plan", "fig7", "fig8"],
)
def test_the_csv_header_of_each_kind_is_the_key_order_of_every_row(tmp_path, command, cfg, header):
    out = tmp_path / "out.csv"
    assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert out.read_text().split("\n", 1)[0] == header
    rows = run_experiment(config_from_dict(cfg))
    assert all(list(row) == header.split(",") for row in rows)

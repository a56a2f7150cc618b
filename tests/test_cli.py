"""The command line: every argv form it reads, its usage errors and help,
and the ``python -m twisim.cli`` entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twisim
from twisim.cli import main

ANALYTIC_CFG = {
    "kind": "analytic",
    "seed": 5,
    "trials": 2000,
    "params": {"op": "expected_cv_two_input", "t_s": 0.1, "w": 0.05, "model": {"kind": "constant", "value": 0.01}},
}


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ANALYTIC_CFG))
    return str(path)


def _manifest(out):
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    return manifest["seed"], manifest["trials"], manifest["threads"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["analytic", "{cfg}", "--seed=3", "--out", "{out}"], (3, 2000, 1), id="equals-value"),
        pytest.param(["analytic", "--seed", "4", "--trials=7", "--out={out}", "{cfg}"], (4, 7, 1), id="options-first"),
        pytest.param(["analytic", "{cfg}", "--thr", "2", "--out", "{out}"], (5, 2000, 2), id="unique-prefix"),
        pytest.param(["analytic", "--out", "{out}", "--seed", "6", "--seed", "8", "{cfg}"], (8, 2000, 1), id="last-wins"),
    ],
)
def test_an_argv_form_sets_the_manifest(tmp_path, cfg, argv, expected):
    out = str(tmp_path / "out.csv")
    assert main([a.format(cfg=cfg, out=out) for a in argv]) == 0
    assert _manifest(out) == expected


def test_double_dash_ends_the_options(tmp_path, cfg, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.rename(cfg, "-cfg.json")
    assert main(["analytic", "--out", "out.csv", "--trials", "9", "--", "-cfg.json"]) == 0
    assert _manifest("out.csv") == (5, 9, 1)


def test_options_follow_the_config_under_posixly_correct(tmp_path, cfg, monkeypatch):
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    out = str(tmp_path / "out.csv")
    assert main(["analytic", cfg, "--seed", "3", "--out", out]) == 0
    assert _manifest(out) == (3, 2000, 1)


def test_a_figure_other_than_7_or_8_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "f9.csv"
    assert main(["reproduce", "--figure", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: params.figure: expected one of (7, 8), got 9\n"
    assert not out.exists()


def test_reproduce_a_figure_with_overrides(tmp_path):
    out = str(tmp_path / "f8.csv")
    assert main(["reproduce", "--figure", "8", "--trials", "4096", "--out", out]) == 0
    assert _manifest(out) == (1, 4096, 1)
    assert Path(out).read_text().startswith("W_over_tau,N,estimate,std_err\n")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analytic", "{cfg}", "--bogus"], id="unknown-option"),
        pytest.param(["analytic", "{cfg}", "-x"], id="unknown-short-option"),
        pytest.param(["analytic", "{cfg}", "--seed"], id="no-value"),
        pytest.param(["analytic", "{cfg}", "--seed", "x"], id="not-an-integer"),
        pytest.param(["analytic", "{cfg}", "--trials=1.5"], id="not-an-integer-equals"),
        pytest.param(["analytic", "{cfg}", "--t", "2"], id="ambiguous-prefix"),
        pytest.param(["reproduce", "--figure", "seven"], id="figure-word"),
        pytest.param(["analytic", "{cfg}", "--figure", "7"], id="figure-not-reproduce"),
        pytest.param(["analytic", "{cfg}", "{cfg}"], id="two-configs"),
        pytest.param(["analytic"], id="no-config"),
        pytest.param([], id="no-command"),
        pytest.param(["frobnicate", "{cfg}"], id="unknown-command"),
    ],
)
def test_a_usage_error_returns_2(tmp_path, cfg, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: twisim ")
    assert "twisim: error: " in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize(
    "before",
    [[], ["simulate"], ["analytic", "cfg.json", "--seed", "3"], ["analytic", "cfg.json", "--bogus"]],
    ids=["bare", "command", "full", "after-an-unknown-option"],
)
def test_help_returns_0_and_prints_to_stdout(capsys, flag, before):
    assert main([*before, flag]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: twisim ")
    assert "Exit codes" in captured.out
    assert captured.err == ""


def test_an_override_below_its_minimum_is_a_config_error(cfg, capsys):
    assert main(["analytic", cfg, "--threads", "0"]) == 2
    assert capsys.readouterr().err == "config error: --threads must be >= 1, got 0\n"


def _run_module(*args, flags=()):
    src = str(Path(twisim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *flags, "-m", "twisim.cli", *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("flags", [(), ("-OO",)], ids=["docstrings", "no-docstrings"])
def test_the_entry_point_prints_help_and_exits_0(flags):
    proc = _run_module("-h", flags=flags)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: twisim ")
    assert "None" not in proc.stdout


def test_the_entry_point_exits_2_on_a_usage_error():
    proc = _run_module("analytic", "--bogus")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: twisim ")
    assert "Traceback" not in proc.stderr


# Runs each argv in turn through main in one fresh interpreter (pytest's own
# has NumPy loaded) and prints whether NumPy is loaded after the import of
# twisim.cli and after each run, with the run's exit code.
NUMPY_AFTER = (
    "import json, sys, twisim.cli\n"
    "seen = ['numpy' in sys.modules]\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    seen.append([twisim.cli.main(argv), 'numpy' in sys.modules])\n"
    "print(json.dumps(seen))\n"
)

PARAMETRIC_MODELS = {
    "constant": {"kind": "constant", "value": 0.05},
    "two_point": {"kind": "two_point", "value_a": 0.01, "value_b": 0.05, "p_a": 0.3},
    "uniform": {"kind": "uniform", "low": 0.01, "high": 0.2},
    "shifted_exponential": {"kind": "shifted_exponential", "shift": 0.005, "rate": 40.0},
}


def _numpy_after(tmp_path, runs):
    env = {**os.environ, "PYTHONPATH": str(Path(twisim.__file__).resolve().parents[1])}
    argv = [sys.executable, "-c", NUMPY_AFTER, json.dumps(runs)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=tmp_path, env=env)
    return json.loads(proc.stdout.splitlines()[-1])


def _analytic(tmp_path, name, model):
    params = {"op": "expected_cv_two_input", "t_s": 0.05, "tau_s": 0.01, "tau_a": 0.02, "w": 0.1, "model": model}
    (tmp_path / f"{name}.json").write_text(json.dumps({"kind": "analytic", "params": params}))
    return ["analytic", f"{name}.json", "--out", f"{name}.csv"]


def test_commands_without_arrays_leave_numpy_unimported(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"kind": "analytic", "bogus": 1}))
    runs = [["-h"], ["analytic", "bad.json"]]
    runs += [_analytic(tmp_path, name, PARAMETRIC_MODELS[name]) for name in ("constant", "two_point")]
    for name, model in PARAMETRIC_MODELS.items():
        (tmp_path / f"plan-{name}.json").write_text(json.dumps({"kind": "plan", "params": {"model": model, "w": 0.02}}))
        runs.append(["plan", f"plan-{name}.json", "--out", f"plan-{name}.csv"])
    assert _numpy_after(tmp_path, runs) == [False, [0, False], [2, False]] + [[0, False]] * 6


@pytest.mark.parametrize(
    "run",
    [
        lambda tmp_path: _analytic(tmp_path, "uniform", PARAMETRIC_MODELS["uniform"]),
        lambda tmp_path: _analytic(tmp_path, "empirical", {"kind": "empirical", "values": [0.01, 0.04, 0.2]}),
        # NumPy's first use is then inside the chunk threads
        lambda tmp_path: ["reproduce", "--figure", "8", "--trials", "65536", "--threads", "2", "--out", "fig8.csv"],
    ],
    ids=["quadrature", "empirical", "monte-carlo"],
)
def test_commands_with_arrays_load_numpy(tmp_path, run):
    assert _numpy_after(tmp_path, [run(tmp_path)]) == [False, [0, True]]

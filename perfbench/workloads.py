"""Workload inputs for the benchmark, generated from the benchmark seed.

Each workload is a list of twisim CLI commands over generated config files.
The program only ever sees those files; ``--threads`` and ``--out`` are
added per run.  Generation is byte-deterministic in the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Trials per MC command: enough that sampling and stamping outweigh each
# command's fixed costs, few enough that a pass takes well under a second
# and a run holds many passes.
TRIALS = 1 << 19
DEFAULT_SEED = 1

# Three links, not more: each adds the same parse, validation and manifest
# cost, and a short pass lets a run hold several.
FANOUT_LINKS = 3
FANOUT_SENSORS = 2
FANOUT_TRACE_LEN = 100_000
FANOUT_WINDOW = 0.25

ORACLE_TRACE_LEN = 2000
ORACLE_W_GRID = tuple(round(0.02 + 0.032 * k, 6) for k in range(16))

# Why each workload exists: the layer it loads and the change it should show.
# Two workloads, not one per MC command: on a few shared vCPUs a run needs
# close to a minute of passes for its medians to repeat, and the benchmark's
# time allows that for two.
WHY = {
    "mc_mix": "figure 8 CRN sweep, figure 7 chains and a 5-input Empirical fan-out; stamping, sampling, validation",
    "oracle_grid": "240 analytic/plan commands over five models and a W grid; no MC, per-command overhead",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand and config file name, plus what to check."""

    argv: tuple[str, ...]
    columns: tuple[str, ...]  # result columns compared across runs and hashed
    check: str  # "fig7", "fig8", "fanout" or "oracle"


def _dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _r(x: float) -> float:
    return round(float(x), 6)


def _reproduce(figure: int, seed: int) -> dict:
    return {"kind": "reproduce", "seed": seed, "trials": TRIALS, "params": {"figure": figure}}


def _fanout(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    inputs = [
        {
            "type": "sensor",
            "mode": "synchronous",
            "t_s": _r(rng.uniform(0.01, 0.04)),
            "tau_s": _r(rng.uniform(0.0, 0.005)),
            "sensor_id": f"s{i}",
        }
        for i in range(FANOUT_SENSORS)
    ]
    for _ in range(FANOUT_LINKS):
        base = rng.uniform(0.002, 0.01)
        scale = rng.uniform(0.001, 0.006)
        trace = base + rng.gamma(2.0, scale, FANOUT_TRACE_LEN)
        inputs.append(
            {"type": "link", "model": {"kind": "empirical", "values": [round(v, 6) for v in trace.tolist()]}}
        )
    return {
        "kind": "fanout_sim",
        "seed": seed,
        "trials": TRIALS,
        "scenario_id": "fanout_trace",
        "twi": {"window": FANOUT_WINDOW, "offset": "random"},
        "scenario": {"inputs": inputs},
    }


def _oracle_models(rng: np.random.Generator) -> list[dict]:
    low = rng.uniform(0.0, 0.05)
    shift = rng.uniform(0.0, 0.05)
    trace = shift + rng.gamma(2.0, rng.uniform(0.01, 0.05), ORACLE_TRACE_LEN)
    return [
        {"kind": "constant", "value": _r(rng.uniform(0.01, 0.2))},
        {"kind": "uniform", "low": _r(low), "high": _r(low + rng.uniform(0.05, 0.3))},
        {"kind": "shifted_exponential", "shift": _r(shift), "rate": _r(rng.uniform(5.0, 40.0))},
        {
            "kind": "two_point",
            "value_a": _r(rng.uniform(0.01, 0.1)),
            "value_b": _r(rng.uniform(0.1, 0.4)),
            "p_a": _r(rng.uniform(0.1, 0.9)),
        },
        {"kind": "empirical", "values": [round(v, 6) for v in trace.tolist()]},
    ]


def _oracle(seed: int) -> dict[str, dict]:
    rng = np.random.default_rng([seed, 4])
    configs = {}
    for m, model in enumerate(_oracle_models(rng)):
        receiver = {
            "t_s": _r(rng.uniform(0.02, 0.2)),
            "tau_s": _r(rng.uniform(0.0, 0.02)),
            "tau_a": _r(rng.uniform(0.0, 0.05)),
        }
        for k, w in enumerate(ORACLE_W_GRID):
            tag = f"m{m}-w{k:02d}"
            for cause in ("physical", "digital"):
                params = {"op": "expected_cv_two_input", "cause": cause, "model": model, "w": w, **receiver}
                configs[f"analytic-{tag}-{cause}.json"] = {
                    "kind": "analytic", "seed": seed, "scenario_id": tag, "params": params,
                }
            configs[f"plan-{tag}.json"] = {
                "kind": "plan", "seed": seed, "scenario_id": tag, "params": {"model": model, "w": w},
            }
    return configs


def config_files(name: str, seed: int) -> dict[str, bytes]:
    """File name -> bytes of every config the workload runs, in command order."""
    if name == "mc_mix":
        return {
            "fig8.json": _dumps(_reproduce(8, seed)),
            "fig7.json": _dumps(_reproduce(7, seed)),
            "fanout.json": _dumps(_fanout(seed)),
        }
    if name == "oracle_grid":
        return {fname: _dumps(cfg) for fname, cfg in _oracle(seed).items()}
    raise ValueError(f"unknown workload {name!r}")


def _command(fname: str, path: Path) -> Command:
    if fname == "fig8.json":
        return Command(("reproduce", str(path)), ("estimate",), "fig8")
    if fname == "fig7.json":
        return Command(("reproduce", str(path)), ("mc_estimate",), "fig7")
    if fname == "fanout.json":
        return Command(("simulate", str(path)), ("estimate",), "fanout")
    subcommand = fname.split("-", 1)[0]
    return Command((subcommand, str(path)), ("value",), "oracle")


def generate(name: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's config files into workdir; return its commands."""
    commands = []
    for fname, data in config_files(name, seed).items():
        path = workdir / fname
        path.write_bytes(data)
        commands.append(_command(fname, path))
    return commands

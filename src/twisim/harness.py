"""Experiment orchestration: run a validated config, emit CSV rows and a
JSON run-manifest.

The CSV body is the reproducibility contract: fixed column order, '.'
decimal, LF line endings, shortest round-trip float formatting, and rows
deterministic in (config, seed) for any thread count.  Volatile metadata
(wall time, git state) lives only in the manifest.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
import subprocess
import sys
import time
from dataclasses import MISSING, astuple
from typing import Optional, Sequence

from twisim import __version__, analytics, bounds, planner
from twisim.config import ConfigError, ExperimentConfig, read_params
from twisim.core import Constant, ShiftedExponential, TwoPoint, _quadpack, _scipy_version, _shown
from twisim.inputs import ScenarioInput
from twisim.mc import (
    CHUNK_SIZE,
    CausalChainScenario,
    FanOutScenario,
    ViolationEstimate,
    derived_seed,
    estimate_chain,
    estimate_no_violation_sweep,
    estimate_sim_violation,
    _usable_cpus,
    _workers,
)
from twisim.twi import TwiSpec, event_throughput_loss


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def rows_to_csv(rows: Sequence[dict]) -> str:
    """CSV text of rows that have the same keys in the same order; the first
    row's keys are the header."""
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def _sigma_distance(estimate: float, analytic: Optional[float], trials: int):
    """The score statistic |p - a| / sqrt(a (1 - a) / n) of the estimate p
    against the analytic value a.  The Wilson interval inverts it, so it is
    at most 1.96 exactly when a lies in [ci_lo, ci_hi]; at a = 0 or 1 it is
    0 if p == a, else inf."""
    if analytic is None:
        return None
    diff = abs(estimate - analytic)
    variance = analytic * (1.0 - analytic)
    if variance <= 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / math.sqrt(variance) * math.sqrt(trials)  # variance / trials can underflow


def _estimate_row(
    cfg: ExperimentConfig, e: ViolationEstimate, kind: str, n: int, w: float, analytic=None
) -> dict:
    return {
        "scenario_id": cfg.scenario_id,
        "kind": kind,
        "n": n,
        "w": w,
        "trials": e.trials,
        "estimate": e.p_hat,
        "std_err": e.std_err,
        "ci_lo": e.ci95[0],
        "ci_hi": e.ci95[1],
        "analytic_value": analytic,
        "bound_value": None,
        "sigma_distance": _sigma_distance(e.p_hat, analytic, e.trials),
    }


def _run_chain_sim(cfg: ExperimentConfig) -> list[dict]:
    s = cfg.scenario
    assert isinstance(s, CausalChainScenario)
    crn = read_params(cfg.params, {"common_random_numbers": True})["common_random_numbers"]
    if cfg.w_sweep:
        estimates = estimate_no_violation_sweep(
            s, cfg.w_sweep, cfg.trials, cfg.seed, common_random_numbers=crn, threads=cfg.threads
        )
        pairs = zip(cfg.w_sweep, estimates)
    else:
        e = estimate_chain(s, cfg.twi, cfg.trials, cfg.seed, cfg.threads).no_violation
        pairs = [(cfg.twi.window, e)]
    return [_estimate_row(cfg, e, "chain_no_violation", s.n, w) for w, e in pairs]


def _run_fanout_sim(cfg: ExperimentConfig) -> list[dict]:
    s = cfg.scenario
    assert isinstance(s, FanOutScenario)
    read_params(cfg.params, {})
    e = estimate_sim_violation(s, cfg.twi, cfg.trials, cfg.seed, cfg.threads)
    analytic = None
    if cfg.twi.random_offset and all(isinstance(inp.model, Constant) for inp in s.inputs):
        arrivals = [inp.delay + inp.model.value for inp in s.inputs]
        analytic = analytics.p_sim_violation_n(arrivals, cfg.twi.window)
    return [_estimate_row(cfg, e, "fanout_sim_violation", s.n, cfg.twi.window, analytic)]


def _run_bounds_check(cfg: ExperimentConfig) -> list[dict]:
    s = cfg.scenario
    assert isinstance(s, CausalChainScenario)
    read_params(cfg.params, {})
    est = estimate_chain(s, cfg.twi, cfg.trials, cfg.seed, cfg.threads)
    pairwise = [e.p_hat for e in est.pairwise]
    w = cfg.twi.window
    row = {
        "scenario_id": cfg.scenario_id,
        "n": s.n,
        "w": w,
        "trials": cfg.trials,
        "joint_estimate": est.no_violation.p_hat,
        "joint_std_err": est.no_violation.std_err,
        "product_bound": bounds.ordered_product_bound(pairwise) if w == 0.0 else None,
        "holder_bound": bounds.ordered_holder_bound(pairwise) if w > 0.0 else None,
        "max_pairwise": max(pairwise) if w > 0.0 else None,
        "pairwise": ";".join(repr(p) for p in pairwise),
    }
    return [row]


# The fields of analytics.TwoInputParams, the two-input receiver; the
# expected violation probability does not read the link's support bounds.
_RECEIVER = {"t_s": MISSING, "tau_s": 0.0, "tau_a": 0.0, "w": 0.0}
_TWO_INPUT = {**_RECEIVER, "t_min": 0.0, "t_max": math.inf}
_CV = {"t_s": MISSING, "t_d": MISSING, "w": MISSING}
_CONDITIONS = ("never_violated", "certainly_violated", "w_min", "w_min_raw")


def _conditions(fn):
    return lambda t_ab, **p: astuple(fn(analytics.TwoInputParams(**p), t_ab))


def _expected_cv(model, cause, **p):
    receiver = analytics.TwoInputParams(**p, t_min=0.0, t_max=math.inf)
    return analytics.expected_cv_two_input(receiver, model, cause)


def _latency_budget(**p):
    budget = planner.latency_budget_digital_cause(**p)
    return budget.max_t_ab, budget.radio_budget


def _miss(model, w):
    report = planner.p_miss_unknown_edge(model, w)
    return planner.p_miss_known_edge(model, w), report.nominal_value, report.exact_value


def _slot_grid(slot, w, t):
    grid = planner.SlotGrid(slot)
    on_grid = None if w is None else planner.validate_twi_on_grid(w, grid)
    return on_grid, None if t is None else planner.quantize_to_slots(t, grid)


# An analytic op or a plan section: the params fields it reads, each with its
# default (MISSING if required, None if it has none), as config.read_params
# reads them; its output names; and fn(**fields), which returns the value of
# a single output, else one value per name (None: left out).
ANALYTIC_OPS = {
    "two_sensor_min_window": (
        {"t_s1": MISSING, "t_s2": MISSING, "tau_s1": 0.0, "tau_s2": 0.0},
        ("w_min",),
        analytics.twi_two_sensor_min_window,
    ),
    "sim_violation_n": (
        {"arrivals": MISSING, "w": MISSING},
        ("p_violation",),
        lambda arrivals, w: analytics.p_sim_violation_n(arrivals, w),
    ),
    "cv_physical_cause": (_CV, ("p_violation",), analytics.p_cv_physical_cause),
    "cv_digital_cause": (_CV, ("p_violation",), analytics.p_cv_digital_cause),
    "conditions_physical_cause": (
        {**_TWO_INPUT, "t_ab": MISSING},
        _CONDITIONS,
        _conditions(analytics.causality_conditions_physical_cause),
    ),
    "conditions_digital_cause": (
        {**_TWO_INPUT, "t_ab": MISSING},
        _CONDITIONS,
        _conditions(analytics.causality_conditions_digital_cause),
    ),
    "expected_cv_two_input": (
        {**_RECEIVER, "model": MISSING, "cause": "physical"},
        ("p_violation",),
        _expected_cv,
    ),
    "event_throughput_loss": ({"w": MISSING, "t_0": MISSING}, ("loss",), event_throughput_loss),
}

# A plan runs each section whose key is in params, in this order.
PLAN_SECTIONS = {
    "sender_budget": (
        {"t_s": MISSING, "tau_a": 0.0, "tau_s": 0.0, "sender_budget": MISSING},
        ("max_t_ab", "radio_budget"),
        _latency_budget,
    ),
    "model": (
        {"model": MISSING, "w": MISSING},
        ("p_miss_known_edge", "p_miss_nominal", "p_miss_exact"),
        _miss,
    ),
    "slot": ({"slot": MISSING, "w": None, "t": None}, ("twi_on_grid", "slot_index"), _slot_grid),
}


def _name_value_rows(cfg: ExperimentConfig, op: str, entries, spec: dict) -> list[dict]:
    """Rows of the entries, which read ``params`` as one spec: ``spec`` plus
    every entry's fields, where a field any entry requires is required."""
    for fields, _, _ in entries:
        for name, default in fields.items():
            if spec.get(name) is not MISSING:
                spec[name] = default
    params = read_params(cfg.params, spec)
    rows = []
    for fields, names, fn in entries:
        values = fn(**{name: params[name] for name in fields})
        for name, value in zip(names, values if len(names) > 1 else (values,)):
            if value is not None:
                rows.append({"scenario_id": cfg.scenario_id, "op": op, "name": name, "value": value})
    return rows


def _run_analytic(cfg: ExperimentConfig) -> list[dict]:
    op = cfg.params.get("op")
    entry = ANALYTIC_OPS.get(op) if isinstance(op, str) else None
    if entry is None:
        raise ConfigError(f"params.op: unknown analytic operation {_shown(op)}")
    return _name_value_rows(cfg, op, [entry], {"op": MISSING})


def _run_plan(cfg: ExperimentConfig) -> list[dict]:
    sections = [entry for key, entry in PLAN_SECTIONS.items() if key in cfg.params]
    rows = _name_value_rows(cfg, "plan", sections, {})
    if not rows:
        raise ConfigError("params: plan config needs sender_budget, model+w, or slot entries")
    return rows


def two_rate_chain(n: int, t_0: float = 1.0, tau: float = 0.5) -> CausalChainScenario:
    """Chain of n senders that pick transmission time t_0 or 2*t_0 with equal
    probability; action time tau < t_0 between consecutive events."""
    return CausalChainScenario(
        action_times=(tau,) * (n - 1),
        inputs=(ScenarioInput(TwoPoint(2.0 * t_0, t_0, 0.5)),) * n,
    )


def exponential_chain(n: int, tau: float = 1.0) -> CausalChainScenario:
    """Chain of n senders with i.i.d. exponential transmission times of mean
    0.5*tau; action time tau between consecutive events."""
    return CausalChainScenario(
        action_times=(tau,) * (n - 1),
        inputs=(ScenarioInput(ShiftedExponential(0.0, 2.0 / tau)),) * n,
    )


def reproduce_two_rate_curve(
    trials: int, seed: int, threads: int = 1, n_values: Sequence[int] = range(2, 11)
) -> list[dict]:
    """Exact value, pairwise bound and Monte-Carlo estimate of the chain
    no-violation probability for the two-rate reference case, W = 0."""
    rows = []
    for n in n_values:
        e = estimate_chain(
            two_rate_chain(n), TwiSpec(0.0), trials, derived_seed(seed, n), threads
        ).no_violation
        rows.append(
            {
                "N": n,
                "exact": bounds.two_rate_no_violation_exact(n),
                "bound": bounds.two_rate_pairwise_bound(n),
                "mc_estimate": e.p_hat,
                "std_err": e.std_err,
            }
        )
    return rows


def reproduce_window_sweep(
    trials: int,
    seed: int,
    threads: int = 1,
    tau: float = 1.0,
    n_values: Sequence[int] = (2, 10),
    w_over_tau: Sequence[float] = tuple(x * 0.25 for x in range(13)),
) -> list[dict]:
    """No-violation probability vs window width for i.i.d. exponential
    transmission times of mean 0.5*tau, common random numbers per curve."""
    rows = []
    for n in n_values:
        estimates = estimate_no_violation_sweep(
            exponential_chain(n, tau),
            [x * tau for x in w_over_tau],
            trials,
            derived_seed(seed, n),
            common_random_numbers=True,
            threads=threads,
        )
        for x, e in zip(w_over_tau, estimates):
            rows.append({"W_over_tau": x, "N": n, "estimate": e.p_hat, "std_err": e.std_err})
    return rows


def _run_reproduce(cfg: ExperimentConfig) -> list[dict]:
    if read_params(cfg.params, {"figure": MISSING})["figure"] == 7:
        return reproduce_two_rate_curve(cfg.trials, cfg.seed, cfg.threads)
    return reproduce_window_sweep(cfg.trials, cfg.seed, cfg.threads)


_RUNNERS = {
    "analytic": _run_analytic,
    "chain_sim": _run_chain_sim,
    "fanout_sim": _run_fanout_sim,
    "bounds_check": _run_bounds_check,
    "plan": _run_plan,
    "reproduce": _run_reproduce,
}


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Execute the experiment; returns its rows."""
    return _RUNNERS[cfg.kind](cfg)


@functools.cache
def _git_describe() -> str:
    """Git state of the twisim source tree ("" outside a repository), read
    once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except OSError:
        return ""


def _versions() -> dict:
    """Python's version, and NumPy's and SciPy's where this process has
    loaded their code, read at each write: an earlier run in the process may
    have loaded either.  Nothing is imported for them, ``platform`` neither;
    QUADPACK loads without the ``scipy`` package, so its version is then
    read from SciPy's files."""
    versions = {"python": "%d.%d.%d" % sys.version_info[:3]}
    for name in ("numpy", "scipy"):
        if name in sys.modules:
            versions[name] = sys.modules[name].__version__
    if "scipy" not in versions and _quadpack.cache_info().currsize:
        versions["scipy"] = _scipy_version()
    return versions


# The kinds that run Monte-Carlo chunks; their manifests count chunks and workers.
_MONTE_CARLO_KINDS = ("chain_sim", "fanout_sim", "bounds_check", "reproduce")


def _rewrite(path: str, text: str) -> None:
    """Write text to path in UTF-8, over the file's old bytes, then cut the
    file to length.  The bytes go out in one ``os.write`` (again on a short
    write), with no text or buffer layer, and are encoded before the file is
    opened: text that cannot be encoded creates or touches no file.  It is not
    truncated to zero first: ext4's auto_da_alloc makes the close of a file
    truncated to zero allocate its blocks and start writeback in this process.
    Only a regular file is cut; a character device or FIFO, as
    ``open(path, "w")`` allows, cannot be.  The price: if the process dies
    between the writes and the cut, a longer old file keeps its stale tail
    after the new text, where a truncated-first file would hold only a
    prefix."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_outputs(cfg: ExperimentConfig, rows, out_path: Optional[str], wall_time: float) -> None:
    """Write the CSV (stdout when no path) and, for files, the manifest."""
    csv_text = rows_to_csv(rows)
    if out_path is None:
        sys.stdout.write(csv_text)
        return
    _rewrite(out_path, csv_text)
    manifest = {
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "threads": cfg.threads,
        "git_describe": _git_describe(),
        "wall_time_s": wall_time,
        "package_version": __version__,
        # read at each write: a process may change its affinity between runs
        "cpus": _usable_cpus(),
        **_versions(),
    }
    if cfg.kind in _MONTE_CARLO_KINDS:
        # every estimator call of a run splits cfg.trials into these chunks
        chunks = -(-cfg.trials // CHUNK_SIZE)
        manifest.update(chunks=chunks, workers=_workers(cfg.threads, chunks))
    # json.dumps(manifest, indent=2, sort_keys=True) for a flat dict, but in
    # the C encoder: indent runs json's pure-Python one
    fields = json.dumps(manifest, sort_keys=True, separators=(",\n  ", ": "))
    _rewrite(out_path + ".manifest.json", "{\n  " + fields[1:-1] + "\n}\n")


def execute(cfg: ExperimentConfig, out_path: Optional[str] = None) -> list[dict]:
    """Run and persist an experiment; returns the result rows."""
    start = time.monotonic()
    rows = run_experiment(cfg)
    write_outputs(cfg, rows, out_path if out_path is not None else cfg.output, time.monotonic() - start)
    return rows

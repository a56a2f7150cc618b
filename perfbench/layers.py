"""Which twisim functions the traced run wraps, and the per-layer metrics
computed from the spans and counters of one traced pass.

Times are self times (span duration minus what child spans cover), summed
over one pass of the workload's commands at one thread.  Pool metrics come
from the same pass at two threads.  A metric whose probe is absent, or
whose counter broke, is left out of the report.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from spans import Probe, Tracer, self_times


def _config_bytes(args, kwargs, result, memo):
    return {"config.bytes": os.path.getsize(args[0])}


def _csv_bytes(args, kwargs, result, memo):
    return {"harness.csv_bytes": len(result.encode())}


def _draws(args, kwargs, result, memo):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return {"core.sample_draws": 1 if size is None else int(size)}


def _empirical_values(args, kwargs, result, memo):
    values = getattr(args[0], "values", None)  # only Empirical has values
    return {"core.validate_values": 0 if values is None else len(values)}


def _stamped(args, kwargs, result, memo):
    t, twi = args[0], args[2]
    if twi.window == 0.0:
        return {}
    # A CRN sweep stamps the same arrival array for every W: count it once.
    # Holding t in the memo keeps its id from being reused meanwhile.
    last, inverted = memo.get("stamp", (None, 0))
    if last is not t:
        # stamp() is monotone in t: only a raw-inverted pair can be violated
        inverted = int(np.count_nonzero(t[:, 1:] < t[:, :-1]))
        memo["stamp"] = (t, inverted)
    rows, n = t.shape
    return {"mc.stamp_cells": t.size, "mc.stamp_pairs": rows * (n - 1), "mc.stamp_inverted": inverted}


def _one(counter):
    return lambda args, kwargs, result, memo: {counter: 1}


LOAD = Probe("twisim.config", "load_config", "config.load", _config_bytes)
RUN = Probe("twisim.harness", "run_experiment", "harness.run")
WRITE = Probe("twisim.harness", "write_outputs", "harness.write")
GIT = Probe("twisim.harness", "_git_describe", "harness.git")
CSV = Probe("twisim.harness", "rows_to_csv", None, _csv_bytes)
RNG = Probe("twisim.core", "chunk_rng", "core.rng")
SAMPLE = Probe("twisim.core", "sample", "core.sample", _draws)
VALIDATE = Probe("twisim.core", "validate_model", "core.validate", _empirical_values)
SENSOR = Probe("twisim.inputs", "sample_sensor_detection_time", "inputs.sensor")
ARRIVALS = Probe("twisim.mc", "_chain_arrivals", "mc.arrivals")
STAMP = Probe("twisim.mc", "_ordered_pairs", "mc.stamp", _stamped)
MAP = Probe("twisim.mc", "_map_chunks", "mc.map", span_first_arg="mc.chunk")
EXPECT = Probe("twisim.analytics", "expected_cv_two_input", "analytics.expect")
RAMP = Probe("twisim.analytics", "_phase_averaged_ramp", None, _one("analytics.ramp_calls"))
MISS = Probe("twisim.planner", "p_miss_unknown_edge", "planner.miss")
ESTIMATORS = tuple(
    Probe("twisim.mc", name, "mc.estimate")
    for name in ("estimate_chain", "estimate_no_violation_sweep", "estimate_sim_violation", "estimate_cv_two_input")
)

PROBES = (LOAD, RUN, WRITE, GIT, CSV, RNG, SAMPLE, VALIDATE, SENSOR, ARRIVALS, STAMP, MAP, EXPECT, RAMP, MISS) + ESTIMATORS


@dataclass
class PassSummary:
    """Spans and counters of one traced pass, aggregated by span name."""

    self_s: Counter
    dur_s: Counter
    calls: Counter
    counts: Counter
    wall_s: float  # summed duration of the root spans, one per command

    @classmethod
    def of(cls, tracer: Tracer) -> "PassSummary":
        own = self_times(tracer.spans)
        self_s, dur_s, calls = Counter(), Counter(), Counter()
        for s in tracer.spans:
            self_s[s.name] += own[s.id]
            dur_s[s.name] += s.end - s.start
            calls[s.name] += 1
        wall = sum(s.end - s.start for s in tracer.spans if s.parent is None)
        return cls(self_s, dur_s, calls, Counter(tracer.counts), wall)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    probe: Optional[Probe]  # None: measured by the benchmark's own root span
    value: Callable[[PassSummary, PassSummary, int], float]


def _self(span):
    return lambda t1, t2, k: t1.self_s[span]


def _calls(span):
    return lambda t1, t2, k: t1.calls[span]


def _count(counter):
    return lambda t1, t2, k: t1.counts[counter]


METRICS = (
    LayerMetric("cli.self_s", "s", "lower", None, _self("cli.main")),
    LayerMetric("config.load_s", "s", "lower", LOAD, _self("config.load")),
    LayerMetric("config.bytes", "bytes", "lower", LOAD, _count("config.bytes")),
    LayerMetric("harness.run_s", "s", "lower", RUN, _self("harness.run")),
    LayerMetric("harness.write_s", "s", "lower", WRITE, _self("harness.write")),
    LayerMetric("harness.git_s", "s", "lower", GIT, _self("harness.git")),
    LayerMetric("harness.csv_bytes", "bytes", "lower", CSV, _count("harness.csv_bytes")),
    LayerMetric("core.rng_s", "s", "lower", RNG, _self("core.rng")),
    LayerMetric("core.rng_calls", "count", "lower", RNG, _calls("core.rng")),
    LayerMetric("core.sample_s", "s", "lower", SAMPLE, _self("core.sample")),
    LayerMetric("core.sample_calls", "count", "lower", SAMPLE, _calls("core.sample")),
    LayerMetric("core.sample_draws", "count", "lower", SAMPLE, _count("core.sample_draws")),
    LayerMetric("core.validate_s", "s", "lower", VALIDATE, _self("core.validate")),
    LayerMetric("core.validate_calls", "count", "lower", VALIDATE, _calls("core.validate")),
    LayerMetric("core.validate_values", "count", "lower", VALIDATE, _count("core.validate_values")),
    LayerMetric("inputs.sensor_s", "s", "lower", SENSOR, _self("inputs.sensor")),
    LayerMetric("inputs.sensor_calls", "count", "lower", SENSOR, _calls("inputs.sensor")),
    LayerMetric("mc.arrivals_s", "s", "lower", ARRIVALS, _self("mc.arrivals")),
    LayerMetric("mc.stamp_s", "s", "lower", STAMP, _self("mc.stamp")),
    LayerMetric("mc.stamp_calls", "count", "lower", STAMP, _calls("mc.stamp")),
    LayerMetric("mc.stamp_cells", "count", "lower", STAMP, _count("mc.stamp_cells")),
    LayerMetric(
        "mc.stamp_useful_frac", "frac", "higher", STAMP,
        lambda t1, t2, k: _ratio(t1.counts["mc.stamp_inverted"], t1.counts["mc.stamp_pairs"]),
    ),
    LayerMetric(
        "mc.reduce_s", "s", "lower", MAP,
        lambda t1, t2, k: t1.self_s["mc.estimate"] + t1.self_s["mc.map"] + t1.self_s["mc.chunk"],
    ),
    LayerMetric("mc.chunks", "count", "lower", MAP, _calls("mc.chunk")),
    LayerMetric(
        "mc.pool_busy_frac", "frac", "higher", MAP,
        lambda t1, t2, k: _ratio(t2.dur_s["mc.chunk"], k * t2.dur_s["mc.map"]),
    ),
    LayerMetric(
        "mc.pool_wait_s", "s", "lower", MAP,
        lambda t1, t2, k: k * t2.dur_s["mc.map"] - t2.dur_s["mc.chunk"],
    ),
    LayerMetric(
        "mc.scaling_eff", "frac", "higher", MAP,
        lambda t1, t2, k: _ratio(t1.dur_s["mc.map"], k * t2.dur_s["mc.map"]),
    ),
    LayerMetric("analytics.expect_s", "s", "lower", EXPECT, _self("analytics.expect")),
    LayerMetric("analytics.expect_calls", "count", "lower", EXPECT, _calls("analytics.expect")),
    LayerMetric("analytics.ramp_calls", "count", "lower", RAMP, _count("analytics.ramp_calls")),
    LayerMetric("planner.miss_s", "s", "lower", MISS, _self("planner.miss")),
    LayerMetric("planner.miss_calls", "count", "lower", MISS, _calls("planner.miss")),
)


def pass_metrics(t1: PassSummary, t2: PassSummary, threads: int, missing: set[str]) -> dict[str, float]:
    """Per-layer values of one traced round; metrics whose probe key is in
    missing (absent function or broken counter) are left out."""
    return {
        m.name: m.value(t1, t2, threads)
        for m in METRICS
        if m.probe is None or m.probe.key not in missing
    }

"""The functions the benchmark's traced run wraps are all still there.

``perfbench/run.py --trace 1`` wraps the twisim functions named in
``perfbench/layers.py`` and leaves out every metric whose function is gone
or whose counter fails on a changed signature.  This test runs the commands
of both workloads, small, under the same probes, and checks that none is
absent or broken and that every per-layer metric of ``BENCHMARK.json`` is
computed.  Every command must also load its config and write its outputs
through the probed functions, once each, so that a path around them cannot
read as a saving.  It only reads ``perfbench/``.
"""

import json
import math
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
from spans import Installed, Tracer  # noqa: E402

from twisim import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# bench.* metrics come from the benchmark's own timing, not from a pass's spans
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"] if not m["name"].startswith("bench.")}

TRACE = [0.004, 0.006, 0.0055, 0.012, 0.008]
CONFIGS = {
    "fig7.json": ("reproduce", {"kind": "reproduce", "params": {"figure": 7}}),
    "fig8.json": ("reproduce", {"kind": "reproduce", "params": {"figure": 8}}),
    "fanout.json": (
        "simulate",
        {
            "kind": "fanout_sim",
            "twi": {"window": 0.25, "offset": "random"},
            "scenario": {
                "inputs": [
                    {"type": "sensor", "mode": "synchronous", "t_s": 0.02, "tau_s": 0.001, "sensor_id": "s0"},
                    {"type": "link", "model": {"kind": "empirical", "values": TRACE}},
                ]
            },
        },
    ),
    "analytic.json": (
        "analytic",
        {
            "kind": "analytic",
            "params": {
                "op": "expected_cv_two_input",
                "cause": "physical",
                "model": {"kind": "uniform", "low": 0.01, "high": 0.2},
                "w": 0.1,
                "t_s": 0.05,
                "tau_s": 0.01,
                "tau_a": 0.02,
            },
        },
    ),
    "plan.json": ("plan", {"kind": "plan", "params": {"model": {"kind": "empirical", "values": TRACE}, "w": 0.1}}),
}


def _traced_pass(tmp_path, threads):
    tracer = Tracer()
    installed = Installed(tracer, layers.PROBES)
    try:
        for i, (name, (command, cfg)) in enumerate(CONFIGS.items()):
            path = tmp_path / name
            path.write_text(json.dumps(cfg))
            argv = [command, str(path), "--trials", "4096", "--threads", str(threads)]
            argv += ["--out", str(tmp_path / f"out-{i}-t{threads}.csv")]
            tracer.run = f"t{threads}/{i}"
            assert tracer.call("cli.main", cli.main, (argv,), {}) == 0, argv
    finally:
        installed.restore()
    return installed, tracer


def test_every_command_loads_and_writes_through_the_probed_functions(tmp_path):
    for threads in (1, 2):
        _, tracer = _traced_pass(tmp_path, threads)
        runs = [f"t{threads}/{i}" for i in range(len(CONFIGS))]
        for name in ("config.load", "harness.write"):
            spans = Counter(s.run for s in tracer.spans if s.name == name)
            assert spans == Counter(runs), name
        outputs = list(tmp_path.glob(f"out-*-t{threads}.csv"))
        assert len(outputs) == len(CONFIGS)
        assert tracer.counts["harness.csv_bytes"] == sum(p.stat().st_size for p in outputs) > 0


def test_every_probe_of_the_traced_run_finds_its_function(tmp_path):
    installed, tracer = _traced_pass(tmp_path, 1)
    _, tracer2 = _traced_pass(tmp_path, 2)
    assert installed.absent == set()
    assert tracer.broken == set() and tracer2.broken == set()
    metrics = layers.pass_metrics(
        layers.PassSummary.of(tracer), layers.PassSummary.of(tracer2), 2, installed.absent | tracer.broken
    )
    assert set(metrics) == PER_LAYER
    assert all(math.isfinite(v) for v in metrics.values())
    assert tracer.counts["core.sample_draws"] > 0 and tracer.counts["mc.stamp_cells"] > 0

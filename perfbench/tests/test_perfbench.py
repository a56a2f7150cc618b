"""Tests of the benchmark's own logic.  Run with:

    python3 -m pytest -q perfbench/tests
"""

import argparse
import itertools
import json
import os
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Installed, Probe, Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0, "r"),
        Span(2, 1, "a", 1.0, 4.0, "r"),
        Span(3, 2, "a.inner", 2.0, 3.0, "r"),
        Span(4, 1, "b", 6.0, 7.5, "r"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 10.0 - 3.0 - 1.5, 2: 3.0 - 1.0, 3: 1.0, 4: 1.5})


def test_self_time_counts_overlapping_children_once():
    # two pool threads run chunks of the same parent at once; one chunk
    # outlives the parent's recorded end and is clipped to it
    spans = [
        Span(1, None, "map", 0.0, 10.0, "r"),
        Span(2, 1, "chunk", 1.0, 6.0, "r"),
        Span(3, 1, "chunk", 2.0, 5.0, "r"),
        Span(4, 1, "chunk", 8.0, 12.0, "r"),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_links_pool_work_to_its_parent():
    tracer = Tracer()

    def parent():
        pid = tracer.current()
        worker = threading.Thread(target=tracer.call, args=("chunk", lambda: None, (), {}), kwargs={"parent": pid})
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer.call("child", lambda: None, (), {})

    tracer.call("root", parent, (), {})
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent is None
    assert by_name["chunk"].parent == by_name["root"].id
    assert by_name["child"].parent == by_name["root"].id


class FakeReference:
    def __init__(self, times):
        self.times = iter(times)
        self.cpus = []

    def cpu_s(self, cpus):
        self.cpus.append(cpus)
        return next(self.times)


def test_normalised_time_divides_each_step_by_the_reference_around_it():
    cpu = frozenset({min(os.sched_getaffinity(0))})
    # the host runs at half speed during the second step: its reference shows it
    ref = FakeReference([0.5, 0.5, 1.0, 1.0, 0.5, 0.5])
    timings = run.Timings()
    for t in (run.PassTime(2.0, 1.0), run.PassTime(4.0, 2.0), run.PassTime(9.0, 4.0)):
        timings.timed("t1", ref, cpu, lambda: t)
    assert timings.normalised("t1") == pytest.approx(2.0 * reference.NOMINAL_CPU_S)
    assert timings.median("t1", "wall_s") == 4.0
    assert ref.cpus == [cpu] * 6


def test_end_to_end_metrics_match_benchmark_json():
    class FakeRunner:
        commands = ["one command"]

        def run_pass(self, threads):
            return run.PassTime(wall_s=0.01, cpu_s=0.01)

    ref = FakeReference(itertools.repeat(0.1))
    setup = run.Timings()
    setup.timed("import", ref, frozenset({min(os.sched_getaffinity(0))}), lambda: run.PassTime(0.5, 0.4))
    metrics = run.run_untraced(FakeRunner(), ref, argparse.Namespace(seconds=0.01), 2, setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec}


def test_reference_child_answers_and_ends():
    cpus = frozenset(os.sched_getaffinity(0))
    with reference.Reference() as ref:
        times = [ref.cpu_s(cpus), ref.cpu_s(frozenset({min(cpus)}))]
        proc = ref.proc
    assert all(t > 0 for t in times)
    assert proc.returncode == 0


def test_consistency_flags_a_changed_estimate():
    c = checks.Consistency()
    assert c.check(0, ("0.5", "0.25")) is None
    assert c.check(0, ("0.5", "0.25")) is None
    assert "1 estimate value" in c.check(0, ("0.5", "0.2500001"))


def test_fig7_check_flags_an_estimate_off_the_reference():
    good = "N,exact,bound,mc_estimate,std_err\n2,0.75,0.75,0.7501,0.0004\n3,0.5,0.5,0.4998,0.0005\n"
    assert checks.fig7_errors(good) == []
    bad = good.replace("0.4998", "0.4960")
    assert len(checks.fig7_errors(bad)) == 1


def test_checker_flags_a_corrupted_estimate_column(tmp_path):
    import twisim.cli as cli

    commands = workloads.generate("mc_mix", workloads.DEFAULT_SEED, tmp_path)
    fig7 = next(i for i, c in enumerate(commands) if c.check == "fig7")
    runner = run.Runner(cli, commands, tmp_path)
    out = tmp_path / "fig7.csv"
    argv = [*commands[fig7].argv, "--trials", "20000", "--threads", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    assert runner._check(fig7, commands[fig7], out, threads=1) == []
    assert runner._check(fig7, commands[fig7], out, threads=1) == []

    rows = out.read_text().splitlines()
    fields = rows[1].split(",")
    fields[3] = repr(float(fields[3]) + 1e-9)  # mc_estimate of N=2
    rows[1] = ",".join(fields)
    out.write_text("\n".join(rows) + "\n")
    problems = runner._check(fig7, commands[fig7], out, threads=1)
    assert any("differ from the first run" in p for p in problems)


def test_digest_changes_with_any_estimate():
    a = checks.digest({0: ("0.1", "0.2"), 1: ("0.3",)})
    assert a == checks.digest({1: ("0.3",), 0: ("0.1", "0.2")})
    assert a != checks.digest({0: ("0.1", "0.2"), 1: ("0.30000000000000004",)})


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_byte_deterministic_in_its_seed(name):
    first = workloads.config_files(name, 11)
    assert first == workloads.config_files(name, 11)
    assert first != workloads.config_files(name, 12)


def test_generated_inputs_have_the_stated_shape():
    fanout = json.loads(workloads.config_files("mc_mix", 3)["fanout.json"])
    links = [i for i in fanout["scenario"]["inputs"] if i["type"] == "link"]
    assert [len(i["model"]["values"]) for i in links] == [workloads.FANOUT_TRACE_LEN] * workloads.FANOUT_LINKS
    assert len(workloads.config_files("oracle_grid", 3)) == 5 * len(workloads.ORACLE_W_GRID) * 3


def test_probes_patch_every_module_that_looks_a_function_up():
    import twisim.cli  # noqa: F401  (loads every module the CLI uses)
    import twisim.core
    import twisim.mc

    original = twisim.core.sample
    tracer = Tracer()
    installed = Installed(tracer, (layers.SAMPLE,))
    try:
        assert twisim.core.sample is not original
        assert twisim.mc.sample is twisim.core.sample
    finally:
        installed.restore()
    assert twisim.core.sample is original and twisim.mc.sample is original


def test_missing_function_or_broken_counter_reads_as_absent():
    import twisim.cli  # noqa: F401
    import twisim.core

    gone = Probe("twisim.mc", "_no_such_function", "mc.gone")

    def broken_count(args, kwargs, result, memo):
        raise IndexError("signature changed")

    validate = Probe("twisim.core", "validate_model", "core.validate", broken_count)
    tracer = Tracer()
    installed = Installed(tracer, (gone, validate))
    try:
        twisim.core.validate_model(twisim.core.Constant(1.0))
    finally:
        installed.restore()
    assert installed.absent == {gone.key}
    assert tracer.broken == {validate.key}

    summary = layers.PassSummary.of(tracer)
    metrics = layers.pass_metrics(summary, summary, 2, {validate.key, layers.STAMP.key})
    assert "core.validate_s" not in metrics and "mc.stamp_s" not in metrics
    assert "core.sample_s" in metrics


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    layer_names = [m.name for m in layers.METRICS] + ["bench.trace_overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    units = {m.name: m.unit for m in layers.METRICS}
    assert all(m["unit"] == units.get(m["name"], "s") for m in spec["per_layer"])
    expected = json.loads(run.EXPECTED.read_text())
    assert sorted(expected) == sorted(workloads.NAMES)

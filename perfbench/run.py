"""End-to-end and per-layer benchmark of the twisim command-line paths.

Run from the root of a twisim checkout:

    python3 perfbench/run.py --workload mc_mix --seed 1 --seconds 50 --trace 0

One process, closed loop: the benchmark calls ``twisim.cli.main`` in-process
on generated config files, each command writing its CSV and manifest to a
file, and starts the next command when the previous one returns.  A pass
runs each of the workload's commands once; passes alternate between one
thread and two (never more than the CPUs available) until ``--seconds`` have
elapsed.  Every command's outputs are checked.

``--trace 0`` prints the end-to-end metrics, CPU times normalised by a
reference computation run between passes (``reference.py``); ``--trace 1``
wraps the calls into each twisim module, records spans in memory, prints the
per-layer metrics plus the tracing overhead and dumps the spans under
``.perfbench/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import checks
import layers
import reference
import workloads
from reference import Reference
from spans import Installed, Span, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected_sha256.json"

SETUP_REPEATS = 3
WARMUP_TRIALS = 32768
# oracle_grid lists 3 operations x 16 W values per model: this stride warms
# every (model, operation) pair once.  MC commands differ in kind and are
# warmed one by one.
ORACLE_WARMUP_STRIDE = len(workloads.ORACLE_W_GRID)
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.process_time(); "
    "import twisim.cli; print(time.process_time() - t0)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and of the children it
    has waited for (``git describe``).

    A paravirtualised guest kernel leaves out the time the hypervisor gave
    our CPUs to other guests, which wall time counts in full."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class PassTime:
    """Wall and CPU seconds of one timed step: the commands of a pass, or an
    import of twisim.cli."""

    wall_s: float = 0.0
    cpu_s: float = 0.0


@contextmanager
def pinned(cpus: frozenset):
    """Run the calling thread, and the threads and processes it starts, on
    cpus only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


@dataclass
class Timings:
    """Times of repeated steps, each with its CPU time over the mean CPU time
    of the reference runs just before and just after it on the same CPUs."""

    steps: dict = field(default_factory=dict)  # label -> list of PassTime
    ratios: dict = field(default_factory=dict)  # label -> list of float
    refs: list = field(default_factory=list)

    def timed(self, label: str, ref: Reference, cpus: frozenset, step) -> None:
        with pinned(cpus):
            before = ref.cpu_s(cpus)
            t = step()
            after = ref.cpu_s(cpus)
        self.steps.setdefault(label, []).append(t)
        self.ratios.setdefault(label, []).append(t.cpu_s / ((before + after) / 2))
        self.refs += [before, after]

    def normalised(self, label: str) -> float:
        """Median CPU seconds of the label's steps at the reference's
        nominal speed."""
        return _median(self.ratios[label]) * reference.NOMINAL_CPU_S

    def median(self, label: str, attr: str) -> float:
        return _median([getattr(t, attr) for t in self.steps[label]])


def import_once() -> PassTime:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return PassTime(time.perf_counter() - start, float(proc.stdout.split()[-1]))


def measure_setup(ref: Reference, one: frozenset) -> Timings:
    """CPU seconds to import twisim.cli (NumPy, SciPy included), each in a
    fresh interpreter on one CPU."""
    setup = Timings()
    for _ in range(SETUP_REPEATS):
        setup.timed("import", ref, one, import_once)
    return setup


class Runner:
    """Runs passes of a workload's commands and checks every output."""

    def __init__(self, cli, commands: list[workloads.Command], workdir: Path) -> None:
        self.cli = cli
        self.commands = commands
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.consistency = checks.Consistency()

    def _invoke(self, argv: list[str], tracer) -> object:
        try:
            if tracer is None:
                return self.cli.main(argv)
            return tracer.call("cli.main", self.cli.main, (argv,), {})
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash is a failed command; keep measuring
            traceback.print_exc(file=sys.stderr)
            return "exception"

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.errors.extend(problems)

    def run_pass(self, threads: int, tracer: Optional[Tracer] = None, tag: str = "") -> PassTime:
        """Run every command once; return the summed command times."""
        total = PassTime()
        for i, cmd in enumerate(self.commands):
            out = self.workdir / f"out-{i}-t{threads}.csv"
            argv = [*cmd.argv, "--threads", str(threads), "--out", str(out)]
            if tracer is not None:
                tracer.run = f"{tag}/{i}"
            self.attempted += 1
            start, cpu_start = time.perf_counter(), cpu_seconds()
            rc = self._invoke(argv, tracer)
            total.cpu_s += cpu_seconds() - cpu_start
            total.wall_s += time.perf_counter() - start
            if rc != 0:
                self.fail([f"{' '.join(argv)}: exit {rc}"])
                continue
            problems = self._check(i, cmd, out, threads)
            if problems:
                self.fail([f"{' '.join(argv)}: {p}" for p in problems])
        return total

    def _check(self, i: int, cmd: workloads.Command, out: Path, threads: int) -> list[str]:
        try:
            text = out.read_text(encoding="utf-8")
            manifest = Path(f"{out}.manifest.json").read_text(encoding="utf-8")
            values = checks.read_columns(text, cmd.columns)
        except (OSError, ValueError) as exc:
            return [str(exc)]
        problems = checks.manifest_errors(manifest, threads) + checks.probability_errors(values)
        if cmd.check == "fig7":
            problems += checks.fig7_errors(text)
        mismatch = self.consistency.check(i, values)
        if mismatch:
            problems.append(mismatch)
        return problems

    def warm_up(self, threads2: int) -> None:
        """Fill caches and start lazy set-up before timing; outputs at the
        reduced trial count are not compared."""
        oracle = all(cmd.check == "oracle" for cmd in self.commands)
        for cmd in self.commands[::ORACLE_WARMUP_STRIDE if oracle else 1]:
            for threads in (1, threads2):
                out = self.workdir / "warmup.csv"
                argv = [*cmd.argv, "--trials", str(WARMUP_TRIALS), "--threads", str(threads), "--out", str(out)]
                self.attempted += 1
                rc = self._invoke(argv, None)
                if rc != 0:
                    self.fail([f"{' '.join(argv)}: exit {rc}"])


_median = statistics.median


def _last_round(start: float, deadline: float) -> bool:
    """True when stopping now ends nearer the deadline than one more round
    as long as the one begun at start would."""
    now = time.perf_counter()
    return now + (now - start) / 2 >= deadline


def measure_untraced(runner: Runner, ref: Reference, seconds: float, threads2: int) -> Timings:
    """Rounds of a pass at one thread, pinned to one CPU, and one at
    threads2 on every CPU, in alternating order."""
    every = frozenset(os.sched_getaffinity(0))
    one = frozenset({min(every)})
    passes = Timings()
    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        start = time.perf_counter()
        order = ("t1", "t2") if rnd % 2 == 0 else ("t2", "t1")
        for label in order:
            threads, cpus = (1, one) if label == "t1" else (threads2, every)
            passes.timed(label, ref, cpus, lambda: runner.run_pass(threads))
        rnd += 1
        if _last_round(start, deadline):
            return passes


@dataclass
class TracedRun:
    rounds: list = field(default_factory=list)  # (one-thread, two-thread) PassSummary
    untraced_s: list = field(default_factory=list)  # one-thread pass walls
    traced_s: list = field(default_factory=list)
    missing: set = field(default_factory=set)  # probe keys absent or broken
    passes: list = field(default_factory=list)  # spans of every traced pass


def measure_traced(runner: Runner, seconds: float, threads2: int) -> TracedRun:
    """Rounds of an untraced and a traced pass at one thread, in alternating
    order, plus a traced pass at two threads."""
    result = TracedRun()

    def traced_pass(threads: int, tag: str) -> tuple[float, layers.PassSummary]:
        tracer = Tracer()
        installed = Installed(tracer, layers.PROBES)
        try:
            wall = runner.run_pass(threads, tracer, tag).wall_s
        finally:
            installed.restore()
        result.missing.update(installed.absent, tracer.broken)
        result.passes.append({"pass": tag, "threads": threads, "wall_s": wall, "spans": [list(s) for s in tracer.spans]})
        return wall, layers.PassSummary.of(tracer)

    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        start = time.perf_counter()
        if rnd % 2 == 0:
            result.untraced_s.append(runner.run_pass(1).wall_s)
        wall, t1 = traced_pass(1, f"r{rnd}/t1")
        result.traced_s.append(wall)
        if rnd % 2 == 1:
            result.untraced_s.append(runner.run_pass(1).wall_s)
        _, t2 = traced_pass(threads2, f"r{rnd}/t{threads2}")
        result.rounds.append((t1, t2))
        rnd += 1
        if _last_round(start, deadline):
            return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _row(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<24} {value:>14.6g} {unit:<6} {note}".rstrip()


def run_untraced(runner: Runner, ref: Reference, args, threads2: int, setup: Timings) -> dict:
    passes = measure_untraced(runner, ref, args.seconds, threads2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(runner.commands)
    metrics = {
        "norm_cpu_s_t1": _metric(passes.normalised("t1"), "s"),
        "norm_cpu_s_t2": _metric(passes.normalised("t2"), "s"),
        "setup_s": _metric(setup.normalised("import"), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(f"end-to-end metrics (norm_cpu_s_* and setup_s: median CPU seconds at the reference's "
          f"nominal {reference.NOMINAL_CPU_S} s, see reference.py):")
    for label, threads in (("t1", 1), ("t2", threads2)):
        where = "one CPU" if label == "t1" else "every CPU"
        note = f"median of {len(passes.steps[label])} passes of {n} command(s), --threads {threads} on {where}"
        print(_row(f"norm_cpu_s_{label}", metrics[f"norm_cpu_s_{label}"]["value"], "s", note))
        print(_row(f"cpu_s_{label}", passes.median(label, "cpu_s"), "s", f"CPU time as measured, {note}"))
        print(_row(f"wall_s_{label}", passes.median(label, "wall_s"), "s", f"wall time, {note}"))
    print(_row("ref_cpu_s", _median(passes.refs), "s", f"median of {len(passes.refs)} reference runs around passes"))
    note = f"median of {len(setup.steps['import'])} fresh interpreters importing twisim.cli"
    print(_row("setup_s", metrics["setup_s"]["value"], "s", note))
    print(_row("setup_cpu_s", setup.median("import", "cpu_s"), "s", f"CPU time as measured, {note}"))
    print(_row("setup_wall_s", setup.median("import", "wall_s"), "s", f"wall time of the whole child interpreter, {note}"))
    print(_row("setup_ref_cpu_s", _median(setup.refs), "s", f"median of {len(setup.refs)} reference runs around the imports"))
    print(_row("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory of this process"))
    return metrics


def run_traced(runner: Runner, args, threads2: int, info: dict) -> dict:
    run = measure_traced(runner, args.seconds, threads2)
    per_round = [layers.pass_metrics(t1, t2, threads2, run.missing) for t1, t2 in run.rounds]
    metrics = {
        m.name: _metric(_median([r[m.name] for r in per_round]), m.unit)
        for m in layers.METRICS
        if m.name in per_round[0]
    }
    traced, untraced = _median(run.traced_s), _median(run.untraced_s)
    metrics["bench.trace_overhead_s"] = _metric(traced - untraced, "s")
    absent = [m.name for m in layers.METRICS if m.name not in per_round[0]]

    print(f"per-layer metrics (median of {len(per_round)} traced rounds; times are self times per pass):")
    for name, m in metrics.items():
        print(_row(name, m["value"], m["unit"]))
    if absent:
        print(f"  absent (function gone or counter broken): {', '.join(absent)}")
    print(f"tracing overhead: traced {traced:.4f} s - untraced {untraced:.4f} s per pass at --threads 1")

    wall = _median([t1.wall_s for t1, _ in run.rounds])
    shares = {}
    for t1, _ in run.rounds:
        for name, v in t1.self_s.items():
            shares.setdefault(name, []).append(v)
    print("self-time share of the traced --threads 1 pass, by span (mc.reduce_s = mc.estimate + mc.map + mc.chunk):")
    for name, v in sorted(((n, _median(v) / wall) for n, v in shares.items()), key=lambda kv: -kv[1]):
        print(f"  {name:<24} {100 * v:6.2f} %")

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "machine": info, "span_fields": list(Span._fields), "passes": run.passes}, fh)
    print(f"spans written to {dump.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twisim" / "cli.py").is_file():
        print(f"error: no twisim sources at {SRC}; run the benchmark inside a twisim checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The manifest's `git describe` must not look for a repository above the
    # checkout: that would read outside it and describe an unrelated tree.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    info = machine_info(args.seed)
    with Reference() as ref:
        return benchmark(args, info, ref)


def benchmark(args, info: dict, ref: Reference) -> int:
    setup = measure_setup(ref, frozenset({min(os.sched_getaffinity(0))})) if args.trace == 0 else None

    import twisim
    import twisim.cli as cli

    if Path(twisim.__file__).resolve().parent != SRC / "twisim":
        print(f"error: imported twisim from {twisim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    threads2 = min(2, info["nproc"])
    print(f"twisim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
        runner = Runner(cli, workloads.generate(args.workload, args.seed, Path(tmp)), Path(tmp))
        runner.warm_up(threads2)
        if args.trace:
            metrics = run_traced(runner, args, threads2, info)
        else:
            metrics = run_untraced(runner, ref, args, threads2, setup)

    found = checks.digest(runner.consistency.first)
    print(f"estimate sha256: {found}")
    if args.seed == workloads.DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload)
        if found != expected:
            runner.fail([f"estimate sha256 {found} != recorded {expected} at seed {args.seed}"])

    info["loadavg_end"] = list(os.getloadavg())
    print(_row("error_rate", runner.failed / runner.attempted, "frac", f"{runner.failed} failed of {runner.attempted} commands"))
    for err in runner.errors[:20]:
        print(f"  check failed: {err}")
    print(f"machine: {json.dumps(info)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

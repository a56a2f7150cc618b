"""A fixed reference computation that gauges how fast the CPU runs right now.

On a shared host the work one CPU second buys moves by tens of percent, and
not alike on every vCPU: each one flips between a fast and a slow state
every few seconds, as the host's other guests come and go.  The benchmark
pins each timed step to a set of CPUs, runs this reference on the same CPUs
just before and just after it, and reports the steps at the reference's
nominal speed::

    normalised = median over steps of (step CPU time / mean reference CPU time around it) * NOMINAL_CPU_S

The reference belongs to the benchmark, not to twisim: a change to twisim
moves the step's time and leaves the reference alone.  It mixes the two
kinds of work the workloads do, an interpreter loop over small objects and
NumPy draws, scans and comparisons over arrays larger than the CPU caches.
It runs in a child process of its own so that its arrays do not count
toward the benchmark's peak memory.

Run as a script it is that child: each line on standard input names CPUs;
the child runs the computation once on each and answers with the mean CPU
seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

LOOP_STEPS = 600_000
ARRAY_ROWS = 250_000
ARRAY_COLS = 4
ARRAY_REPEATS = 3

# About the reference's CPU seconds on the host the benchmark was calibrated
# on (2 vCPUs of a shared Intel Xeon host, Python 3.11, NumPy 2.4).  It only
# scales normalised times and must stay fixed for results to compare.
NOMINAL_CPU_S = 0.15


def work() -> float:
    """One run of the fixed computation; returns a checksum."""
    import numpy as np

    total = 0.0
    cells = {}
    for i in range(LOOP_STEPS):
        cells[i & 1023] = total
        total += i * 0.5
    rng = np.random.default_rng(12345)
    inverted = 0
    for _ in range(ARRAY_REPEATS):
        t = np.cumsum(rng.exponential(size=(ARRAY_ROWS, ARRAY_COLS)), axis=1)
        t -= rng.random(ARRAY_ROWS)[:, None]
        inverted += int(np.count_nonzero(np.ceil(t[:, 1:] / 0.3) < np.ceil(t[:, :-1] / 0.3)))
    return total + inverted + len(cells)


class Reference:
    """Client of the reference child process; use as a context manager."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def cpu_s(self, cpus: frozenset) -> float:
        """Mean CPU seconds of one run of the reference on each of cpus."""
        self.proc.stdin.write(" ".join(map(str, sorted(cpus))) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    expected = work()
    for line in sys.stdin:
        times = []
        for cpu in map(int, line.split()):
            os.sched_setaffinity(0, {cpu})
            start = time.process_time()
            checksum = work()
            times.append(time.process_time() - start)
            if checksum != expected:
                raise SystemExit("reference computation gave a different result")
        print(sum(times) / len(times), flush=True)


if __name__ == "__main__":
    serve()

"""Output checks that count toward the benchmark's error rate.

Only the estimate columns are compared and hashed, never ``std_err`` or the
``ci_*`` columns, so a change to interval construction does not trip them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from typing import Optional, Sequence


def read_columns(csv_text: str, columns: Sequence[str]) -> tuple[str, ...]:
    """Values of the given columns, row by row, exactly as written."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if not rows:
        raise ValueError("no result rows")
    missing = [c for c in columns if c not in rows[0]]
    if missing:
        raise ValueError(f"missing column(s) {missing}")
    return tuple(row[c] for row in rows for c in columns)


# Closed forms and quadrature may leave [0, 1] by rounding: seed code gives
# 1.0000000000000002 for some constant-model expected_cv_two_input configs.
PROBABILITY_SLACK = 1e-12


def probability_errors(values: Sequence[str]) -> list[str]:
    """Every checked column of every workload holds a probability."""
    errors = []
    for v in values:
        try:
            p = float(v)
        except ValueError:
            errors.append(f"not a number: {v!r}")
            continue
        if not -PROBABILITY_SLACK <= p <= 1.0 + PROBABILITY_SLACK:
            errors.append(f"probability out of [0, 1]: {v}")
    return errors


def fig7_errors(csv_text: str) -> list[str]:
    """Figure 7 estimates must lie within 5 standard errors of (N+1)/2^N."""
    errors = []
    for row in csv.DictReader(io.StringIO(csv_text)):
        try:
            n = int(row["N"])
            p, se = float(row["mc_estimate"]), float(row["std_err"])
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"unreadable figure 7 row {row}: {exc!r}")
            continue
        exact = (n + 1) / 2.0**n
        if not abs(p - exact) <= 5.0 * se:
            errors.append(f"N={n}: estimate {p} is not within 5 SE ({se}) of {exact}")
    return errors


def manifest_errors(manifest_text: str, threads: int) -> list[str]:
    try:
        manifest = json.loads(manifest_text)
    except json.JSONDecodeError as exc:
        return [f"manifest is not JSON: {exc}"]
    if manifest.get("threads") != threads:
        return [f"manifest threads {manifest.get('threads')!r} != {threads}"]
    wall = manifest.get("wall_time_s")
    if not isinstance(wall, float) or not math.isfinite(wall):
        return [f"manifest wall_time_s is not a finite float: {wall!r}"]
    return []


class Consistency:
    """Remembers each command's first estimate values and flags any later
    run (other thread count or repeat) whose values differ."""

    def __init__(self) -> None:
        self.first: dict[int, tuple[str, ...]] = {}

    def check(self, command: int, values: tuple[str, ...]) -> Optional[str]:
        ref = self.first.setdefault(command, values)
        if values == ref:
            return None
        diff = sum(a != b for a, b in zip(values, ref)) + abs(len(values) - len(ref))
        return f"command {command}: {diff} estimate value(s) differ from the first run"


def digest(first: dict[int, tuple[str, ...]]) -> str:
    """SHA-256 over every command's estimate values, in command order."""
    h = hashlib.sha256()
    for command in sorted(first):
        h.update(f"{command}:{','.join(first[command])}\n".encode())
    return h.hexdigest()

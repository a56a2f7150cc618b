"""Temporal window of integration (TWI): timestamping and event relations.

The timestamping function maps an arrival time t to the integer window index
ceil((t - offset) / W).  Windows are left-open right-closed, so a boundary
time belongs to the earlier window.  W = 0 is a distinguished "no window"
mode in which raw arrival times are compared directly.  ``stamp`` is the
checked scalar rule; ``stamp_array`` applies the same rule to arrays and is
the one place the Monte-Carlo estimators stamp.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from twisim.core import Duration, ParameterError, TimePoint, ensure_duration, ensure_time


@dataclass(frozen=True)
class TwiSpec:
    """Window width plus offset policy.

    ``offset`` is the fixed window phase in [0, W); ``None`` means the offset
    is drawn uniformly in [0, W) once per trial and shared by all inputs of
    the receiver.
    """

    window: Duration
    offset: Optional[Duration] = 0.0

    def __post_init__(self) -> None:
        w = ensure_duration(self.window, "TwiSpec.window")
        if self.offset is not None:
            off = ensure_duration(self.offset, "TwiSpec.offset")
            if w == 0.0:
                if off != 0.0:
                    raise ParameterError("W = 0 requires a fixed offset of 0")
            elif off >= w:
                raise ParameterError(f"offset must satisfy 0 <= offset < W, got {off} >= {w}")
        elif self.window == 0.0:
            raise ParameterError("W = 0 cannot use a random offset")

    @property
    def random_offset(self) -> bool:
        return self.offset is None


class Relation(enum.Enum):
    HAPPENED_BEFORE = "happened_before"
    SIMULTANEOUS_WITH = "simultaneous_with"
    HAPPENED_AFTER = "happened_after"


def stamp(t: TimePoint, w: Duration, offset: Duration = 0.0) -> int:
    """Integer timestamp of arrival time t for window width w > 0."""
    t = ensure_time(t, "t")
    w = ensure_duration(w, "w")
    offset = ensure_duration(offset, "offset")
    if w == 0.0:
        raise ParameterError("stamp requires W > 0; compare raw times when W = 0")
    if offset >= w:
        raise ParameterError(f"offset must satisfy 0 <= offset < W, got {offset} >= {w}")
    quotient = (t - offset) / w
    if not math.isfinite(quotient):
        raise ParameterError(f"window {w} is too small relative to t={t}")
    return math.ceil(quotient)


def stamp_array(t: np.ndarray, w: Duration, offset: Union[Duration, np.ndarray] = 0.0) -> np.ndarray:
    """Elementwise ceil((t - offset) / w) as floats; ``offset`` is a scalar or
    an array that broadcasts against ``t``.  With w = 0 it returns ``t``
    itself, so comparing stamps compares raw times.  Nothing is checked here:
    callers pass a validated window and offsets in [0, w).  The result is
    built in one array, in place: fresh temporaries of Monte-Carlo chunk size
    cost more in page faults than the arithmetic."""
    if w == 0.0:
        return t
    s = np.subtract(t, offset, dtype=float)
    s /= w
    return np.ceil(s, out=s)


def relate(t_i: TimePoint, t_j: TimePoint, twi: TwiSpec, offset: Optional[Duration] = None) -> Relation:
    """Relation of two events at one receiver under the given TWI.

    ``offset`` overrides the spec's fixed offset (e.g. a sampled value); it is
    required when the spec uses a random offset.
    """
    if offset is None:
        if twi.random_offset:
            raise ParameterError("random-offset TwiSpec needs an explicitly resolved offset")
        offset = twi.offset
    if twi.window == 0.0:
        a, b = ensure_time(t_i, "t_i"), ensure_time(t_j, "t_j")
        if a == b:
            return Relation.SIMULTANEOUS_WITH
        return Relation.HAPPENED_BEFORE if a < b else Relation.HAPPENED_AFTER
    s_i = stamp(t_i, twi.window, offset)
    s_j = stamp(t_j, twi.window, offset)
    if s_i == s_j:
        return Relation.SIMULTANEOUS_WITH
    return Relation.HAPPENED_BEFORE if s_i < s_j else Relation.HAPPENED_AFTER


def detect_causality_violation(
    arrival_cause: TimePoint,
    arrival_effect: TimePoint,
    twi: TwiSpec,
    offset: Optional[Duration] = None,
) -> bool:
    """True iff the effect is perceived strictly before its cause.

    Ground truth: the event behind ``arrival_cause`` caused the event behind
    ``arrival_effect``.  Perceiving both in one window is not a violation.
    """
    return relate(arrival_effect, arrival_cause, twi, offset) is Relation.HAPPENED_BEFORE


def detect_simultaneity_violation(
    arrivals: Sequence[TimePoint],
    twi: TwiSpec,
    offset: Optional[Duration] = None,
) -> bool:
    """True iff arrivals that should be simultaneous get differing timestamps."""
    if len(arrivals) == 0:
        raise ParameterError("arrivals must be nonempty")
    if twi.window == 0.0:
        first = ensure_time(arrivals[0], "arrival")
        return any(ensure_time(t, "arrival") != first for t in arrivals[1:])
    if offset is None:
        if twi.random_offset:
            raise ParameterError("random-offset TwiSpec needs an explicitly resolved offset")
        offset = twi.offset
    stamps = [stamp(t, twi.window, offset) for t in arrivals]
    return any(s != stamps[0] for s in stamps[1:])


def event_throughput_loss(w: Duration, t_0: Duration) -> float:
    """Temporal-resolution penalty W / T_0 of a window relative to an input's
    minimal inter-event time T_0."""
    w = ensure_duration(w, "w")
    t_0 = ensure_duration(t_0, "t_0")
    if t_0 == 0.0:
        raise ParameterError("t_0 must be > 0")
    return w / t_0

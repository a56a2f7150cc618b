"""Temporal window of integration (TWI): timestamping.

The timestamping function maps an arrival time t to the integer window index
ceil((t - offset) / W).  Windows are left-open right-closed, so a boundary
time belongs to the earlier window.  W = 0 is a distinguished "no window"
mode in which raw arrival times are compared directly.  ``stamp`` is the
checked scalar rule; ``stamp_array`` applies the same rule to arrays and is
the one place the Monte-Carlo estimators stamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from twisim.core import Duration, ParameterError, TimePoint, ensure_duration, np


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


def stamp(t: TimePoint, w: Duration, offset: Duration = 0.0) -> int:
    """Integer timestamp of arrival time t for window width w > 0."""
    t = ensure_duration(t, "t")
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


def event_throughput_loss(w: Duration, t_0: Duration) -> float:
    """Temporal-resolution penalty W / T_0 of a window relative to an input's
    minimal inter-event time T_0."""
    w = ensure_duration(w, "w")
    t_0 = ensure_duration(t_0, "t_0")
    if t_0 == 0.0:
        raise ParameterError("t_0 must be > 0")
    loss = w / t_0
    if math.isinf(loss):
        raise ParameterError(f"window {w} is too large relative to t_0={t_0}")
    return loss

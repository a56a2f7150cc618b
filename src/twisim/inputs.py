"""Timing models for sensory inputs.

A sensor integrates for T_s before it reliably produces data; a physical
event becomes detectable tau_s after it occurs.  Synchronous sensors run a
periodic window grid of period T_s, so detection additionally waits a phase
offset phi_s in [0, T_s).  Asynchronous sensors are event-triggered
(phi_s = 0) but cannot restart a running window.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from twisim.core import Duration, ParameterError, TimePoint, _as_draws, ensure_duration, ensure_time


class SensorMode(enum.Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


@dataclass(frozen=True)
class SensorSpec:
    """Sensor with integration window t_s, detectability delay tau_s and a
    data size of d_s bits per detection."""

    t_s: Duration
    tau_s: Duration = 0.0
    mode: SensorMode = SensorMode.SYNCHRONOUS
    d_s: int = 1
    sensor_id: Optional[str] = None

    def __post_init__(self) -> None:
        if ensure_duration(self.t_s, "SensorSpec.t_s") == 0.0:
            raise ParameterError("SensorSpec.t_s must be > 0")
        ensure_duration(self.tau_s, "SensorSpec.tau_s")
        if int(self.d_s) < 1:
            raise ParameterError(f"SensorSpec.d_s must be >= 1, got {self.d_s}")


@dataclass(frozen=True)
class DetectionRecord:
    source_index: int
    detected: bool
    arrival: TimePoint  # valid only when detected


def sample_sensor_detection_time(
    spec: SensorSpec,
    rng: np.random.Generator,
    size: Optional[int] = None,
):
    """Delay from physical event to its sensing event: tau_s + phi_s + t_s.

    Asynchronous sensors have phi_s = 0 (deterministic); synchronous sensors
    draw phi_s uniform in [0, t_s), giving support [tau_s+t_s, tau_s+2*t_s).
    """
    base = spec.tau_s + spec.t_s
    if spec.mode is SensorMode.ASYNCHRONOUS:
        return base if size is None else np.full(size, base)
    return _as_draws(base + rng.uniform(0.0, spec.t_s, size=size), size)


def max_event_rate(spec: SensorSpec) -> float:
    """Peak data rate d_s / t_s in bits per second."""
    return spec.d_s / spec.t_s


def detect_stream(
    spec: SensorSpec,
    physical_event_times: Sequence[TimePoint],
    window_phase: Duration = 0.0,
) -> list[DetectionRecord]:
    """Map a strictly increasing sequence of physical events to detections.

    Synchronous: windows form the periodic grid phase + k*t_s; an event is
    detected at the end of the first full window starting at or after the
    instant it becomes detectable.  Co-window events are all reported at the
    window end.

    Asynchronous: an event becoming detectable while no window runs triggers
    a window and is detected t_s later; one maturing during a running window
    is dropped (detected=False).
    """
    times = [ensure_time(t, "physical event time") for t in physical_event_times]
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise ParameterError("physical_event_times must be strictly increasing")
    window_phase = float(window_phase)

    records: list[DetectionRecord] = []
    if spec.mode is SensorMode.SYNCHRONOUS:
        for i, t in enumerate(times):
            detectable = t + spec.tau_s
            k = math.ceil((detectable - window_phase) / spec.t_s)
            start = window_phase + k * spec.t_s
            records.append(DetectionRecord(i, True, start + spec.t_s))
    else:
        busy_until = -math.inf
        for i, t in enumerate(times):
            detectable = t + spec.tau_s
            if detectable >= busy_until:
                busy_until = detectable + spec.t_s
                records.append(DetectionRecord(i, True, busy_until))
            else:
                records.append(DetectionRecord(i, False, math.nan))
    return records


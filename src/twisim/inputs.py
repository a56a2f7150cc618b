"""Timing models for sensory inputs.

A sensor integrates for T_s before it reliably produces data; a physical
event becomes detectable tau_s after it occurs.  Synchronous sensors run a
periodic window grid of period T_s, so detection additionally waits a phase
offset phi_s in [0, T_s).  Asynchronous sensors are event-triggered
(phi_s = 0).  Like a link, a sensor is a model plus a delay: its phase
model, uniform on [0, T_s) or the constant 0, plus tau_s + T_s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from twisim.core import Constant, Duration, ParameterError, UniformRange, _shown, ensure_duration, sample


class SensorMode(enum.Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


@dataclass(frozen=True)
class SensorSpec:
    """Sensor with integration window t_s and detectability delay tau_s.

    ``mode`` may be given as its value, such as ``"asynchronous"``, and is
    stored as the enum.  ``model`` (the phase phi_s) and ``delay`` (tau_s +
    t_s) are derived, and not compared: a detection time is a draw of
    ``model`` plus ``delay``.
    """

    t_s: Duration
    tau_s: Duration = 0.0
    mode: SensorMode = SensorMode.SYNCHRONOUS
    sensor_id: Optional[str] = None

    def __post_init__(self) -> None:
        if ensure_duration(self.t_s, "SensorSpec.t_s") == 0.0:
            raise ParameterError("SensorSpec.t_s must be > 0")
        ensure_duration(self.tau_s, "SensorSpec.tau_s")
        if self.sensor_id is not None and not isinstance(self.sensor_id, str):
            raise ParameterError(f"SensorSpec.sensor_id must be a string or None, got {_shown(self.sensor_id)}")
        try:
            mode = SensorMode(self.mode)
        except ValueError:
            choices = " or ".join(repr(m.value) for m in SensorMode)
            raise ParameterError(f"SensorSpec.mode must be {choices}, got {_shown(self.mode)}") from None
        object.__setattr__(self, "mode", mode)
        asynchronous = mode is SensorMode.ASYNCHRONOUS
        object.__setattr__(self, "model", Constant(0.0) if asynchronous else UniformRange(0.0, self.t_s))
        object.__setattr__(self, "delay", self.tau_s + self.t_s)


def sample_sensor_detection_time(
    spec: SensorSpec,
    rng: np.random.Generator,
    size: Optional[int] = None,
    out: Optional[np.ndarray] = None,
):
    """Delay from physical event to its sensing event: tau_s + phi_s + t_s.

    Asynchronous sensors have phi_s = 0 (deterministic); synchronous sensors
    draw phi_s uniform in [0, t_s), giving support [tau_s+t_s, tau_s+2*t_s).
    A float for size=None, else ``size`` draws as an ndarray: ``out`` (a
    contiguous float64 array), written in place, if given, else a new one.
    """
    draws = sample(spec.model, rng, 1 if size is None else size, out)
    draws += spec.delay
    return float(draws[0]) if size is None else draws

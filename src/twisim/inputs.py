"""Scenario inputs: a transmission-time model plus a fixed delay.

A link's delay is the action/propagation time separating the source event
from the send.  A sensor integrates for T_s before it reliably produces
data; a physical event becomes detectable tau_s after it occurs.
Synchronous sensors run a periodic window grid of period T_s, so detection
additionally waits a phase offset phi_s in [0, T_s).  Asynchronous sensors
are event-triggered (phi_s = 0).  So a sensor is its phase model, uniform on
[0, T_s) or the constant 0, plus the delay tau_s + T_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from twisim.core import (
    Constant,
    Duration,
    ParameterError,
    TransmissionTimeModel,
    UniformRange,
    _shown,
    ensure_duration,
    np,
    sample,
    validate_model,
)

SENSOR_MODES = ("synchronous", "asynchronous")


@dataclass(frozen=True)
class ScenarioInput:
    """One input of a scenario: its arrival is a draw of ``model`` plus
    ``delay``.  ``sensor_id`` labels a sensor; a scenario's inputs must not
    share one."""

    model: TransmissionTimeModel
    delay: Duration = 0.0
    sensor_id: Optional[str] = None

    def __post_init__(self) -> None:
        validate_model(self.model)
        ensure_duration(self.delay, "ScenarioInput.delay")
        if self.sensor_id is not None and not isinstance(self.sensor_id, str):
            raise ParameterError(f"sensor_id must be a string or None, got {_shown(self.sensor_id)}")


def sensor(
    t_s: Duration, tau_s: Duration = 0.0, mode: str = "synchronous", sensor_id: Optional[str] = None
) -> ScenarioInput:
    """The input of a sensor with integration window t_s > 0, detectability
    delay tau_s and ``mode`` "synchronous" or "asynchronous"."""
    if ensure_duration(t_s, "sensor t_s") == 0.0:
        raise ParameterError("sensor t_s must be > 0")
    ensure_duration(tau_s, "sensor tau_s")
    if mode not in SENSOR_MODES:
        raise ParameterError(f"sensor mode must be 'synchronous' or 'asynchronous', got {_shown(mode)}")
    phase = Constant(0.0) if mode == "asynchronous" else UniformRange(0.0, t_s)
    return ScenarioInput(phase, tau_s + t_s, sensor_id)


def sample_sensor_detection_time(
    inp: ScenarioInput,
    rng: np.random.Generator,
    size: Optional[int] = None,
    out: Optional[np.ndarray] = None,
):
    """Delay from source event to arrival: a draw of the input's model plus
    its delay.  For a sensor that is phi_s + tau_s + t_s, on
    [tau_s + t_s, tau_s + 2 t_s) when synchronous.  A float for size=None,
    else ``size`` draws as an ndarray: ``out`` (a contiguous float64 array),
    written in place, if given, else a new one."""
    draws = sample(inp.model, rng, 1 if size is None else size, out)
    draws += inp.delay
    return float(draws[0]) if size is None else draws

"""Closed-form violation probabilities, conditions and minimal-window sizes.

Two-input receiver, one synchronous sensor plus one digital link.  Two
causal directions are covered:

* physical cause: a physical event is sensed directly and also triggers a
  remote digital transmission; violation means the digital copy is perceived
  strictly before the sensing event.
* digital cause: a digital event triggers the physical event; violation
  means the sensing event is perceived strictly before the digital one.

Durations are nonnegative except the action time tau_a in the digital-cause
conditions, where a predictive sender can make it zero or negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from twisim.core import (
    Duration,
    Empirical,
    ParameterError,
    TimePoint,
    TransmissionTimeModel,
    ensure_duration,
    np,
)


def twi_two_sensor_min_window(
    t_s1: Duration, t_s2: Duration, tau_s1: Duration, tau_s2: Duration
) -> Duration:
    """Smallest window that keeps two asynchronous sensors simultaneous.

    Sensor 1 must activate first (tau_s1 <= tau_s2); the window has to cover
    both the first sensor's integration and the second detection's lag.
    """
    t_s1 = ensure_duration(t_s1, "t_s1")
    t_s2 = ensure_duration(t_s2, "t_s2")
    tau_s1 = ensure_duration(tau_s1, "tau_s1")
    tau_s2 = ensure_duration(tau_s2, "tau_s2")
    if tau_s1 > tau_s2:
        raise ParameterError("sensor 1 must activate first: reorder so tau_s1 <= tau_s2")
    return max(t_s1, tau_s2 - tau_s1 + t_s2)


def _ramp(gap: float, w: float) -> float:
    """Probability that a uniformly placed window edge lands inside a gap:
    0 for gap <= 0, else min(1, gap / W), with W = 0 a step at 0."""
    if gap <= 0.0:
        return 0.0
    return 1.0 if w == 0.0 else min(1.0, gap / w)


def p_sim_violation_n(arrival_times: Sequence[TimePoint], w: Duration) -> float:
    """min{1, (max - min) / W} over the arrival set; 0 for a singleton."""
    if len(arrival_times) == 0:
        raise ParameterError("arrival_times must be nonempty")
    w = ensure_duration(w, "w")
    times = [ensure_duration(t, "arrival") for t in arrival_times]
    return _ramp(max(times) - min(times), w)


def p_cv_physical_cause(t_s: TimePoint, t_d: TimePoint, w: Duration) -> float:
    """Pr of perceiving the digital copy before the sensing event, given the
    registration times and a uniform window offset."""
    t_s = ensure_duration(t_s, "t_s")
    t_d = ensure_duration(t_d, "t_d")
    return _ramp(t_s - t_d, ensure_duration(w, "w"))


def p_cv_digital_cause(t_s: TimePoint, t_d: TimePoint, w: Duration) -> float:
    """Mirror image of p_cv_physical_cause with the roles swapped."""
    return p_cv_physical_cause(t_d, t_s, w)


@dataclass(frozen=True)
class TwoInputParams:
    """Parameters of the sensing-plus-digital receiver.

    t_min/t_max bound the support of the link transmission time; w is the
    window width.  tau_s is read as the largest propagation delay and tau_a
    as the smallest action time when sizing the minimal window.
    """

    t_s: Duration
    tau_s: Duration
    tau_a: float
    t_min: Duration
    t_max: Duration
    w: Duration

    def __post_init__(self) -> None:
        if ensure_duration(self.t_s, "t_s") == 0.0:
            raise ParameterError("t_s must be > 0")
        ensure_duration(self.tau_s, "tau_s")
        if not math.isfinite(float(self.tau_a)):
            raise ParameterError("tau_a must be finite")
        t_min = ensure_duration(self.t_min, "t_min")
        if not self.t_max >= t_min:  # a NaN t_max too
            raise ParameterError("requires t_min <= t_max")
        ensure_duration(self.w, "w")


@dataclass(frozen=True)
class CausalityConditionReport:
    never_violated: bool
    certainly_violated: bool
    w_min: Duration
    w_min_raw: float  # may be negative when mitigation is already guaranteed


def _check_t_ab(p: TwoInputParams, t_ab: float) -> float:
    t_ab = ensure_duration(t_ab, "t_ab")
    if not p.t_min <= t_ab <= p.t_max:
        raise ParameterError(f"t_ab={t_ab} outside support [{p.t_min}, {p.t_max}]")
    return t_ab


def _check_cause(p: TwoInputParams, cause: str) -> None:
    """Reject an unknown cause direction, and a negative tau_a for the
    physical one: a physical event cannot trigger a send before it occurs."""
    if cause not in ("physical", "digital"):
        raise ParameterError(f"unknown cause direction: {cause!r}")
    if cause == "physical" and p.tau_a < 0.0:
        raise ParameterError("tau_a must be >= 0 for the physical-cause direction")


def causality_conditions_physical_cause(p: TwoInputParams, t_ab: Duration) -> CausalityConditionReport:
    """Never/certain-violation conditions when a physical event triggers the
    digital transmission, plus the minimal mitigating window."""
    _check_cause(p, "physical")
    t_ab = _check_t_ab(p, t_ab)
    never = t_ab > 2.0 * p.t_s + p.tau_s - p.tau_a
    certain = p.w < p.t_s + p.tau_s - t_ab - p.tau_a
    raw = 2.0 * p.t_s + p.tau_s - p.t_min - p.tau_a
    return CausalityConditionReport(never, certain, max(0.0, raw), raw)


def causality_conditions_digital_cause(p: TwoInputParams, t_ab: Duration) -> CausalityConditionReport:
    """Never/certain-violation conditions when a digital event triggers the
    physical one.  The certain check uses the worst case phi_s = 0."""
    t_ab = _check_t_ab(p, t_ab)
    never = p.t_max < p.t_s + p.tau_a + p.tau_s
    certain = p.w < t_ab - p.t_s - p.tau_a - p.tau_s
    raw = p.t_max - p.t_s - p.tau_a - p.tau_s
    return CausalityConditionReport(never, certain, max(0.0, raw), raw)


# ---------------------------------------------------------------------------
# Quadrature oracle: expected violation probability over phi_s and the link
# ---------------------------------------------------------------------------


def _phase_averaged_ramp(a: float, period: float, w: float) -> float:
    """E_phi[min(1, max(0, a + phi) / w)] with phi uniform in [0, period).

    For w = 0 the ramp degenerates to a step at 0.
    """
    if period <= 0.0:
        raise ParameterError("period must be > 0")
    if w == 0.0:
        # fraction of phi in [0, period) with a + phi > 0
        return min(1.0, max(0.0, (period + min(a, 0.0)) / period)) if a > -period else 0.0

    # the ramp's antiderivative, 0 below 0, x^2 / 2w up to w and x - w/2
    # past it, at both ends; inline, since quadrature calls this per value
    hi = a + period
    if hi <= 0.0:
        hi = 0.0
    elif hi <= w:
        hi = hi * hi / (2.0 * w)
    else:
        hi = hi - w / 2.0
    if a <= 0.0:
        lo = 0.0
    elif a <= w:
        lo = a * a / (2.0 * w)
    else:
        lo = a - w / 2.0
    return (hi - lo) / period


def _phase_averaged_ramps(a: np.ndarray, period: float, w: float) -> np.ndarray:
    """_phase_averaged_ramp of each element of a, by the same IEEE operations
    in the same order; period > 0."""
    if w == 0.0:
        step = np.minimum(1.0, np.maximum(0.0, (period + np.minimum(a, 0.0)) / period))
        return np.where(a > -period, step, 0.0)

    def antiderivative(x):
        with np.errstate(over="ignore"):  # x * x of an x past w, which where() drops
            return np.where(x <= 0.0, 0.0, np.where(x <= w, x * x / (2.0 * w), x - w / 2.0))

    return (antiderivative(a + period) - antiderivative(a)) / period


def expected_cv_two_input(
    p: TwoInputParams,
    model: TransmissionTimeModel,
    cause: Literal["physical", "digital"] = "physical",
) -> float:
    """Expected causality-violation probability over uniform phi_s, uniform
    window offset and the link transmission-time model.

    physical cause: gap = (tau_s + phi + t_s) - (tau_a + T)
    digital  cause: gap = T - (tau_s + tau_a + phi + t_s)
    """
    _check_cause(p, cause)
    t_s, w = p.t_s, p.w  # locals: inner runs once per atom or quadrature node
    # a trace's values go through the ramp as one array, in one call
    vector = isinstance(model, Empirical)
    ramp = _phase_averaged_ramps if vector else _phase_averaged_ramp
    if cause == "physical":
        base = p.tau_s + p.t_s - p.tau_a

        def inner(t):
            return ramp(base - t, t_s, w)

    else:
        base = p.tau_s + p.tau_a + p.t_s

        def inner(t):
            # gap = t - base - phi is decreasing in phi; average the ramp of
            # (t - base - phi) over phi in [0, t_s) by symmetry phi -> t_s - phi
            return ramp(t - base - t_s, t_s, w)

    expected = model.average(inner(model.array).tolist()) if vector else model.expect(inner)
    # the ramp's float sums can overshoot 1 by an ulp; a probability cannot
    return min(1.0, expected)

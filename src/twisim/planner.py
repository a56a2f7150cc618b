"""System-level calculators: latency budgets, window-miss probabilities and
slot-grid quantization for frame-based radio systems."""

from __future__ import annotations

import math
from dataclasses import dataclass

from twisim.core import (
    Duration,
    ParameterError,
    TimePoint,
    TransmissionTimeModel,
    ensure_duration,
)
from twisim.twi import stamp


class InfeasibleBudgetError(ParameterError):
    """Sender budget exceeds the total allowable transmission time."""


@dataclass(frozen=True)
class LatencyBudget:
    max_t_ab: Duration
    sender_budget_t_a: Duration
    radio_budget: Duration


@dataclass(frozen=True)
class SlotGrid:
    slot: Duration

    def __post_init__(self) -> None:
        if ensure_duration(self.slot, "SlotGrid.slot") == 0.0:
            raise ParameterError("SlotGrid.slot must be > 0")


def latency_budget_digital_cause(
    t_s: Duration, tau_a: Duration, tau_s: Duration, sender_budget: Duration
) -> LatencyBudget:
    """Split the largest violation-free transmission time t_s + tau_a + tau_s
    between sender processing and the radio link."""
    t_s = ensure_duration(t_s, "t_s")
    tau_a = ensure_duration(tau_a, "tau_a")
    tau_s = ensure_duration(tau_s, "tau_s")
    sender_budget = ensure_duration(sender_budget, "sender_budget")
    max_t_ab = t_s + tau_a + tau_s
    if sender_budget > max_t_ab:
        raise InfeasibleBudgetError(
            f"sender budget {sender_budget} exceeds the allowable total {max_t_ab}"
        )
    return LatencyBudget(max_t_ab, sender_budget, max_t_ab - sender_budget)


def p_miss_known_edge(t_model: TransmissionTimeModel, w: Duration) -> float:
    """Pr[T > W] when the sender knows the window start and transmits at it."""
    return t_model.tail(ensure_duration(w, "w"))


@dataclass(frozen=True)
class MissProbabilityReport:
    """Window-miss probability when the sender does not know the window start.

    ``nominal_value`` is the textbook ratio min(1, E[T]/W), which silently
    assumes T never exceeds W; ``exact_value`` clamps the per-draw ratio and
    is correct for any model.  They coincide when T <= W almost surely.
    """

    nominal_value: float
    exact_value: float


def p_miss_unknown_edge(t_model: TransmissionTimeModel, w: Duration) -> MissProbabilityReport:
    """Miss probability for a transmission starting uniformly within the
    window; reports the nominal E[T]/W ratio and the clamped exact value."""
    w = ensure_duration(w, "w")
    if w == 0.0:
        raise ParameterError("w must be > 0")
    nominal = min(1.0, t_model.mean() / w)
    return MissProbabilityReport(nominal, t_model.clamped_ratio(w))


def quantize_to_slots(t: TimePoint, grid: SlotGrid) -> int:
    """Slot index of time t; boundary times fall in the earlier slot."""
    return stamp(t, grid.slot)


def validate_twi_on_grid(w: Duration, grid: SlotGrid) -> bool:
    """True iff the window is an integer multiple of the slot (rel. tol 1e-9)."""
    w = ensure_duration(w, "w")
    if w == 0.0:
        return True
    ratio = w / grid.slot
    if math.isinf(ratio):
        raise ParameterError(f"window {w} is too large relative to slot {grid.slot}")
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)

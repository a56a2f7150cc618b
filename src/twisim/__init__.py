"""Timestamping, simultaneity and causality analysis for perceptive wireless networks.

The package models a receiver (e.g. a base station) with multiple sensing and
digital inputs, applies a temporal window of integration (TWI) to timestamp
incoming events, and provides closed-form probabilities, bounds and
Monte-Carlo estimators for simultaneity/causality violation.
"""

from twisim.core import (
    Constant,
    Empirical,
    ShiftedExponential,
    TransmissionTimeModel,
    TwoPoint,
    UniformRange,
    sample,
)
from twisim.twi import (
    Relation,
    TwiSpec,
    detect_causality_violation,
    detect_simultaneity_violation,
    event_throughput_loss,
    relate,
    stamp,
)

__all__ = [
    "Constant",
    "Empirical",
    "ShiftedExponential",
    "TransmissionTimeModel",
    "TwoPoint",
    "UniformRange",
    "sample",
    "Relation",
    "TwiSpec",
    "detect_causality_violation",
    "detect_simultaneity_violation",
    "event_throughput_loss",
    "relate",
    "stamp",
]

__version__ = "0.1.0"

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
from twisim.twi import TwiSpec, event_throughput_loss, stamp

__all__ = [
    "Constant",
    "Empirical",
    "ShiftedExponential",
    "TransmissionTimeModel",
    "TwoPoint",
    "UniformRange",
    "sample",
    "TwiSpec",
    "event_throughput_loss",
    "stamp",
]

__version__ = "0.1.0"

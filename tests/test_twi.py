import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twisim.core import ParameterError
from twisim.twi import (
    Relation,
    TwiSpec,
    detect_causality_violation,
    detect_simultaneity_violation,
    event_throughput_loss,
    relate,
    stamp,
    stamp_array,
)

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
widths = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


def test_stamp_boundary_belongs_to_earlier_window():
    # left-open right-closed: (0, W] is window 1
    assert stamp(0.010, 0.010) == 1
    assert stamp(0.010001, 0.010) == 2
    assert stamp(0.0, 0.010) == 0
    assert stamp(0.005, 0.010) == 1


def test_stamp_offset_shifts_grid():
    assert stamp(0.010, 0.010, offset=0.005) == 1
    assert stamp(0.015, 0.010, offset=0.005) == 1
    assert stamp(0.0151, 0.010, offset=0.005) == 2


def test_stamp_rejects_zero_window():
    with pytest.raises(ParameterError):
        stamp(1.0, 0.0)


def test_stamp_rejects_offset_outside_window():
    with pytest.raises(ParameterError):
        stamp(1.0, 0.5, offset=0.5)


def test_twispec_validation():
    TwiSpec(0.0)  # raw-time mode is fine
    TwiSpec(1.0, offset=None)  # random offset
    with pytest.raises(ParameterError):
        TwiSpec(-1.0)
    with pytest.raises(ParameterError):
        TwiSpec(0.0, offset=None)
    with pytest.raises(ParameterError):
        TwiSpec(0.0, offset=0.5)
    with pytest.raises(ParameterError):
        TwiSpec(1.0, offset=1.0)


def test_relate_window_mode():
    twi = TwiSpec(0.010)
    assert relate(0.004, 0.006, twi) is Relation.SIMULTANEOUS_WITH
    assert relate(0.004, 0.016, twi) is Relation.HAPPENED_BEFORE
    assert relate(0.016, 0.004, twi) is Relation.HAPPENED_AFTER


def test_relate_raw_mode():
    twi = TwiSpec(0.0)
    assert relate(1.0, 1.0, twi) is Relation.SIMULTANEOUS_WITH
    assert relate(1.0, 1.0000001, twi) is Relation.HAPPENED_BEFORE


def test_relate_random_offset_needs_resolved_value():
    twi = TwiSpec(1.0, offset=None)
    with pytest.raises(ParameterError):
        relate(0.1, 0.2, twi)
    assert relate(0.1, 0.2, twi, offset=0.0) is Relation.SIMULTANEOUS_WITH


def test_causality_violation_requires_effect_strictly_earlier():
    twi = TwiSpec(0.010)
    # same window: simultaneity, not a violation
    assert not detect_causality_violation(0.004, 0.006, twi)
    assert not detect_causality_violation(0.006, 0.004, twi)
    # effect stamped one window before its cause
    assert detect_causality_violation(0.014, 0.006, twi)
    # effect later: in order
    assert not detect_causality_violation(0.004, 0.016, twi)


def test_simultaneity_violation():
    twi = TwiSpec(0.010)
    assert not detect_simultaneity_violation([0.001, 0.004, 0.009], twi)
    assert detect_simultaneity_violation([0.001, 0.004, 0.011], twi)
    assert not detect_simultaneity_violation([0.5], twi)
    raw = TwiSpec(0.0)
    assert detect_simultaneity_violation([1.0, 1.0, 1.0000001], raw)
    assert not detect_simultaneity_violation([1.0, 1.0], raw)
    with pytest.raises(ParameterError):
        detect_simultaneity_violation([], twi)


def test_event_throughput_loss():
    assert event_throughput_loss(0.020, 0.010) == 2.0
    assert event_throughput_loss(0.0, 0.010) == 0.0
    with pytest.raises(ParameterError):
        event_throughput_loss(0.020, 0.0)


@given(t1=times, t2=times, w=widths)
@settings(max_examples=200, deadline=None)
def test_stamp_monotone_in_time(t1, t2, w):
    if t1 > t2:
        t1, t2 = t2, t1
    assert stamp(t1, w) <= stamp(t2, w)


@given(
    ts=st.lists(times, min_size=1, max_size=20),
    w=widths,
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_stamp_array_matches_scalar_stamp(ts, w, frac):
    off = frac * w
    assume(off < w)
    assume(all(math.isfinite((t - off) / w) for t in ts))
    assert stamp_array(np.array(ts), w, off).tolist() == [stamp(t, w, off) for t in ts]
    t = np.array(ts)
    assert stamp_array(t, 0.0, 0.0) is t


def test_stamp_array_broadcasts_a_per_row_offset():
    t = np.array([[0.5, 1.0], [0.5, 1.0]])
    off = np.array([[0.0], [0.6]])
    assert stamp_array(t, 1.0, off).tolist() == [[1.0, 1.0], [0.0, 1.0]]


@given(t=times, w=widths, k=st.integers(min_value=0, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_stamp_shift_by_whole_windows(t, w, k):
    assert stamp(t + k * w, w) == pytest.approx(stamp(t, w) + k, abs=1)


@given(t1=times, t2=times, w=st.one_of(st.just(0.0), widths))
@settings(max_examples=200, deadline=None)
def test_relation_trichotomy_and_antisymmetry(t1, t2, w):
    twi = TwiSpec(w)
    fwd = relate(t1, t2, twi)
    rev = relate(t2, t1, twi)
    if fwd is Relation.SIMULTANEOUS_WITH:
        assert rev is Relation.SIMULTANEOUS_WITH
    elif fwd is Relation.HAPPENED_BEFORE:
        assert rev is Relation.HAPPENED_AFTER
    else:
        assert rev is Relation.HAPPENED_BEFORE


def test_offset_sweep_fraction_matches_spread_over_window():
    # W >= spread: the fraction of offsets separating the arrivals is spread/W
    arrivals = np.array([1.0, 2.0, 6.0])
    w = 10.0
    offsets = (np.arange(100_000) + 0.5) / 100_000 * w
    stamps = np.ceil((arrivals[None, :] - offsets[:, None]) / w)
    frac = np.mean((stamps != stamps[:, :1]).any(axis=1))
    assert abs(frac - (arrivals.max() - arrivals.min()) / w) <= 1e-3

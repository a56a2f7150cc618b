import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twisim.core import ParameterError
from twisim.twi import TwiSpec, event_throughput_loss, stamp, stamp_array

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


def test_event_throughput_loss():
    assert event_throughput_loss(0.020, 0.010) == 2.0
    assert event_throughput_loss(0.0, 0.010) == 0.0
    with pytest.raises(ParameterError):
        event_throughput_loss(0.020, 0.0)


def test_event_throughput_loss_that_overflows_is_a_parameter_error():
    # w / t_0 is inf; the largest finite ratio still passes
    with pytest.raises(ParameterError, match="window 1e\\+300 is too large relative to t_0=1e-300"):
        event_throughput_loss(1e300, 1e-300)
    assert event_throughput_loss(sys.float_info.max, 1.0) == sys.float_info.max


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


def test_offset_sweep_fraction_matches_spread_over_window():
    # W >= spread: the fraction of offsets separating the arrivals is spread/W
    arrivals = np.array([1.0, 2.0, 6.0])
    w = 10.0
    offsets = (np.arange(100_000) + 0.5) / 100_000 * w
    stamps = np.ceil((arrivals[None, :] - offsets[:, None]) / w)
    frac = np.mean((stamps != stamps[:, :1]).any(axis=1))
    assert abs(frac - (arrivals.max() - arrivals.min()) / w) <= 1e-3

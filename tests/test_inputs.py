import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisim.core import ParameterError, chunk_rng
from twisim.inputs import (
    SensorMode,
    SensorSpec,
    detect_stream,
    max_event_rate,
    sample_sensor_detection_time,
)

SYNC = SensorSpec(t_s=0.010, tau_s=0.007, mode=SensorMode.SYNCHRONOUS)
ASYNC = SensorSpec(t_s=0.010, tau_s=0.007, mode=SensorMode.ASYNCHRONOUS)


def test_spec_validation():
    with pytest.raises(ParameterError):
        SensorSpec(t_s=0.0)
    with pytest.raises(ParameterError):
        SensorSpec(t_s=0.010, tau_s=-1.0)
    with pytest.raises(ParameterError):
        SensorSpec(t_s=0.010, d_s=0)


def test_async_detection_time_is_deterministic():
    assert sample_sensor_detection_time(ASYNC, chunk_rng(0, 0)) == pytest.approx(0.017)
    arr = sample_sensor_detection_time(ASYNC, chunk_rng(0, 0), size=5)
    assert np.allclose(arr, 0.017)


def test_sync_detection_time_support_and_mean():
    n = 1_000_000
    draws = sample_sensor_detection_time(SYNC, chunk_rng(3, 0), size=n)
    assert draws.min() >= SYNC.tau_s + SYNC.t_s
    assert draws.max() < SYNC.tau_s + 2.0 * SYNC.t_s
    # mean tau_s + 1.5*t_s = 22 ms
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 0.022) <= 4.0 * se


def test_max_event_rate():
    assert max_event_rate(SensorSpec(t_s=0.010, d_s=800)) == pytest.approx(80_000.0)


def test_sync_stream_detects_on_grid():
    # grid 0, 10ms, 20ms...; event at t=1ms detectable at 8ms -> window
    # [10ms, 20ms] -> arrival 20ms
    recs = detect_stream(SYNC, [0.001])
    assert recs[0].detected
    assert recs[0].arrival == pytest.approx(0.020)
    # detectable exactly on a grid edge starts that window
    recs = detect_stream(SYNC, [0.003])
    assert recs[0].arrival == pytest.approx(0.020)


def test_sync_stream_co_window_events_share_arrival():
    recs = detect_stream(SYNC, [0.0035, 0.004, 0.011])
    assert [r.detected for r in recs] == [True, True, True]
    assert recs[0].arrival == pytest.approx(0.030)
    assert recs[1].arrival == pytest.approx(0.030)
    assert recs[2].arrival == pytest.approx(0.030)


def test_sync_stream_respects_phase():
    recs = detect_stream(SYNC, [0.001], window_phase=0.008)
    assert recs[0].arrival == pytest.approx(0.018)


def test_async_stream_drops_events_during_running_window():
    recs = detect_stream(ASYNC, [0.0, 0.005, 0.012])
    # windows: [0.007, 0.017); second detectable at 0.012 -> dropped;
    # third detectable at 0.019 -> new window, arrival 0.029
    assert recs[0].detected and recs[0].arrival == pytest.approx(0.017)
    assert not recs[1].detected
    assert recs[2].detected and recs[2].arrival == pytest.approx(0.029)


def test_async_stream_back_to_back_windows():
    # detectable exactly when the previous window closes: detected
    recs = detect_stream(ASYNC, [0.0, 0.010])
    assert recs[1].detected
    assert recs[1].arrival == pytest.approx(0.027)


def test_stream_rejects_nonincreasing_times():
    with pytest.raises(ParameterError):
        detect_stream(SYNC, [0.0, 0.0])


@given(
    events=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20, unique=True
    ),
    t_s=st.floats(min_value=0.01, max_value=5.0),
    tau_s=st.floats(min_value=0.0, max_value=5.0),
    mode=st.sampled_from(list(SensorMode)),
)
@settings(max_examples=100, deadline=None)
def test_stream_detection_invariants(events, t_s, tau_s, mode):
    events = sorted(events)
    spec = SensorSpec(t_s=t_s, tau_s=tau_s, mode=mode)
    recs = detect_stream(spec, events)
    assert len(recs) == len(events)
    detected = [r for r in recs if r.detected]
    for rec in detected:
        # FIFO floor: never earlier than detectability plus a full window
        assert rec.arrival >= events[rec.source_index] + tau_s + t_s - 1e-9
    # arrivals of detected events are nondecreasing (FIFO)
    arrivals = [r.arrival for r in detected]
    assert all(b >= a - 1e-12 for a, b in zip(arrivals, arrivals[1:]))
    if mode is SensorMode.ASYNCHRONOUS:
        # consecutive async detections are at least one window apart
        assert all(b >= a + t_s - 1e-9 for a, b in zip(arrivals, arrivals[1:]))
        assert recs[0].detected


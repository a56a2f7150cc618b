import math

import numpy as np
import pytest

from twisim.core import Constant, ParameterError, UniformRange, chunk_rng
from twisim.inputs import ScenarioInput, sample_sensor_detection_time, sensor
from twisim.mc import FanOutScenario

SYNC = sensor(t_s=0.010, tau_s=0.007, mode="synchronous")
ASYNC = sensor(t_s=0.010, tau_s=0.007, mode="asynchronous")


def test_spec_validation():
    with pytest.raises(ParameterError):
        sensor(t_s=0.0)
    with pytest.raises(ParameterError):
        sensor(t_s=0.010, tau_s=-1.0)
    with pytest.raises(ParameterError):
        ScenarioInput(Constant(1.0), delay=-1.0)
    with pytest.raises(ParameterError, match="unknown transmission-time model"):
        ScenarioInput(1.0)


def test_a_sensor_is_its_phase_model_plus_tau_s_plus_t_s():
    assert ASYNC == ScenarioInput(Constant(0.0), 0.007 + 0.010)
    assert SYNC == ScenarioInput(UniformRange(0.0, 0.010), 0.007 + 0.010)
    assert sensor(0.010, sensor_id="s") == ScenarioInput(UniformRange(0.0, 0.010), 0.010, "s")


@pytest.mark.parametrize("mode", ["bogus", "SYNCHRONOUS", None, 1, ["asynchronous"] * 1000])
def test_an_unknown_mode_is_a_parameter_error(mode):
    with pytest.raises(ParameterError, match=r"^sensor mode must be 'synchronous' or 'asynchronous', got ") as info:
        sensor(t_s=0.010, mode=mode)
    assert len(str(info.value)) < 200


def test_async_detection_time_is_deterministic():
    assert sample_sensor_detection_time(ASYNC, chunk_rng(0, 0)) == pytest.approx(0.017)
    arr = sample_sensor_detection_time(ASYNC, chunk_rng(0, 0), size=5)
    assert np.allclose(arr, 0.017)


def test_sync_detection_time_support_and_mean():
    n = 1_000_000
    draws = sample_sensor_detection_time(SYNC, chunk_rng(3, 0), size=n)
    assert draws.min() >= 0.007 + 0.010
    assert draws.max() < 0.007 + 2.0 * 0.010
    # mean tau_s + 1.5*t_s = 22 ms
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 0.022) <= 4.0 * se


@pytest.mark.parametrize("sensor_id", [["a"], 5, b"s1", ["a"] * 1000], ids=["list", "int", "bytes", "long-list"])
def test_a_sensor_id_that_is_no_string_is_a_parameter_error(sensor_id):
    with pytest.raises(ParameterError, match=r"^sensor_id must be a string or None, got ") as info:
        sensor(t_s=0.010, sensor_id=sensor_id)
    assert len(str(info.value)) < 200


def test_a_fan_out_of_two_list_ids_is_a_parameter_error_not_a_type_error():
    with pytest.raises(ParameterError, match="sensor_id"):
        FanOutScenario((sensor(0.01, sensor_id=["a"]), sensor(0.01, sensor_id=["a"])))

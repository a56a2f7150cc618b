import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisim.core import (
    Constant,
    Empirical,
    ParameterError,
    ShiftedExponential,
    TwoPoint,
    UniformRange,
    _Model,
    chunk_rng,
    sample,
)
from twisim.planner import (
    InfeasibleBudgetError,
    SlotGrid,
    latency_budget_digital_cause,
    p_miss_known_edge,
    p_miss_unknown_edge,
    quantize_to_slots,
    validate_twi_on_grid,
)

MODELS = [
    Constant(0.012),
    UniformRange(0.002, 0.050),
    ShiftedExponential(0.001, 60.0),
    TwoPoint(0.040, 0.004, 0.3),
    Empirical((0.005, 0.010, 0.035, 0.060)),
]


def test_latency_budget_split():
    b = latency_budget_digital_cause(
        t_s=0.020, tau_a=0.005, tau_s=0.005, sender_budget=0.015
    )
    assert b.max_t_ab == pytest.approx(0.030)
    assert b.sender_budget_t_a == pytest.approx(0.015)
    assert b.radio_budget == pytest.approx(0.015)


def test_latency_budget_infeasible():
    with pytest.raises(InfeasibleBudgetError):
        latency_budget_digital_cause(t_s=0.020, tau_a=0.0, tau_s=0.0, sender_budget=0.025)


def test_p_miss_known_edge():
    assert p_miss_known_edge(Constant(0.003), 0.030) == 0.0
    assert p_miss_known_edge(Constant(0.050), 0.030) == 1.0
    assert p_miss_known_edge(UniformRange(0.0, 0.060), 0.030) == pytest.approx(0.5)
    assert p_miss_known_edge(ShiftedExponential(0.0, 100.0), 0.030) == pytest.approx(
        math.exp(-3.0)
    )


def test_p_miss_unknown_edge_reference_numbers():
    # 3 ms transmission in a 30 ms window
    report = p_miss_unknown_edge(Constant(0.003), 0.030)
    assert report.nominal_value == 0.1
    assert report.exact_value == 0.1
    with pytest.raises(ParameterError):
        p_miss_unknown_edge(Constant(0.003), 0.0)


def test_p_miss_unknown_edge_uniform():
    # T ~ U(0, 2W): nominal E[T]/W = 1 clamps, exact is E[min(T/W, 1)] = 0.75
    report = p_miss_unknown_edge(UniformRange(0.0, 2.0), 1.0)
    assert report.nominal_value == 1.0
    assert report.exact_value == pytest.approx(0.75)


def test_p_miss_values_agree_when_t_below_w():
    for model in [Constant(0.003), UniformRange(0.001, 0.004), TwoPoint(0.004, 0.002, 0.5)]:
        report = p_miss_unknown_edge(model, 0.030)
        assert report.exact_value == pytest.approx(report.nominal_value)


@given(
    values=st.lists(
        st.one_of(st.integers(0, 10), st.floats(0.0, 1e6), st.floats(0.0, 1e308)), min_size=1, max_size=50
    ),
    repeats=st.integers(0, 3),
    w=st.one_of(st.floats(1e-310, 1e6), st.sampled_from([1e-310, 1.0, 3.0])),
)
@settings(max_examples=300, deadline=None)
def test_empirical_clamped_ratio_is_the_default_bit_for_bit(values, repeats, w):
    model = Empirical(tuple(values + values[:repeats]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing t / w is clamped silently, as in Python
        ratio = model.clamped_ratio(w)
    assert type(ratio) is float
    assert repr(ratio) == repr(_Model.clamped_ratio(model, w))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("w", [0.004, 0.030, 0.100])
def test_p_miss_exact_matches_simulation(model, w):
    # transmission starts uniformly inside the window: time to the edge is
    # uniform on (0, W]; miss iff T exceeds it
    n = 400_000
    rng = chunk_rng(21, 0)
    t = sample(model, rng, n)
    to_edge = (1.0 - rng.random(n)) * w
    miss = t > to_edge
    est = miss.mean()
    se = math.sqrt(est * (1.0 - est) / n)
    report = p_miss_unknown_edge(model, w)
    assert abs(report.exact_value - est) <= 4.0 * se + 1e-9


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("w", [0.004, 0.030, 0.100])
def test_p_miss_exact_never_exceeds_nominal(model, w):
    report = p_miss_unknown_edge(model, w)
    assert 0.0 <= report.exact_value <= report.nominal_value + 1e-12
    assert report.exact_value >= p_miss_known_edge(model, w) - 1e-12


def test_quantize_to_slots():
    grid = SlotGrid(62.5e-6)
    assert quantize_to_slots(130e-6, grid) == 3
    assert quantize_to_slots(62.5e-6, grid) == 1  # boundary in the earlier slot
    assert quantize_to_slots(0.0, grid) == 0
    with pytest.raises(ParameterError):
        SlotGrid(0.0)


def test_validate_twi_on_grid():
    grid = SlotGrid(62.5e-6)
    assert validate_twi_on_grid(0.030, grid)  # 480 slots
    assert not validate_twi_on_grid(0.0301, grid)
    assert validate_twi_on_grid(0.0, grid)  # raw mode needs no grid
    # relative tolerance absorbs accumulated float error
    assert validate_twi_on_grid(480 * 62.5e-6, grid)


def test_validate_twi_on_grid_names_a_window_whose_slot_count_overflows():
    # 1e300 / 1e-300 is inf, which round() cannot turn into an int
    with pytest.raises(ParameterError, match="window 1e\\+300 is too large relative to slot 1e-300"):
        validate_twi_on_grid(1e300, SlotGrid(1e-300))
    assert validate_twi_on_grid(1e300, SlotGrid(1e-8))  # 1e308 slots is finite


@given(
    t=st.floats(min_value=0.0, max_value=1e4),
    slot=st.floats(min_value=1e-6, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_quantization_is_monotone(t, slot):
    grid = SlotGrid(slot)
    assert quantize_to_slots(t, grid) <= quantize_to_slots(t + slot, grid)
    assert quantize_to_slots(t, grid) * slot >= t - slot * (1.0 + 1e-12)

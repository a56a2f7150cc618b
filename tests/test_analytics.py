import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twisim import core

from twisim.analytics import (
    TwoInputParams,
    _phase_averaged_ramps,
    causality_conditions_digital_cause,
    causality_conditions_physical_cause,
    expected_cv_two_input,
    p_cv_digital_cause,
    p_cv_physical_cause,
    p_sim_violation_n,
    twi_two_sensor_min_window,
)
from twisim.core import (
    Constant,
    Empirical,
    ParameterError,
    ShiftedExponential,
    TwoPoint,
    UniformRange,
    chunk_rng,
)

times = st.floats(min_value=0.0, max_value=1e6)
widths = st.floats(min_value=0.0, max_value=1e6)


def test_two_sensor_min_window():
    # equal sensors: the window just covers one integration time
    assert twi_two_sensor_min_window(0.010, 0.010, 0.0, 0.0) == pytest.approx(0.010)
    # a slower second detection dominates
    assert twi_two_sensor_min_window(0.010, 0.030, 0.001, 0.005) == pytest.approx(0.034)
    # a long first integration dominates
    assert twi_two_sensor_min_window(0.050, 0.010, 0.001, 0.005) == pytest.approx(0.050)
    with pytest.raises(ParameterError):
        twi_two_sensor_min_window(0.010, 0.010, 0.005, 0.001)


def test_sim_violation_closed_form():
    assert p_sim_violation_n([1.0, 1.5], 1.0) == pytest.approx(0.5)
    assert p_sim_violation_n([3.0, 1.0], 1.0) == 1.0
    assert p_sim_violation_n([1.0, 1.0], 1.0) == 0.0
    assert p_sim_violation_n([1.0, 1.5], 0.0) == 1.0  # W=0: distinct raw times differ


def test_sim_violation_n_uses_spread():
    assert p_sim_violation_n([1.0, 1.2, 1.5], 1.0) == pytest.approx(0.5)
    assert p_sim_violation_n([1.0], 1.0) == 0.0
    assert p_sim_violation_n([1.0], 0.0) == 0.0
    with pytest.raises(ParameterError):
        p_sim_violation_n([], 1.0)


def test_cv_closed_forms_mirror():
    # physical cause: digital copy early by 0.4 of a window
    assert p_cv_physical_cause(2.0, 1.6, 1.0) == pytest.approx(0.4)
    assert p_cv_physical_cause(1.6, 2.0, 1.0) == 0.0  # sensing first: no risk
    assert p_cv_physical_cause(2.0, 0.5, 1.0) == 1.0  # gap > W
    assert p_cv_physical_cause(2.0, 1.6, 0.0) == 1.0  # raw mode
    assert p_cv_digital_cause(1.6, 2.0, 1.0) == pytest.approx(0.4)
    assert p_cv_digital_cause(2.0, 1.6, 1.0) == 0.0


@given(t1=times, t2=times, w=widths)
@settings(max_examples=200, deadline=None)
def test_cv_probability_in_unit_interval(t1, t2, w):
    p = p_cv_physical_cause(t1, t2, w)
    assert 0.0 <= p <= 1.0
    assert p == p_cv_digital_cause(t2, t1, w)


@given(t1=times, t2=times, w=st.floats(min_value=1e-9, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_cv_nonincreasing_in_window(t1, t2, w):
    assert p_cv_physical_cause(t1, t2, 2.0 * w) <= p_cv_physical_cause(t1, t2, w) + 1e-12


def params(**kw):
    defaults = dict(t_s=0.010, tau_s=0.001, tau_a=0.0, t_min=0.001, t_max=0.005, w=0.0)
    defaults.update(kw)
    return TwoInputParams(**defaults)


def test_params_validation():
    with pytest.raises(ParameterError):
        params(t_s=0.0)
    with pytest.raises(ParameterError):
        params(t_min=0.006)
    with pytest.raises(ParameterError):
        params(tau_a=math.inf)
    with pytest.raises(ParameterError, match="t_max"):
        params(t_max=math.nan)
    # negative action time is legal (predictive sender, digital cause)
    params(tau_a=-0.001)


def test_conditions_physical_cause():
    p = params(t_s=0.001, tau_s=0.00001, tau_a=0.100, t_min=0.0, t_max=0.005)
    r = causality_conditions_physical_cause(p, 0.003)
    # action time far above the sensing path: violation impossible
    assert r.never_violated
    assert not r.certainly_violated
    assert r.w_min == 0.0 and r.w_min_raw < 0.0


def test_conditions_physical_cause_certain():
    # slow sensing, instant link, no window: violation guaranteed
    p = params(t_s=0.010, tau_s=0.005, tau_a=0.0, t_min=0.0, t_max=0.001, w=0.0)
    r = causality_conditions_physical_cause(p, 0.0)
    assert r.certainly_violated
    assert not r.never_violated
    # minimal mitigating window 2*t_s + tau_s - t_min - tau_a = 25 ms
    assert r.w_min == pytest.approx(0.025)
    # a window that large removes the certain case
    assert not causality_conditions_physical_cause(params(
        t_s=0.010, tau_s=0.005, tau_a=0.0, t_min=0.0, t_max=0.001, w=0.025
    ), 0.0).certainly_violated


def test_conditions_physical_cause_rejects_negative_tau_a():
    with pytest.raises(ParameterError):
        causality_conditions_physical_cause(params(tau_a=-0.001), 0.003)


def test_conditions_digital_cause():
    # link can be slower than the whole sensing path: violation possible
    p = params(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=0.400, w=0.0)
    r = causality_conditions_digital_cause(p, 0.390)
    assert not r.never_violated
    assert r.certainly_violated  # 0.390 - 0.013 > 0
    assert r.w_min == pytest.approx(0.400 - 0.013)
    # fast link: never violated
    fast = params(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=0.012)
    r = causality_conditions_digital_cause(fast, 0.012)
    assert r.never_violated
    assert r.w_min == 0.0


def test_conditions_digital_cause_negative_tau_a_raises_w_min():
    base = params(t_s=0.010, tau_s=0.001, tau_a=0.0, t_min=0.0, t_max=0.400)
    ahead = params(t_s=0.010, tau_s=0.001, tau_a=-0.005, t_min=0.0, t_max=0.400)
    assert (
        causality_conditions_digital_cause(ahead, 0.1).w_min
        > causality_conditions_digital_cause(base, 0.1).w_min
    )


def test_t_ab_outside_support_rejected():
    with pytest.raises(ParameterError):
        causality_conditions_physical_cause(params(), 0.006)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def _mc_expected_cv(p, model, cause, trials=400_000, seed=12345):
    """Plain-numpy reference: average the conditional ramp over phi and T."""
    rng = chunk_rng(seed, 0)
    phi = rng.uniform(0.0, p.t_s, trials)
    from twisim.core import sample

    t = sample(model, rng, trials)
    if cause == "physical":
        gap = (p.tau_s + phi + p.t_s) - (p.tau_a + t)
    else:
        gap = t - (p.tau_s + p.tau_a + phi + p.t_s)
    if p.w == 0.0:
        vals = (gap > 0.0).astype(float)
    else:
        vals = np.clip(gap / p.w, 0.0, 1.0)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


GAMMA_TRACE = tuple(np.round(0.001 + chunk_rng(7, 0).gamma(2.0, 0.006, 300), 6).tolist())


@pytest.mark.parametrize("cause", ["physical", "digital"])
@pytest.mark.parametrize(
    "model",
    [
        Constant(0.012),
        UniformRange(0.002, 0.030),
        ShiftedExponential(0.001, 80.0),
        TwoPoint(0.004, 0.021, 0.3),
        Empirical(GAMMA_TRACE + (0.012, 0.012)),
    ],
)
@pytest.mark.parametrize("w", [0.0, 0.004, 0.020])
def test_expected_cv_matches_direct_average(cause, model, w):
    p = params(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=1.0, w=w)
    exact = expected_cv_two_input(p, model, cause)
    assert 0.0 <= exact <= 1.0
    est, se = _mc_expected_cv(p, model, cause)
    assert abs(exact - est) <= 4.0 * se + 1e-9


def test_expected_cv_constant_hand_value():
    # physical cause, W=0: violation iff tau_s + phi + t_s > tau_a + T,
    # i.e. phi > T - tau_s - t_s; with T = 12 ms the threshold is 1 ms of
    # the 10 ms phase range -> 0.9
    p = params(t_s=0.010, tau_s=0.001, tau_a=0.0, t_min=0.0, t_max=1.0, w=0.0)
    assert expected_cv_two_input(p, Constant(0.012), "physical") == pytest.approx(0.9)
    # instant link: always violated
    assert expected_cv_two_input(p, Constant(0.0), "physical") == pytest.approx(1.0)


def test_expected_cv_never_exceeds_one():
    # a certain violation whose float sums used to give 1.0000000000000002
    p = params(t_s=0.073305, tau_s=0.006935, tau_a=0.011752, t_min=0.0, t_max=math.inf, w=0.02)
    assert expected_cv_two_input(p, Constant(0.198296), "digital") == 1.0


def test_expected_cv_rejects_negative_tau_a_for_physical():
    p = params(tau_a=-0.001, t_max=1.0)
    with pytest.raises(ParameterError):
        expected_cv_two_input(p, Constant(0.001), "physical")
    expected_cv_two_input(p, Constant(0.001), "digital")  # allowed here


@given(w1=st.floats(min_value=1e-4, max_value=0.1), factor=st.floats(min_value=1.0, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_expected_cv_nonincreasing_in_window(w1, factor):
    model = UniformRange(0.0, 0.05)
    p1 = params(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=1.0, w=w1)
    p2 = params(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=1.0, w=w1 * factor)
    assert expected_cv_two_input(p2, model, "digital") <= expected_cv_two_input(
        p1, model, "digital"
    ) + 1e-9


# ---------------------------------------------------------------------------
# Byte identity of the oracle against its earlier, slower form
# ---------------------------------------------------------------------------


def _reference_ramp(a, period, w):
    """_phase_averaged_ramp as it was written first: a nested antiderivative."""
    if period <= 0.0:
        raise ParameterError("period must be > 0")
    if w == 0.0:
        return min(1.0, max(0.0, (period + min(a, 0.0)) / period)) if a > -period else 0.0

    def antiderivative(x):
        if x <= 0.0:
            return 0.0
        if x <= w:
            return x * x / (2.0 * w)
        return x - w / 2.0

    return (antiderivative(a + period) - antiderivative(a)) / period


def _reference_expect(model, fn):
    """model.expect(fn) as first written: a generator sum over a trace, and
    the exponential's weight reading the model's attributes."""
    if isinstance(model, Empirical):
        return sum(fn(v) for v in model.values) / len(model.values)
    if isinstance(model, ShiftedExponential):
        from scipy import integrate

        rate = model.rate
        upper = model.shift + 50.0 / rate

        def weighted(x):
            return fn(x) * rate * math.exp(-rate * (x - model.shift))

        return integrate.quad(weighted, model.shift, upper, limit=200)[0]
    return model.expect(fn)


def _reference_expected_cv(p, model, cause):
    if cause == "physical":
        base = p.tau_s + p.t_s - p.tau_a

        def inner(t):
            return _reference_ramp(base - t, p.t_s, p.w)

    else:
        base = p.tau_s + p.tau_a + p.t_s

        def inner(t):
            return _reference_ramp(t - base - p.t_s, p.t_s, p.w)

    return min(1.0, _reference_expect(model, inner))


sixty_fourths = st.integers(0, 64).map(lambda k: k / 64)


@st.composite
def oracle_cases(draw):
    """A receiver, a cause and a model of any kind.  With multiples of 1/64
    the sums are exact, so the values listed as edges put a + period exactly
    on 0 and on w; finite models take them as atoms, integers and repeats.
    Arbitrary floats make the sums round, so that their order counts."""
    duration = st.one_of(sixty_fourths, st.floats(0.0, 1.0))
    t_s = draw(st.one_of(st.integers(1, 64).map(lambda k: k / 64), st.floats(1e-3, 1.0)))
    tau_s, tau_a = draw(duration), draw(duration)
    w = draw(st.one_of(st.just(0.0), st.integers(1, 64).map(lambda k: k / 64), st.floats(1e-6, 1.0)))
    cause = draw(st.sampled_from(("physical", "digital")))
    if cause == "physical":  # a + period = tau_s + 2 t_s - tau_a - t
        on_zero = tau_s + t_s - tau_a + t_s
    else:  # a + period = t - tau_s - tau_a - t_s
        on_zero = tau_s + tau_a + t_s
    on_w = on_zero - w if cause == "physical" else on_zero + w
    edges = [max(on_zero, 0.0), max(on_w, 0.0)]  # durations: a negative edge is never reached
    value = st.one_of(st.sampled_from(edges), st.integers(0, 3), st.floats(0.0, 3.0))
    low = draw(value)
    model = draw(
        st.one_of(
            st.builds(Constant, value),
            st.builds(UniformRange, st.just(low), st.floats(0.0, 1.0).map(lambda d: low + d)),
            st.builds(ShiftedExponential, value, st.floats(0.5, 100.0)),
            st.builds(TwoPoint, value, value, st.floats(0.0, 1.0)),
            st.lists(value, min_size=1, max_size=40).map(lambda vs: Empirical(tuple(vs + vs[:3]))),
        )
    )
    return TwoInputParams(t_s, tau_s, tau_a, 0.0, math.inf, w), model, cause


@given(case=oracle_cases())
@settings(max_examples=300, deadline=None)
def test_expected_cv_is_bit_identical_to_the_reference(case):
    p, model, cause = case
    assert repr(expected_cv_two_input(p, model, cause)) == repr(_reference_expected_cv(p, model, cause))


def _oracle_grid_trace(seed):
    """2000 values built as the benchmark's oracle workload builds its trace:
    a shift plus a seeded gamma draw, rounded to 6 digits."""
    rng = np.random.default_rng([seed, 4])
    trace = rng.uniform(0.0, 0.05) + rng.gamma(2.0, rng.uniform(0.01, 0.05), 2000)
    return [round(v, 6) for v in trace.tolist()]


@pytest.mark.parametrize("w", [0.0, 0.116, 0.0625])
@pytest.mark.parametrize("cause", ["physical", "digital"])
def test_expected_cv_of_a_long_trace_is_bit_identical_to_the_reference(cause, w):
    # dyadic durations: edge atoms put a + period exactly on 0, and on w
    # at the dyadic width; 0.116 is one of the benchmark's grid widths
    p = TwoInputParams(0.0625, 0.015625, 0.03125, 0.0, math.inf, w)
    if cause == "physical":
        base = p.tau_s + p.t_s - p.tau_a
        on_zero, on_w = base + p.t_s, base + p.t_s - w

        def gap(t):  # the ramp's a
            return base - t

    else:
        base = p.tau_s + p.tau_a + p.t_s
        on_zero, on_w = base, base + w

        def gap(t):
            return t - base - p.t_s

    values = _oracle_grid_trace(1)
    values[::400] = [on_zero] * 5
    assert gap(on_zero) + p.t_s == 0.0
    if w == 0.0625:
        values[1::400] = [on_w] * 5
        assert gap(on_w) + p.t_s == w
    model = Empirical(tuple(values))
    value = expected_cv_two_input(p, model, cause)
    assert 0.0 < value < 1.0
    assert repr(value) == repr(_reference_expected_cv(p, model, cause))
    # each term too: the average of 2000 hides an ulp in one of them
    a = np.array([gap(t) for t in values])
    assert _phase_averaged_ramps(a, p.t_s, w).tolist() == [_reference_ramp(x, p.t_s, w) for x in a]


def test_reference_cases_reach_the_ramp_edges():
    # physical: a + period = base - t + t_s; these atoms land it on 0 and on w
    p = TwoInputParams(0.25, 0.125, 0.0625, 0.0, math.inf, 0.5)
    base = p.tau_s + p.t_s - p.tau_a
    model = Empirical((base + p.t_s, base + p.t_s - p.w, 1, 1, 0))
    assert (base - (base + p.t_s)) + p.t_s == 0.0
    assert (base - (base + p.t_s - p.w)) + p.t_s == p.w
    for cause in ("physical", "digital"):
        assert repr(expected_cv_two_input(p, model, cause)) == repr(_reference_expected_cv(p, model, cause))


# ---------------------------------------------------------------------------
# QUADPACK, loaded on its own, against scipy.integrate.quad
# ---------------------------------------------------------------------------

# README's known limitation: the ramp is nonzero only on a short stretch past
# the exponential's shift, and QUADPACK's first nodes all miss it
QUAD_ZERO = (TwoInputParams(0.06267, 0.06283, 0.00821, 0.0, math.inf, 0.22750), ShiftedExponential(0.08289, 0.95984))
# QUADPACK gives up on this one with ier = 5 ("probably divergent")
QUAD_IER = (
    TwoInputParams(0.000715822818481951, 0.0020537198488175894, 0.0006678363134139153, 0.0, math.inf, 0.0),
    UniformRange(0.0, 0.003453921076100751),
)


def _scipy_quad(fn, a, b):
    """core._quad as scipy.integrate.quad computes it."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(fn, a, b, limit=200)[0]


continuous_models = st.one_of(
    st.builds(lambda low, width: UniformRange(low, low + width), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(ShiftedExponential, st.one_of(st.just(0.0), st.floats(0.0, 1.0)), st.floats(1e-3, 1e3)),
)


@given(
    p=st.builds(
        TwoInputParams,
        t_s=st.floats(1e-4, 1.0),
        tau_s=st.floats(0.0, 1.0),
        tau_a=st.floats(0.0, 1.0),
        t_min=st.just(0.0),
        t_max=st.just(math.inf),
        w=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    ),
    model=continuous_models,
    cause=st.sampled_from(("physical", "digital")),
)
@example(p=QUAD_ZERO[0], model=QUAD_ZERO[1], cause="physical")
@example(p=QUAD_IER[0], model=QUAD_IER[1], cause="digital")
@example(p=QUAD_ZERO[0], model=ShiftedExponential(0.0, 1e-310), cause="digital")  # cut-off at +inf: QAGI
@settings(max_examples=200, deadline=None)
def test_expected_cv_through_quadpack_equals_it_through_scipy_quad(p, model, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value = expected_cv_two_input(p, model, cause)
    with mock.patch.object(core, "_quad", _scipy_quad):
        expected = expected_cv_two_input(p, model, cause)
    assert repr(value) == repr(expected)


def test_the_known_quad_zero_case_still_reads_zero():
    assert repr(expected_cv_two_input(*QUAD_ZERO, "physical")) == "0.0"


def test_an_exponential_tail_below_an_ulp_of_its_shift_is_a_point_mass():
    # shift + 50 / rate == shift: the model is Constant(shift) to 1e-18, and
    # quadrature over the empty interval [shift, shift] would read 0
    p = params(t_s=0.05, tau_s=0.01, tau_a=0.02, t_min=0.0, t_max=math.inf, w=0.1)
    narrow = ShiftedExponential(1.0, 1e18)
    assert expected_cv_two_input(p, narrow, "digital") == expected_cv_two_input(p, Constant(1.0), "digital") == 1.0
    assert narrow.expect(lambda t: t) == 1.0


def test_a_nonzero_quadpack_error_code_warns_as_quad_does():
    from scipy import integrate

    with pytest.warns(RuntimeWarning, match="ier=5"):
        value = expected_cv_two_input(*QUAD_IER, "digital")
    with pytest.warns(integrate.IntegrationWarning), mock.patch.object(
        core, "_quad", lambda fn, a, b: integrate.quad(fn, a, b, limit=200)[0]
    ):
        assert repr(expected_cv_two_input(*QUAD_IER, "digital")) == repr(value)

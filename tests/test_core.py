import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twisim
from twisim.core import (
    Constant,
    Empirical,
    ParameterError,
    ShiftedExponential,
    TwoPoint,
    UniformRange,
    chunk_rng,
    sample,
    validate_model,
)
from twisim.inputs import ScenarioInput, sample_sensor_detection_time, sensor

MODELS = [
    Constant(0.003),
    UniformRange(1.0, 2.0),
    ShiftedExponential(0.5, 1.0),
    TwoPoint(2.0, 1.0, 0.5),
    Empirical((0.1, 0.4, 0.4, 0.9)),
]


def test_support_examples():
    assert Constant(0.003).support() == (0.003, 0.003)
    assert UniformRange(1.0, 2.0).support() == (1.0, 2.0)
    assert ShiftedExponential(0.5, 1.0).support() == (0.5, math.inf)
    assert TwoPoint(2.0, 1.0, 0.5).support() == (1.0, 2.0)
    assert TwoPoint(2.0, 1.0, 1.0).support() == (2.0, 2.0)


def test_mean_examples():
    assert Constant(0.003).mean() == 0.003
    assert TwoPoint(2.0, 1.0, 0.5).mean() == 1.5
    assert ShiftedExponential(1.0, 4.0).mean() == 1.25
    assert Empirical((1.0, 3.0)).mean() == 2.0


def test_constant_sampling_is_degenerate():
    rng = chunk_rng(0, 0)
    assert sample(Constant(0.003), rng) == 0.003
    assert np.all(sample(Constant(0.003), rng, 100) == 0.003)


@pytest.mark.parametrize("model", MODELS)
def test_samples_within_support(model):
    lo, hi = model.support()
    draws = sample(model, chunk_rng(123, 0), 1_000_000)
    assert draws.min() >= lo
    if math.isfinite(hi):
        assert draws.max() <= hi


@pytest.mark.parametrize("model", MODELS)
def test_empirical_mean_matches_analytic(model):
    n = 1_000_000
    draws = sample(model, chunk_rng(7, 1), n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - model.mean()) <= 4.0 * se + 1e-15


def test_shifted_exponential_mean_half_tau():
    # rate 2/tau gives mean tau/2
    tau = 3.0
    draws = sample(ShiftedExponential(0.0, 2.0 / tau), chunk_rng(11, 0), 1_000_000)
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - 0.5 * tau) <= 4.0 * se


def test_two_point_frequencies():
    draws = sample(TwoPoint(2.0, 1.0, 0.5), chunk_rng(5, 0), 1_000_000)
    freq = np.mean(draws == 2.0)
    assert abs(freq - 0.5) <= 4.0 * 0.5 / 1000.0


@pytest.mark.parametrize("p_a", [0.0, 0.3, 1.0])
def test_two_point_sample_matches_the_where_form(p_a):
    model = TwoPoint(2.0, 1.0, p_a)
    draws = sample(model, chunk_rng(4, 0), 1000)
    u = chunk_rng(4, 0).random(1000)
    assert draws.dtype == np.float64
    assert np.array_equal(draws, np.where(u < p_a, 2.0, 1.0))
    rng, ref = chunk_rng(4, 1), chunk_rng(4, 1)
    for _ in range(50):
        x = sample(model, rng)
        assert type(x) is float
        assert x == float(np.where(ref.random() < p_a, 2.0, 1.0))


durations = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e300)),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@given(
    value_a=durations,
    value_b=durations,
    same=st.booleans(),
    p_a=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0)),
    size=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200, deadline=None)
def test_two_point_sample_is_the_where_form_bit_for_bit(value_a, value_b, same, p_a, size, seed):
    if same:
        value_b = value_a
    rng, ref = chunk_rng(seed, 0), chunk_rng(seed, 0)
    draws = sample(TwoPoint(value_a, value_b, p_a), rng, size)
    expected = np.where(ref.random(size) < p_a, value_a, value_b)
    assert draws.dtype == np.float64 and draws.shape == (size,)
    assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))
    assert rng.random() == ref.random()  # one draw per value, as before


@pytest.mark.parametrize("model", MODELS)
def test_streams_replay_bit_identically(model):
    a = sample(model, chunk_rng(99, 3), 1000)
    b = sample(model, chunk_rng(99, 3), 1000)
    assert np.array_equal(a, b)


def test_distinct_trial_indices_give_distinct_streams():
    a = sample(UniformRange(0.0, 1.0), chunk_rng(99, 0), 100)
    b = sample(UniformRange(0.0, 1.0), chunk_rng(99, 1), 100)
    assert not np.array_equal(a, b)


def test_tail_probability():
    assert Constant(0.003).tail(0.030) == 0.0
    assert Constant(0.003).tail(0.001) == 1.0
    assert UniformRange(0.0, 2.0).tail(1.0) == 0.5
    assert ShiftedExponential(0.0, 2.0).tail(1.0) == pytest.approx(math.exp(-2.0))
    assert TwoPoint(2.0, 1.0, 0.25).tail(1.5) == 0.25
    assert Empirical((1.0, 2.0, 3.0, 4.0)).tail(2.5) == 0.5


def test_laplace_transform_against_sampling():
    lam = 1.3
    for model in MODELS:
        draws = sample(model, chunk_rng(17, 0), 400_000)
        emp = np.exp(-lam * draws).mean()
        assert model.laplace(lam) == pytest.approx(emp, abs=4e-3)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Constant(-1.0),
        lambda: UniformRange(2.0, 1.0),
        lambda: ShiftedExponential(0.0, 0.0),
        lambda: ShiftedExponential(0.0, -2.0),
        lambda: TwoPoint(1.0, 2.0, 1.5),
        lambda: Empirical(()),
        lambda: Empirical((1.0, -3.0)),
    ],
    ids=[f"bad{i}" for i in range(7)],
)
def test_invalid_models_rejected(bad):
    with pytest.raises(ParameterError):
        bad()


def test_validate_model_rejects_non_models():
    validate_model(Empirical((1.0,)))
    with pytest.raises(ParameterError):
        validate_model({"kind": "constant", "value": 1.0})


@given(
    low=st.floats(min_value=0.0, max_value=100.0),
    span=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_uniform_mean_is_midpoint(low, span):
    assert UniformRange(low, low + span).mean() == pytest.approx(low + span / 2.0)


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_trial_rng_deterministic(seed, idx):
    assert chunk_rng(seed, idx).random(8).tolist() == chunk_rng(seed, idx).random(8).tolist()


def test_the_cli_and_an_analytic_run_on_a_constant_model_leave_scipy_unimported(tmp_path):
    # The first continuous-model expect() loads SciPy's compiled QUADPACK
    # module on its own: importing scipy.integrate to reach it costs more
    # memory and CPU than the rest of a command.  NumPy loads at the first
    # array, here the Monte-Carlo run's, not before.  Monte-Carlo threads are
    # plain threads: no executor, and so no concurrent.futures or logging,
    # in any twisim process.
    src = str(Path(twisim.__file__).resolve().parents[1])
    receiver = {"w": 0.1, "t_s": 0.05, "tau_s": 0.01, "tau_a": 0.02}

    def analytic(name, model, cause):
        params = {"op": "expected_cv_two_input", "cause": cause, "model": model, **receiver}
        (tmp_path / f"{name}.json").write_text(json.dumps({"kind": "analytic", "params": params}))
        return str(tmp_path / name)

    cfg = analytic("cfg", {"kind": "constant", "value": 0.05}, "digital")
    continuous = [
        analytic(f"{kind}-{cause}", model, cause)
        for kind, model in (
            ("uniform", {"kind": "uniform", "low": 0.01, "high": 0.2}),
            ("exponential", {"kind": "shifted_exponential", "shift": 0.005, "rate": 40.0}),
        )
        for cause in ("physical", "digital")
    ]
    code = (
        "import sys, twisim.cli\n"
        "def unimported():\n"
        "    return [name not in sys.modules for name in ('numpy', 'scipy', 'concurrent.futures', 'logging')]\n"
        "print(unimported())\n"
        "print(twisim.cli.main(['analytic', sys.argv[1] + '.json', '--out', sys.argv[2] + '/analytic.csv']), unimported())\n"
        "mc = ['reproduce', '--figure', '7', '--trials', '65536', '--threads', '2', '--out', sys.argv[2] + '/fig7.csv']\n"
        "print(twisim.cli.main(mc), unimported())\n"
        "print([twisim.cli.main(['analytic', name + '.json', '--out', name + '.csv']) for name in sys.argv[3:]])\n"
        "print([name for name in sys.modules if name.split('.')[:2] == ['scipy', 'integrate']])\n"
    )
    # the same runs, with the integral taken by scipy.integrate.quad
    by_quad = (
        "import sys, scipy.integrate, twisim.cli, twisim.core\n"
        "twisim.core._quad = lambda fn, a, b: scipy.integrate.quad(fn, a, b, limit=200)[0]\n"
        "print([twisim.cli.main(['analytic', name + '.json', '--out', name + '.quad.csv']) for name in sys.argv[3:]])\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    for script, expected in (
        (code, "[True, True, True, True]\n0 [True, True, True, True]\n0 [False, True, True, True]\n[0, 0, 0, 0]\n[]\n"),
        (by_quad, "[0, 0, 0, 0]\n"),
    ):
        argv = [sys.executable, "-c", script, cfg, str(tmp_path), *continuous]
        out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
        assert (out.stdout, out.stderr) == (expected, "")
    values = set()
    for name in continuous:
        csv = Path(name + ".csv").read_bytes()
        assert csv == Path(name + ".quad.csv").read_bytes()
        values.add(float(csv.split(b",")[-1]))
    assert len(values) == 4 and 0.0 < min(values) and max(values) < 1.0
    assert UniformRange(0.0, 1.0).expect(lambda t: t) == pytest.approx(0.5)
    assert ShiftedExponential(0.5, 2.0).expect(lambda t: t) == pytest.approx(1.0)


def test_threads_that_first_read_numpy_at_once_all_get_it_fully_built():
    # Monte-Carlo chunk threads can be the first to touch NumPy, side by
    # side; each must wait for one complete import, not see a module half
    # built.  A fresh interpreter, since pytest's has NumPy loaded.
    code = (
        "import sys, threading, twisim.core as core\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.setswitchinterval(1e-6)\n"
        "start, sums = threading.Barrier(8), []\n"
        "def first_read():\n"
        "    start.wait()\n"
        "    sums.append(float(core.np.ones(4).sum()))\n"
        "threads = [threading.Thread(target=first_read) for _ in range(8)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join(60)\n"
        "import numpy\n"
        "print(sums, [thread.is_alive() for thread in threads].count(True), core.np.ones is numpy.ones)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(twisim.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (out.stdout, out.stderr) == (f"{[4.0] * 8} 0 True\n", "")


moderate = st.floats(min_value=0.0, max_value=1e6)
models = st.one_of(
    st.builds(Constant, moderate),
    st.builds(lambda low, width: UniformRange(low, low + width), moderate, moderate),
    st.builds(ShiftedExponential, st.one_of(st.just(0.0), moderate), st.floats(min_value=1e-3, max_value=1e3)),
    st.builds(TwoPoint, moderate, moderate, st.floats(min_value=0.0, max_value=1.0)),
    st.builds(lambda values: Empirical(tuple(values)), st.lists(moderate, min_size=1, max_size=20)),
)
sensors = st.builds(
    sensor,
    t_s=st.floats(min_value=1e-6, max_value=1e3),
    tau_s=st.one_of(st.just(0.0), moderate),
    mode=st.sampled_from(("synchronous", "asynchronous")),
)


def _allocating_draws(source, rng, size):
    """The draws as NumPy's allocating samplers make them."""
    if isinstance(source, ScenarioInput):  # a sensor: phase model plus delay
        return _allocating_draws(source.model, rng, size) + source.delay
    if isinstance(source, Constant):
        return np.full(size, float(source.value))
    if isinstance(source, UniformRange):
        return rng.uniform(source.low, source.high, size)
    if isinstance(source, ShiftedExponential):
        return source.shift + rng.exponential(1.0 / source.rate, size)
    if isinstance(source, TwoPoint):
        return np.where(rng.random(size) < source.p_a, float(source.value_a), float(source.value_b))
    return source.array[rng.integers(0, len(source.array), size)]


@given(
    source=st.one_of(models, sensors),
    size=st.integers(min_value=0, max_value=200),
    column=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=300, deadline=None)
def test_a_draw_into_a_column_is_the_allocating_draw(source, size, column, seed):
    draw = sample_sensor_detection_time if isinstance(source, ScenarioInput) else sample
    matrix = np.full((size, 3), np.nan, order="F")
    rngs = [chunk_rng(seed, 0) for _ in range(3)]
    assert draw(source, rngs[0], size, matrix[:, column]).base is matrix
    allocated = draw(source, rngs[1], size)
    reference = _allocating_draws(source, rngs[2], size)
    for drawn in (matrix[:, column], allocated):
        assert np.array_equal(drawn.view(np.uint64), reference.view(np.uint64))
    assert np.isnan(np.delete(matrix, column, axis=1)).all()  # no other memory written
    assert len({rng.random() for rng in rngs}) == 1  # the stream is at the same position

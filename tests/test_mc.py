import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twisim.analytics import TwoInputParams, expected_cv_two_input, p_sim_violation_n
from twisim import mc
from twisim.core import (
    Constant,
    Empirical,
    ParameterError,
    ShiftedExponential,
    TwoPoint,
    UniformRange,
    chunk_rng,
    sample,
)
from twisim.inputs import ScenarioInput, sensor
from twisim.mc import (
    CausalChainScenario,
    FanOutScenario,
    _chain_arrivals,
    _random_offset_twi,
    derived_seed,
    estimate_chain,
    estimate_cv_two_input,
    estimate_no_violation_sweep,
    estimate_sim_violation,
)
from twisim.twi import TwiSpec, stamp_array


def fixed_chain(values, taus):
    return CausalChainScenario(
        action_times=tuple(taus),
        inputs=tuple(ScenarioInput(Constant(v)) for v in values),
    )


def test_scenario_validation():
    with pytest.raises(ParameterError):
        CausalChainScenario(action_times=(), inputs=(ScenarioInput(Constant(1.0)),))
    with pytest.raises(ParameterError):
        CausalChainScenario(
            action_times=(1.0, 1.0), inputs=(ScenarioInput(Constant(1.0)),) * 2
        )
    with pytest.raises(ParameterError):
        CausalChainScenario(
            action_times=(1.0,),
            inputs=(
                sensor(t_s=1.0, sensor_id="a"),
                sensor(t_s=1.0, sensor_id="a"),
            ),
        )
    with pytest.raises(ParameterError):
        FanOutScenario(inputs=())


def pairwise_p(est):
    return tuple(e.p_hat for e in est.pairwise)


def test_chain_trial_deterministic_outcome():
    # occurrences 0, 1, 2; transmissions 0.5, 2.8, 0.2 -> arrivals 0.5, 3.8, 2.2
    s = fixed_chain([0.5, 2.8, 0.2], [1.0, 1.0])
    t = _chain_arrivals(s, chunk_rng(0, 0), 4)
    assert t == pytest.approx(np.tile([0.5, 3.8, 2.2], (4, 1)))
    # W = 0 compares raw times: only the pair (2, 3) is out of order
    assert stamp_array(t, 0.0) is t
    est = estimate_chain(s, TwiSpec(0.0), 100, seed=0)
    assert est.no_violation.p_hat == 0.0
    assert pairwise_p(est) == (1.0, 0.0)
    # a 5-unit window with zero offset stamps all three into window 1
    assert (stamp_array(t, 5.0) == 1.0).all()
    est = estimate_chain(s, TwiSpec(5.0), 100, seed=0)
    assert est.no_violation.p_hat == 1.0
    assert pairwise_p(est) == (1.0, 1.0)
    # a tie at W = 0 is in order: arrivals 1.0 and 1.0
    est = estimate_chain(fixed_chain([1.0, 0.0], [1.0]), TwiSpec(0.0), 100, seed=0)
    assert est.no_violation.p_hat == 1.0


def test_estimate_chain_deterministic_scenario():
    s = fixed_chain([0.5, 2.8, 0.2], [1.0, 1.0])
    est = estimate_chain(s, TwiSpec(0.0), 1000, seed=1)
    assert est.no_violation.p_hat == 0.0
    assert pairwise_p(est) == (1.0, 0.0)
    est = estimate_chain(s, TwiSpec(5.0), 1000, seed=1)
    assert est.no_violation.p_hat == 1.0
    assert est.no_violation.std_err == 0.0


def test_estimates_replay_bit_identically():
    s = CausalChainScenario(
        action_times=(0.5,) * 2,
        inputs=(ScenarioInput(ShiftedExponential(0.0, 2.0)),) * 3,
    )
    a = estimate_chain(s, TwiSpec(0.0), 70_000, seed=42)
    b = estimate_chain(s, TwiSpec(0.0), 70_000, seed=42)
    assert a == b
    c = estimate_chain(s, TwiSpec(0.0), 70_000, seed=43)
    assert c.no_violation.p_hat != a.no_violation.p_hat


def test_thread_count_does_not_change_estimates():
    s = CausalChainScenario(
        action_times=(0.5,) * 4,
        inputs=(ScenarioInput(ShiftedExponential(0.0, 2.0)),) * 5,
    )
    fanout = FanOutScenario(inputs=s.inputs)
    p = TwoInputParams(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=1.0, w=0.006)
    runs = [
        lambda threads: estimate_no_violation_sweep(
            s, [0.0, 0.3, 0.7, 2.0], 150_000, seed=7, threads=threads
        ),
        lambda threads: estimate_cv_two_input(
            p, UniformRange(0.002, 0.030), "digital", 150_000, seed=7, threads=threads
        ),
    ]
    for twi in (TwiSpec(0.0), TwiSpec(0.7, offset=None), TwiSpec(0.7, offset=0.2)):
        runs.append(lambda threads, twi=twi: estimate_chain(s, twi, 150_000, seed=7, threads=threads))
        runs.append(
            lambda threads, twi=twi: estimate_sim_violation(fanout, twi, 150_000, seed=7, threads=threads)
        )
    for run in runs:
        assert run(1) == run(4)


def test_two_rate_pair_matches_exact():
    # adjacent pair of the two-rate chain: ordered with probability 3/4
    s = CausalChainScenario(
        action_times=(0.5,),
        inputs=(ScenarioInput(TwoPoint(2.0, 1.0, 0.5)),) * 2,
    )
    est = estimate_chain(s, TwiSpec(0.0), 400_000, seed=3)
    se = est.no_violation.std_err
    assert abs(est.no_violation.p_hat - 0.75) <= 4.0 * se


def test_sensor_input_in_chain():
    # async sensor arrival is deterministic tau_s + t_s
    s = CausalChainScenario(
        action_times=(1.0,),
        inputs=(
            sensor(t_s=0.2, tau_s=0.1, mode="asynchronous"),
            ScenarioInput(Constant(0.5)),
        ),
    )
    t = _chain_arrivals(s, chunk_rng(0, 0), 1000)
    assert t == pytest.approx(np.tile([0.3, 1.5], (1000, 1)))
    est = estimate_chain(s, TwiSpec(0.0), 1000, seed=0)
    assert est.no_violation.p_hat == 1.0


def test_anchor_first_arrival_realigns_grid():
    # arrivals 0.52 and 0.50: the absolute grid 0.5k puts them in windows 2
    # and 1 (violation), the anchored grid keeps them in one window
    s = fixed_chain([0.52, 0.0], [0.5])
    anchored = CausalChainScenario(
        action_times=s.action_times, inputs=s.inputs, anchor_first_arrival=True
    )
    assert estimate_chain(s, TwiSpec(0.5), 100, seed=1).no_violation.p_hat == 0.0
    assert estimate_chain(anchored, TwiSpec(0.5), 100, seed=1).no_violation.p_hat == 1.0


def test_sweep_crn_monotone_for_fixed_arrivals():
    s = fixed_chain([1.3, 0.2], [1.0])  # arrivals 1.3, 1.2: violated gap 0.1
    ws = [0.0, 0.2, 0.4, 0.8, 1.6]
    ests = estimate_no_violation_sweep(s, ws, 200_000, seed=11)
    # W = 0 always violated; then no-violation prob = 1 - 0.1/W
    assert ests[0].p_hat == 0.0
    for w, e in zip(ws[1:], ests[1:]):
        expected = 1.0 - min(1.0, 0.1 / w)
        assert abs(e.p_hat - expected) <= 4.0 * max(e.std_err, 1e-4)
    # common random numbers: exactly nondecreasing for a single ramp
    assert all(b.p_hat >= a.p_hat for a, b in zip(ests, ests[1:]))


def test_sweep_without_crn_is_independent_but_consistent():
    s = CausalChainScenario(
        action_times=(1.0,),
        inputs=(ScenarioInput(ShiftedExponential(0.0, 2.0)),) * 2,
    )
    ws = [0.5, 1.0]
    crn = estimate_no_violation_sweep(s, ws, 150_000, seed=2, common_random_numbers=True)
    ind = estimate_no_violation_sweep(s, ws, 150_000, seed=2, common_random_numbers=False)
    for a, b in zip(crn, ind):
        assert abs(a.p_hat - b.p_hat) <= 5.0 * math.hypot(a.std_err, b.std_err)


def test_derived_seed_stable_and_distinct():
    assert derived_seed(1, 2) == derived_seed(1, 2)
    assert derived_seed(1, 2) != derived_seed(1, 3)
    assert derived_seed(2, 2) != derived_seed(1, 2)


@pytest.mark.parametrize("trials", [1, 2, 10, 1000, 1 << 19])
def test_wilson_interval_keeps_its_width_at_zero_and_one(trials):
    none, every = mc._make_estimate(0, trials, 1), mc._make_estimate(np.int64(trials), trials, 1)
    assert none.ci95[0] == 0.0 < none.ci95[1] and none.std_err == 0.0
    assert every.ci95[0] < every.ci95[1] == 1.0 and every.std_err == 0.0
    assert every.ci95[0] == pytest.approx(1.0 - none.ci95[1], abs=1e-15)
    for k in range(min(trials, 50) + 1):
        e = mc._make_estimate(k, trials, 1)
        assert 0.0 <= e.ci95[0] <= e.p_hat <= e.ci95[1] <= 1.0


def test_wilson_interval_reference_values():
    # 95% Wilson intervals (z = 1.96): 0/10 -> [0, 0.2775], 50/100 -> [0.4038, 0.5962]
    assert mc._make_estimate(0, 10, 1).ci95 == pytest.approx((0.0, 0.2775402), abs=1e-7)
    assert mc._make_estimate(50, 100, 1).ci95 == pytest.approx((0.4038298, 0.5961702), abs=1e-7)
    e = mc._make_estimate(50, 100, 1)
    assert (e.p_hat, e.std_err) == (0.5, 0.05)  # the estimate and its SE are the Wald ones


def test_sim_violation_fixed_arrivals():
    # arrivals 1 and 3; random offset, W=4 -> p = 2/4
    s = FanOutScenario(inputs=(ScenarioInput(Constant(1.0)), ScenarioInput(Constant(3.0))))
    est = estimate_sim_violation(s, TwiSpec(4.0, offset=None), 200_000, seed=6)
    assert abs(est.p_hat - p_sim_violation_n([1.0, 3.0], 4.0)) <= 4.0 * est.std_err
    # single input never violates
    single = FanOutScenario(inputs=(ScenarioInput(UniformRange(0.0, 1.0)),))
    est = estimate_sim_violation(single, TwiSpec(4.0, offset=None), 1000, seed=6)
    assert est.p_hat == 0.0


def test_sim_violation_raw_mode():
    s = FanOutScenario(inputs=(ScenarioInput(Constant(1.0)), ScenarioInput(Constant(1.0))))
    assert estimate_sim_violation(s, TwiSpec(0.0), 1000, seed=1).p_hat == 0.0
    s = FanOutScenario(inputs=(ScenarioInput(Constant(1.0)), ScenarioInput(Constant(1.5))))
    assert estimate_sim_violation(s, TwiSpec(0.0), 1000, seed=1).p_hat == 1.0


@pytest.mark.parametrize("cause", ["physical", "digital"])
def test_cv_two_input_matches_oracle(cause):
    p = TwoInputParams(
        t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=1.0, w=0.006
    )
    model = UniformRange(0.002, 0.030)
    est = estimate_cv_two_input(p, model, cause, 300_000, seed=8)
    exact = expected_cv_two_input(p, model, cause)
    assert abs(est.p_hat - exact) <= 4.0 * est.std_err


def test_cv_two_input_rejects_negative_tau_a_for_physical():
    p = TwoInputParams(t_s=0.010, tau_s=0.0, tau_a=-0.001, t_min=0.0, t_max=1.0, w=0.0)
    with pytest.raises(ParameterError):
        estimate_cv_two_input(p, Constant(0.001), "physical", 100, seed=1)
    estimate_cv_two_input(p, Constant(0.001), "digital", 100, seed=1)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_chunk_streams_differ(chunks, seed):
    draws = [chunk_rng(seed, c).random(4).tolist() for c in range(chunks + 1)]
    assert len({tuple(d) for d in draws}) == chunks + 1


def test_chunk_arrivals_are_input_major():
    s = CausalChainScenario(
        action_times=(0.5,) * 2,
        inputs=(ScenarioInput(ShiftedExponential(0.0, 2.0)),) * 3,
    )
    t = _chain_arrivals(s, chunk_rng(1, 0), 1000)
    assert t.shape == (1000, 3)
    assert t.flags.f_contiguous


TRACE = Empirical((0.2, 0.5, 1.1, 0.05))
SYNC_SENSOR = sensor(t_s=0.25, tau_s=0.1, sensor_id="s0")
ASYNC_SENSOR = sensor(t_s=0.6, mode="asynchronous", sensor_id="s1")


@pytest.mark.parametrize(
    "s",
    [
        CausalChainScenario(
            action_times=(0.5, 0.0, 0.1, 0.3, 0.2),
            inputs=(
                ScenarioInput(TwoPoint(0.1, 1.3, 0.3), 0.2),
                SYNC_SENSOR,
                ScenarioInput(TRACE, 0.7),
                ASYNC_SENSOR,
                ScenarioInput(ShiftedExponential(0.05, 2.0)),
                ScenarioInput(UniformRange(0.1, 0.9), 0.05),
            ),
        ),
        FanOutScenario(
            (
                SYNC_SENSOR,
                ASYNC_SENSOR,
                ScenarioInput(TRACE, 0.3),
                ScenarioInput(TRACE),
                ScenarioInput(Constant(0.4), 0.1),
            )
        ),
    ],
    ids=["chain", "fanout"],
)
def test_chain_arrivals_are_the_stacked_input_draws(s):
    count = 1000
    drawn = chunk_rng(3, 0)
    t = _chain_arrivals(s, drawn, count)
    rng = chunk_rng(3, 0)  # inputs in order, then the offset fractions
    columns = [sample(inp.model, rng, count) + inp.delay for inp in s.inputs]
    expected = np.column_stack(columns) + s.occurrence_offsets()
    assert np.array_equal(t.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(drawn.random(count), rng.random(count))


SWEEP_MODELS = (
    Constant(0.4),
    UniformRange(0.1, 0.9),
    ShiftedExponential(0.05, 2.0),
    TwoPoint(0.1, 1.3, 0.3),
    Empirical((0.2, 0.5, 1.1, 0.05)),
)
chain_inputs = st.one_of(
    st.builds(ScenarioInput, st.sampled_from(SWEEP_MODELS), st.sampled_from((0.0, 0.2))),
    st.builds(
        sensor,
        t_s=st.sampled_from((0.25, 0.6)),
        tau_s=st.sampled_from((0.0, 0.1)),
        mode=st.sampled_from(("synchronous", "asynchronous")),
    ),
)


@given(
    inputs=st.lists(chain_inputs, min_size=2, max_size=6),
    tau=st.sampled_from((0.0, 0.1, 0.5)),
    anchor=st.booleans(),
    ws=st.lists(st.sampled_from((0.0, 0.05, 0.3, 0.7, 1.5, 4.0)), min_size=1, max_size=5, unique=True),
    trials=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
    threads=st.sampled_from((1, 2)),
)
@settings(max_examples=40, deadline=None)
def test_crn_sweep_point_equals_the_dense_chain_estimate(inputs, tau, anchor, ws, trials, seed, threads):
    # the sweep stamps only raw-inverted pairs; estimate_chain stamps all
    s = CausalChainScenario(
        action_times=(tau,) * (len(inputs) - 1),
        inputs=tuple(inputs),
        anchor_first_arrival=anchor,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "CHUNK_SIZE", 64)  # several chunks from few trials
        sweep = estimate_no_violation_sweep(s, ws, trials, seed, threads=threads)
        for w, e in zip(ws, sweep):
            assert e == estimate_chain(s, _random_offset_twi(w), trials, seed).no_violation
            assert type(e.p_hat) is float


def test_anchored_sweep_compares_raw_times_at_w0():
    # arrivals 2^-54, 0.75 + 2^-53 and 0.75: shifted by the first arrival,
    # the inverted pair rounds to one value (ties to even), but W = 0
    # compares raw times, so the trial is violated there
    q = 2.0**-54
    s = CausalChainScenario(
        action_times=(0.0, 0.0),
        inputs=tuple(ScenarioInput(Constant(v)) for v in (q, 0.75 + 2 * q, 0.75)),
        anchor_first_arrival=True,
    )
    ws = [0.0, 0.5]
    sweep = estimate_no_violation_sweep(s, ws, 100, seed=1)
    assert [e.p_hat for e in sweep] == [0.0, 1.0]
    for w, e in zip(ws, sweep):
        assert e == estimate_chain(s, _random_offset_twi(w), 100, seed=1).no_violation


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_counts_violated_trials_not_pairs(threads):
    # arrivals 3, 1, 3, 1: every trial has two inverted pairs, each of gap 2,
    # so a trial counted once per violated pair would give a negative estimate
    s = fixed_chain([3.0, 1.0, 3.0, 1.0], [0.0, 0.0, 0.0])
    trials = 2 * mc.CHUNK_SIZE + 100  # three chunks
    sweep = estimate_no_violation_sweep(s, [0.0, 0.5, 1.0, 4.0], trials, seed=9, threads=threads)
    assert [e.p_hat for e in sweep[:3]] == [0.0, 0.0, 0.0]
    dense = estimate_chain(s, _random_offset_twi(4.0), trials, seed=9, threads=threads).no_violation
    assert sweep[3].p_hat == dense.p_hat
    assert 0.45 < dense.p_hat < 0.55  # both pairs share a window with probability 1 - 2/4


def _usable_cpus(monkeypatch, n):
    """Let this process run on n CPUs, as mc reads them from its affinity."""
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_worker_pool_is_bounded_by_chunks_and_cpus(monkeypatch):
    targets = []

    class RecordingThread:
        """Stands in for threading.Thread: records its target, runs it inline.
        The calling thread is a worker too, so a call makes one helper fewer
        than it has workers, each helper with the call's own target."""

        def __init__(self, target):
            targets.append(target)
            self.target = target

        def start(self):
            self.target()

        def join(self):
            pass

    def sizes():
        return [targets.count(t) for t in dict.fromkeys(targets)]

    s = CausalChainScenario(
        action_times=(0.5,),
        inputs=(ScenarioInput(ShiftedExponential(0.0, 2.0)),) * 2,
    )
    monkeypatch.setattr(mc, "CHUNK_SIZE", 16)
    monkeypatch.setattr(mc, "Thread", RecordingThread)
    _usable_cpus(monkeypatch, 4)
    serial = {trials: estimate_chain(s, TwiSpec(0.0), trials, seed=3) for trials in (48, 160)}
    for trials, threads in ((48, 1000), (160, 1000), (160, 2)):
        assert estimate_chain(s, TwiSpec(0.0), trials, seed=3, threads=threads) == serial[trials]
    # workers: min(threads, chunks, CPUs), the calling thread and its helpers
    assert [helpers + 1 for helpers in sizes()] == [3, 4, 2]
    monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    assert estimate_chain(s, TwiSpec(0.0), 160, seed=3, threads=1000) == serial[160]
    assert [helpers + 1 for helpers in sizes()] == [3, 4, 2]


def test_no_helper_thread_starts_on_one_usable_cpu(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK_SIZE", 16)
    _usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)  # the machine has more than the process may use
    before = threading.active_count()
    seen = []

    def fn(c, count):
        seen.append((threading.get_ident(), threading.active_count()))
        return [count]

    assert mc._map_chunks(fn, 4 * 16, threads=4) == [64]
    assert seen == [(threading.get_ident(), before)] * 4


def test_the_calling_thread_runs_chunks(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK_SIZE", 16)
    _usable_cpus(monkeypatch, 2)
    both = threading.Barrier(2, timeout=10)  # both chunks run at once, one per worker
    ran = {}

    def fn(c, count):
        both.wait()
        ran[c] = threading.get_ident()
        return [count]

    assert mc._map_chunks(fn, 32, threads=2) == [32]
    assert sorted(ran) == [0, 1]
    assert threading.get_ident() in ran.values()
    assert len(set(ran.values())) == 2


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("threads", [1, 2])
def test_the_callers_numpy_error_state_is_restored(monkeypatch, threads, fails):
    monkeypatch.setattr(mc, "CHUNK_SIZE", 16)
    _usable_cpus(monkeypatch, 2)
    overflow = []

    def fn(c, count):
        overflow.append(np.geterr()["over"])
        if fails and c == 1:
            raise ValueError("chunk 1")
        return [count]

    with np.errstate(all="ignore", over="warn"):
        state = np.geterr()
        if fails:
            with pytest.raises(ValueError, match="^chunk 1$"):
                mc._map_chunks(fn, 4 * 16, threads)
        else:
            assert mc._map_chunks(fn, 4 * 16, threads) == [64]
        assert np.geterr() == state
    assert overflow and set(overflow) == {"raise"}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_the_lowest_failing_chunk_raises_and_no_chunk_is_claimed_after_a_failure(monkeypatch, threads):
    monkeypatch.setattr(mc, "CHUNK_SIZE", 16)
    _usable_cpus(monkeypatch, 3)
    ran = []

    def fn(c, count):
        ran.append(c)
        if c in (1, 3):
            raise ValueError(f"chunk {c}")
        return [count]

    with pytest.raises(ValueError, match="^chunk 1$"):
        mc._map_chunks(fn, 6 * 16, threads)
    # chunks are claimed in order: those that ran are a prefix
    assert sorted(ran) == list(range(len(ran)))
    if threads == 1:
        assert ran == [0, 1]


widths = st.sampled_from((0.05, 0.3, 1.5, 4.0))
windows = st.one_of(
    st.just(TwiSpec(0.0)),
    st.builds(lambda w, frac: TwiSpec(w, offset=frac * w), widths, st.sampled_from((0.0, 0.25, 0.9))),
    st.builds(lambda w: TwiSpec(w, offset=None), widths),
)


def _dense_chain_tallies(s, twis, trials, seed):
    """Reference chain tallies: every arrival of every trial stamped with
    stamp_array, window by window, on each chunk's draws."""
    tallies = [[0] * s.n for _ in twis]
    for c, count in mc._chunk_ranges(trials):
        rng = chunk_rng(seed, c)
        t = _chain_arrivals(s, rng, count)
        u = rng.random(count) if any(twi.random_offset for twi in twis) else None
        for tally, twi in zip(tallies, twis):
            x = t - t[:, :1] if s.anchor_first_arrival and twi.window > 0.0 else t
            stamps = stamp_array(x, twi.window, u[:, None] * twi.window if twi.random_offset else twi.offset)
            ok = stamps[:, 1:] >= stamps[:, :-1]
            for i, n in enumerate([ok.all(axis=1).sum(), *ok.sum(axis=0)]):
                tally[i] += int(n)
    return tallies


# Models with atoms: two-point ones that always, never or sometimes take
# value_a, or whose atoms are equal, and constants
ATOMIC_MODELS = (
    Constant(0.4),
    Constant(0.0),
    TwoPoint(0.1, 1.3, 0.3),
    TwoPoint(1.3, 0.1, 0.3),
    TwoPoint(0.1, 1.3, 0.0),
    TwoPoint(0.1, 1.3, 1.0),
    TwoPoint(0.5, 0.5, 0.5),
    TwoPoint(2.0, 1.0, 0.5),
)
atomic_inputs = st.one_of(
    st.builds(ScenarioInput, st.sampled_from(ATOMIC_MODELS), st.sampled_from((0.0, 0.2))),
    st.builds(
        sensor, t_s=st.sampled_from((0.25, 0.6)), tau_s=st.sampled_from((0.0, 0.1)), mode=st.just("asynchronous")
    ),
)


@given(
    # all-atomic inputs at W = 0 only count from the atoms each input took
    inputs=st.one_of(st.lists(chain_inputs, min_size=2, max_size=6), st.lists(atomic_inputs, min_size=2, max_size=6)),
    tau=st.sampled_from((0.0, 0.1, 0.5)),
    anchor=st.booleans(),
    twis=st.one_of(st.lists(windows, min_size=1, max_size=4), st.lists(st.just(TwiSpec(0.0)), min_size=1, max_size=2)),
    trials=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
    threads=st.sampled_from((1, 2)),
)
@example(
    inputs=[ScenarioInput(TwoPoint(2.0, 1.0, 0.5))] * 4,
    tau=0.5,
    anchor=False,
    twis=[TwiSpec(0.0)],
    trials=300,
    seed=7,
    threads=2,
)
@example(
    inputs=[ScenarioInput(TwoPoint(0.0, 2.0, 0.5)), ScenarioInput(TwoPoint(3.0, 1.0, 0.5)), ASYNC_SENSOR],
    tau=0.0,
    anchor=True,
    twis=[TwiSpec(0.0), TwiSpec(0.0)],
    trials=300,
    seed=7,
    threads=1,
)
@settings(max_examples=80, deadline=None)
def test_chain_tallies_equal_those_of_stamping_every_arrival(inputs, tau, anchor, twis, trials, seed, threads):
    s = CausalChainScenario((tau,) * (len(inputs) - 1), tuple(inputs), anchor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "CHUNK_SIZE", 64)  # several chunks from few trials
        tallies = mc.chain_tallies(s, twis, trials, seed, threads)
        assert tallies == _dense_chain_tallies(s, twis, trials, seed)
        # a window's tallies do not depend on the other windows in the list
        for twi, tally in zip(twis, tallies):
            assert mc.chain_tallies(s, [twi], trials, seed, threads) == [tally]
    assert all(type(n) is int for tally in tallies for n in tally)


def _arrival_draws(monkeypatch, s, twis):
    """How many times chain_tallies forms arrival times for 100 trials."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _chain_arrivals(*args)

    monkeypatch.setattr(mc, "_chain_arrivals", recording)
    mc.chain_tallies(s, twis, 100, seed=1)
    return len(calls)


def test_only_w0_chains_of_atomic_inputs_skip_the_arrival_times(monkeypatch):
    two_point = ScenarioInput(TwoPoint(2.0, 1.0, 0.5))
    inputs = (two_point, ASYNC_SENSOR, ScenarioInput(Constant(0.3), 0.2), two_point)
    atomic = CausalChainScenario((0.5, 0.0, 0.1), inputs)
    assert _arrival_draws(monkeypatch, atomic, [TwiSpec(0.0), TwiSpec(0.0)]) == 0
    assert _arrival_draws(monkeypatch, atomic, [TwiSpec(0.0), TwiSpec(0.5)]) == 1
    continuous = CausalChainScenario((0.5, 0.5), (two_point, SYNC_SENSOR, two_point))
    assert _arrival_draws(monkeypatch, continuous, [TwiSpec(0.0)]) == 1


@pytest.mark.parametrize(
    "twi", [TwiSpec(0.5, offset=0.2), TwiSpec(0.5, offset=None), TwiSpec(0.0)], ids=["fixed", "random", "w0"]
)
def test_a_fanout_is_stamped_through_ordered_pairs_exactly_when_w_is_above_0(monkeypatch, twi):
    calls = []
    ordered_pairs = mc._ordered_pairs

    def recording(t, u, spec):
        calls.append((t.shape[1], u is None, spec))
        return ordered_pairs(t, u, spec)

    monkeypatch.setattr(mc, "_ordered_pairs", recording)
    fanout = FanOutScenario((SYNC_SENSOR, ScenarioInput(UniformRange(0.0, 1.0)), ASYNC_SENSOR))
    estimate_sim_violation(fanout, twi, 100, seed=1)
    # one chunk, stamped as the pair (latest, earliest)
    assert calls == ([(2, not twi.random_offset, twi)] if twi.window > 0 else [])


@given(
    inputs=st.lists(chain_inputs, min_size=1, max_size=6),
    twi=windows,
    trials=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
    threads=st.sampled_from((1, 2)),
)
@settings(max_examples=60, deadline=None)
def test_fanout_stamped_at_its_extremes_counts_as_stamped_densely(inputs, twi, trials, seed, threads):
    s = FanOutScenario(tuple(inputs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "CHUNK_SIZE", 64)  # several chunks from few trials
        est = estimate_sim_violation(s, twi, trials, seed, threads=threads)
        dense = 0
        for c, count in mc._chunk_ranges(trials):
            rng = chunk_rng(seed, c)
            t = _chain_arrivals(s, rng, count)
            offset = rng.random(count)[:, None] * twi.window if twi.random_offset else twi.offset
            stamps = stamp_array(t, twi.window, offset)
            dense += np.count_nonzero((stamps != stamps[:, :1]).any(axis=1))
    assert est == mc._make_estimate(dense, trials, seed)


# Estimates at 40000 trials (a full chunk and a partial one), recorded before
# the offset fractions were drawn only where a window reads them; they are
# each chunk's last draws, so no estimate may move.  The "digital" entries
# were re-recorded when the two-input receiver became a two-event chain: its
# digital cause draws the link before the sensor's phase.
GOLDEN_CHAIN = CausalChainScenario(
    action_times=(0.3, 0.0, 0.2),
    inputs=(
        ScenarioInput(ShiftedExponential(0.05, 2.0), 0.1),
        SYNC_SENSOR,
        ScenarioInput(TwoPoint(0.1, 1.3, 0.3)),
        ScenarioInput(TRACE, 0.2),
    ),
)
GOLDEN_WINDOWS = {"w0": TwiSpec(0.0), "fixed": TwiSpec(0.7, offset=0.2), "random": TwiSpec(0.7, offset=None)}
GOLDEN_P_HAT = {
    "w0": {
        "chain": 0.12495,
        "pairs": [0.711725, 0.7035, 0.47215],
        "fanout": 0.886075,
        "sweep": [0.12495, 0.6331],
        "sweep_w0": [0.12495],
        "physical": 0.891875,
        "digital": 0.174725,
    },
    "fixed": {
        "chain": 0.36775,
        "pairs": [0.776775, 1.0, 0.47215],
        "fanout": 0.840625,
        "sweep": [0.3193, 0.6331],
        "sweep_w0": [0.12495],
        "physical": 0.011075,
        "digital": 0.0007,
    },
    "random": {
        "chain": 0.3193,
        "pairs": [0.8449, 0.840675, 0.5481],
        "fanout": 0.547975,
        "sweep": [0.3193, 0.6331],
        "sweep_w0": [0.12495],
        "physical": 0.011075,
        "digital": 0.0007,
    },
}


GOLDEN_LINKS = {"physical": ShiftedExponential(0.002, 200.0), "digital": Empirical((0.001, 0.004, 0.012, 0.02))}


def _golden_receiver(w):
    # the receiver's offset is random for W > 0, fixed at 0 for W = 0
    return TwoInputParams(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=1.0, w=w)


def _golden_estimates(twi):
    fanout = FanOutScenario(
        (ScenarioInput(TwoPoint(0.2, 0.5, 0.3)), ScenarioInput(TwoPoint(0.5, 0.2, 0.4)), ScenarioInput(TRACE))
    )
    receiver = _golden_receiver(twi.window)
    chain = estimate_chain(GOLDEN_CHAIN, twi, 40_000, seed=5)
    return {
        "chain": chain.no_violation.p_hat,
        "pairs": [e.p_hat for e in chain.pairwise],
        "fanout": estimate_sim_violation(fanout, twi, 40_000, seed=5).p_hat,
        # a sweep has a random offset for W > 0; one of W = 0 alone draws none
        "sweep": [e.p_hat for e in estimate_no_violation_sweep(GOLDEN_CHAIN, [twi.window, 1.5], 40_000, seed=5)],
        "sweep_w0": [e.p_hat for e in estimate_no_violation_sweep(GOLDEN_CHAIN, [0.0], 40_000, seed=5)],
        **{
            cause: estimate_cv_two_input(receiver, model, cause, 40_000, 5).p_hat
            for cause, model in GOLDEN_LINKS.items()
        },
    }


@pytest.mark.parametrize("window", GOLDEN_WINDOWS)
def test_estimates_equal_the_recorded_ones(window):
    assert _golden_estimates(GOLDEN_WINDOWS[window]) == GOLDEN_P_HAT[window]


@pytest.mark.parametrize("cause", GOLDEN_LINKS)
@pytest.mark.parametrize("window", GOLDEN_WINDOWS)
def test_recorded_receiver_estimates_lie_near_the_oracle(window, cause):
    recorded = GOLDEN_P_HAT[window][cause]
    exact = expected_cv_two_input(_golden_receiver(GOLDEN_WINDOWS[window].window), GOLDEN_LINKS[cause], cause)
    assert abs(recorded - exact) <= 4.0 * math.sqrt(recorded * (1.0 - recorded) / 40_000)


TINY = TwiSpec(1e-310)  # 2.0 / 1e-310 overflows to inf
PAIR = fixed_chain([2.0, 1.0], [0.0])
IN_ORDER = fixed_chain([1.0, 1.0], [0.5])  # no raw-inverted pair for a sweep to stamp


@pytest.mark.parametrize(
    "estimate",
    [
        lambda threads: estimate_chain(PAIR, TINY, 100, 1, threads),
        lambda threads: estimate_chain(PAIR, TwiSpec(1e-310, None), 100, 1, threads),
        lambda threads: estimate_no_violation_sweep(PAIR, [0.5, 1e-310], 100, 1, True, threads),
        lambda threads: estimate_no_violation_sweep(IN_ORDER, [0.0, 1e-310], 100, 1, True, threads),
        lambda threads: estimate_no_violation_sweep(
            CausalChainScenario(IN_ORDER.action_times, IN_ORDER.inputs, True), [1e-310], 100, 1, True, threads
        ),
        lambda threads: estimate_sim_violation(FanOutScenario(PAIR.inputs), TINY, 100, 1, threads),
        lambda threads: estimate_cv_two_input(
            TwoInputParams(1.0, 0.0, 0.0, 0.0, 2.0, 1e-310), Constant(2.0), "digital", 100, 1, threads
        ),
    ],
    ids=[
        "chain", "chain-random-offset", "crn-sweep", "crn-sweep-in-order", "crn-sweep-anchored", "fanout", "cv-two-input"
    ],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_a_window_too_small_for_the_arrivals_is_a_parameter_error(monkeypatch, estimate, threads):
    # every stamp would overflow to inf and compare equal; the scalar
    # twi.stamp(2.0, 1e-310) raises the same way, also in a pool worker
    monkeypatch.setattr(mc, "CHUNK_SIZE", 64)  # two chunks
    with pytest.raises(ParameterError, match="window 1e-310 is too small"):
        estimate(threads)


def _outcome(estimate):
    try:
        return estimate()
    except ParameterError as exc:
        return str(exc)


@given(
    values=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=4),
    anchor=st.booleans(),
    scale=st.floats(min_value=0.5, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_a_crn_sweep_raises_at_a_width_exactly_where_the_dense_chain_does(values, anchor, scale, seed):
    # widths about where the largest stamped time over W overflows
    s = CausalChainScenario((0.1,) * (len(values) - 1), tuple(ScenarioInput(Constant(v)) for v in values), anchor)
    w = (max(values) + 0.1 * len(values)) / sys.float_info.max * scale
    dense = _outcome(lambda: estimate_chain(s, _random_offset_twi(w), 50, seed).no_violation)
    assert _outcome(lambda: estimate_no_violation_sweep(s, [w], 50, seed)[0]) == dense


def test_arrivals_that_overflow_raise_rather_than_stamp_inf():
    huge = FanOutScenario((ScenarioInput(ShiftedExponential(0.0, 1e-308)), ScenarioInput(Constant(1.0))))
    with pytest.raises(FloatingPointError, match="overflow"):  # an ArithmeticError: the CLI exits 3
        estimate_sim_violation(huge, TwiSpec(1.0), 100, 1)

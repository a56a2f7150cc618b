"""Monte-Carlo estimation of simultaneity/causality violation probabilities.

Scenarios are causal chains (event i causes event i+1 after a fixed action
time) and fan-outs (one event perceived through N inputs).  Trials are
chunked; every chunk derives its random stream from (seed, chunk_index) and
returns integer tallies, which ``_map_chunks`` sums in chunk order, so
estimates are bit-identical for any thread count.  The calling thread runs
chunks beside plain helper threads, one worker per usable CPU at most, and
each worker sets NumPy to raise on overflow once, for all its chunks.
Every estimate counts through ``chain_tallies`` over a list of windows:
W = 0 counts raw inversions, and W > 0 stamps only the inverted pairs.  A
fan-out is the two-column chain (latest, earliest) of each trial's
arrivals, stamped out of order exactly when its N stamps differ.  A W = 0
chain whose inputs all have atoms counts its inversions from which atom
each input took, with no arrival times.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from threading import Thread
from typing import Optional, Sequence, Union

from twisim.core import (
    Duration,
    ParameterError,
    RandomSeed,
    TransmissionTimeModel,
    _shown,
    chunk_rng,
    ensure_duration,
    np,
    sample,
)
from twisim.analytics import TwoInputParams, _check_cause
from twisim.inputs import ScenarioInput, sensor
from twisim.twi import TwiSpec, stamp_array

CHUNK_SIZE = 1 << 15


def _check_inputs(inputs: Sequence[ScenarioInput]) -> None:
    seen = set()
    for inp in inputs:
        if inp.sensor_id is None:
            continue
        if inp.sensor_id in seen:
            raise ParameterError(
                f"sensor id {_shown(inp.sensor_id)} used by two inputs; a scenario's "
                "inputs must not share a sensor_id"
            )
        seen.add(inp.sensor_id)


@dataclass(frozen=True)
class CausalChainScenario:
    """N causally ordered source events; event i+1 occurs action_times[i]
    after event i, and each event reaches the receiver through its input."""

    action_times: tuple[Duration, ...]
    inputs: tuple[ScenarioInput, ...]
    anchor_first_arrival: bool = False  # align the window grid to the first arrival

    def __post_init__(self) -> None:
        if len(self.inputs) < 2:
            raise ParameterError("a chain needs at least two inputs")
        if len(self.action_times) != len(self.inputs) - 1:
            raise ParameterError(
                f"need {len(self.inputs) - 1} action times for {len(self.inputs)} inputs, "
                f"got {len(self.action_times)}"
            )
        for tau in self.action_times:
            ensure_duration(tau, "action time")
        _check_inputs(self.inputs)

    @property
    def n(self) -> int:
        return len(self.inputs)

    def occurrence_offsets(self) -> np.ndarray:
        """Occurrence time of each source event, first event at t = 0."""
        return np.concatenate([[0.0], np.cumsum(self.action_times)])


@dataclass(frozen=True)
class FanOutScenario:
    """A single source event perceived through N independent inputs."""

    inputs: tuple[ScenarioInput, ...]

    def __post_init__(self) -> None:
        if len(self.inputs) < 1:
            raise ParameterError("a fan-out needs at least one input")
        _check_inputs(self.inputs)

    @property
    def n(self) -> int:
        return len(self.inputs)

    def occurrence_offsets(self) -> np.ndarray:
        """Occurrence time of the source event for each input: all at t = 0."""
        return np.zeros(self.n)


@dataclass(frozen=True)
class ViolationEstimate:
    p_hat: float
    trials: int
    std_err: float
    ci95: tuple[float, float]
    seed: RandomSeed


@dataclass(frozen=True)
class ChainEstimate:
    """Joint and pairwise ordering estimates computed on the same trials."""

    no_violation: ViolationEstimate
    pairwise: tuple[ViolationEstimate, ...] = field(default_factory=tuple)


def _wilson_low(successes: int, trials: int) -> float:
    """Lower end of the 95% Wilson score interval (Brown, Cai & DasGupta,
    Stat. Sci. 2001); exactly 0 for no successes."""
    p = successes / trials
    z2 = 1.96 * 1.96 / trials
    return (p + z2 / 2 - math.sqrt(z2 * (p * (1.0 - p) + z2 / 4))) / (1.0 + z2)


def _make_estimate(successes: int, trials: int, seed: RandomSeed) -> ViolationEstimate:
    successes = int(successes)  # a Python int, also for NumPy counts
    p = successes / trials
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    # Unlike p +- 1.96 se, the Wilson interval keeps its width at p = 0 and 1;
    # its upper end is 1 minus the lower end for the failures.
    ci = (_wilson_low(successes, trials), 1.0 - _wilson_low(trials - successes, trials))
    return ViolationEstimate(p, trials, se, ci, seed)


def _random_offset_twi(w: float) -> TwiSpec:
    """Window w with a random offset; W = 0 compares raw times."""
    return TwiSpec(w, offset=None if w > 0 else 0.0)


def _chain_arrivals(
    s: Union[CausalChainScenario, FanOutScenario], rng: np.random.Generator, count: int
) -> np.ndarray:
    """(count, N) arrival times, input-major (Fortran order): each input's
    draws fill one contiguous column, so row-wise stamping and reductions
    run as N vector operations.  Inputs, links and sensors alike, are drawn
    in order, each model straight into its column, which then gets the
    input's delay and the event's occurrence time added in place.  Adding
    0.0 is skipped; draws are >= +0, so it would change none of them.  A
    caller that needs offset fractions draws them from ``rng`` next."""
    t = np.empty((count, s.n), order="F")
    for i, (inp, occurs) in enumerate(zip(s.inputs, s.occurrence_offsets())):
        col = t[:, i]
        sample(inp.model, rng, count, col)
        if inp.delay:
            col += inp.delay
        if occurs:
            col += occurs
    return t


def _inversion_forms(s: CausalChainScenario) -> Optional[list[tuple[bool, bool, bool, bool]]]:
    """When every input's model has atoms: for each adjacent pair, its 2x2
    table of arrival atom comparisons as the coefficients (c, a, b, d) of its
    algebraic normal form.  The pair is inverted iff c ^ (a & p) ^ (b & q) ^
    (d & p & q), where p and q say that the earlier and the later input took
    their first atom; a one-atom input's rows are equal, so its p or q is
    unread.  The atoms get the float operations ``_chain_arrivals`` applies
    to a draw.  None if an input has no atoms or an arrival atom overflows:
    then the arrivals are drawn, and a drawn arrival that overflows raises."""
    arrivals = []
    for inp, occurs in zip(s.inputs, s.occurrence_offsets()):
        atoms = inp.model.atoms()
        if atoms is None:
            return None
        a = np.array(atoms)
        with np.errstate(over="ignore"):
            if inp.delay:
                a += inp.delay
            if occurs:
                a += occurs
        if not np.isfinite(a).all():
            return None
        arrivals.append(a.tolist())
    forms = []
    for first, then in zip(arrivals, arrivals[1:]):
        (tt, tf), (ft, ff) = [[then[y] < first[x] for y in (0, -1)] for x in (0, -1)]
        forms.append((ff, tf ^ ff, ft ^ ff, tt ^ tf ^ ft ^ ff))
    return forms


# (a, b) -> the name of the ufunc whose value is (p & q) ^ (a & p) ^ (b & q)
_WITH_PQ = {
    (False, False): "logical_and",
    (True, False): "greater",  # p & ~q
    (False, True): "less",  # ~p & q
    (True, True): "logical_or",
}


def _atom_inversions(
    s: CausalChainScenario, forms: list[tuple[bool, bool, bool, bool]], rng: np.random.Generator, scratch: np.ndarray
) -> np.ndarray:
    """(len(scratch), N-1) raw inversions of adjacent pairs, as
    ``_chain_arrivals``' draws would give them, from ``rng``'s picks of each
    two-atom input, in input order, through the float64 column ``scratch``."""
    picks = [inp.model.pick_into(rng, scratch) if len(inp.model.atoms()) == 2 else None for inp in s.inputs]
    inverted = np.empty((len(scratch), s.n - 1), dtype=bool, order="F")
    for col, (c, a, b, d), p, q in zip(inverted.T, forms, picks, picks[1:]):
        if d:
            getattr(np, _WITH_PQ[a, b])(p, q, out=col)
            if c:
                np.logical_not(col, out=col)
        else:
            col.fill(c)
            if a:
                col ^= p
            if b:
                col ^= q
    return inverted


def _check_window(top: float, w: float) -> None:
    """A window so small that the largest stamped |time| over W overflows is
    a ParameterError: every stamp would be inf, and all inf stamps compare
    equal.  An offset below W cannot change whether a stamp overflows."""
    if w > 0.0 and math.isinf(top / w):
        raise ParameterError(f"window {w} is too small relative to the arrival times")


def _ordered_pairs(t: np.ndarray, u: Optional[np.ndarray], twi: TwiSpec) -> np.ndarray:
    """Boolean (trials, N-1) matrix: adjacent pair in stamped order, for
    (trials, N) arrivals t whose window ``_check_window`` has passed; a
    random offset is u * W per trial."""
    offset = u[:, None] * twi.window if twi.random_offset else float(twi.offset)
    stamps = stamp_array(t, twi.window, offset)
    return stamps[:, 1:] >= stamps[:, :-1]


def _chunk_ranges(trials: int):
    for c, start in enumerate(range(0, trials, CHUNK_SIZE)):
        yield c, min(CHUNK_SIZE, trials - start)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(threads: int, chunks: int) -> int:
    """How many workers ``_map_chunks`` runs ``chunks`` chunks on."""
    return min(threads, chunks, _usable_cpus())


def _map_chunks(fn, trials: int, threads: int) -> list[int]:
    """The elementwise sum, in chunk order, of the integer tallies
    fn(c, count) returns as a list for each chunk of ``trials``.  A float
    overflow inside a chunk raises ``FloatingPointError``.

    The calling thread is one of min(threads, chunks, usable CPUs) workers,
    beside plain helper threads it starts and joins: each worker claims the
    next chunk until none is left, and after a chunk fails none claims
    another.  Chunks are claimed in order, so every chunk below a failed one
    has run, and the exception raised is that of the lowest-numbered failing
    chunk, whatever the thread count."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    chunks = list(_chunk_ranges(trials))
    tallies = [None] * len(chunks)
    failed: dict[int, BaseException] = {}
    pending = iter(chunks)
    lock = threading.Lock()

    def work() -> None:
        # NumPy's error state is per thread: each worker raises on overflow,
        # and the caller's own state is restored when it leaves
        with np.errstate(over="raise"):
            while True:
                with lock:
                    job = None if failed else next(pending, None)
                if job is None:
                    return
                c, count = job
                try:
                    tallies[c] = fn(c, count)
                except BaseException as exc:
                    with lock:
                        failed[c] = exc

    helpers = [Thread(target=work) for _ in range(_workers(threads, len(chunks)) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failed:
        raise failed[min(failed)]
    return [int(sum(col)) for col in zip(*tallies)]


def chain_tallies(
    s: Union[CausalChainScenario, FanOutScenario],
    twis: Sequence[TwiSpec],
    trials: int,
    seed: RandomSeed,
    threads: int = 1,
) -> list[list[int]]:
    """For each window of ``twis``, all on the same draws: [joint, pair_1,
    ..., pair_{N-1}], the number of trials whose stamps keep every adjacent
    pair in order, then the number that keep each pair.  A fan-out is the
    two-column chain (latest, earliest) of each trial's arrivals, so its
    [joint, pair_1] both count the trials whose N stamps are all equal.

    The window rule is monotone in t, so only a raw-inverted pair can be
    stamped out of order, and a fan-out's earliest stamp is never above its
    latest.  Each chunk finds those pairs once: W = 0 counts them, and W > 0
    stamps only them, on times anchored once per chunk.  When every window
    is W = 0 and every input of a chain has atoms, the inversions come from
    the inputs' atom picks, on the same draws, and no arrival time is
    formed."""
    fan_out = isinstance(s, FanOutScenario)
    n = 2 if fan_out else s.n
    anchored = not fan_out and s.anchor_first_arrival
    random_offset = any(twi.random_offset for twi in twis)
    windowed = any(twi.window > 0.0 for twi in twis)
    forms = None if windowed or fan_out else _inversion_forms(s)
    # one float64 column per thread that runs chunks, the calling thread
    # among them, reused across its chunks; tallies are summed in chunk order
    # whichever thread ran them.  A new column per chunk cost about a tenth
    # of figure 7's time in page faults.
    scratch = threading.local()

    def work(c: int, count: int):
        rng = chunk_rng(seed, c)
        if forms is not None:
            if not hasattr(scratch, "column"):
                scratch.column = np.empty(CHUNK_SIZE)
            inverted = _atom_inversions(s, forms, rng, scratch.column[:count])
        else:
            t = _chain_arrivals(s, rng, count)
            if fan_out:
                t = np.array((t.max(axis=1), t.min(axis=1))).T  # input-major too
            # a chunk's last draws, so skipping them changes no other
            u = rng.random(count) if random_offset else None
            inverted = t[:, 1:] < t[:, :-1]
        if windowed:
            a = t - t[:, :1] if anchored else t
            # the largest |time| stamped: anchored times can be < 0, arrivals not
            top = float(max(a.max(), -a.min()) if anchored else a.max())
            k = np.flatnonzero(inverted.T)  # pair-major: i * count + r
            rows, flat = k % count, a.ravel(order="F")  # a[r, i] is flat[i * count + r]
            pairs = np.array((flat[k], flat[k + count])).T
            u = None if u is None else u[rows]
            edges = np.searchsorted(k, np.arange(n) * count)  # where each pair starts in k
        tallies = []
        for twi in twis:
            if twi.window == 0.0:
                violated = inverted.any(axis=1)
                per_pair = [np.count_nonzero(col) for col in inverted.T]
            else:
                _check_window(top, twi.window)
                bad = np.flatnonzero(~_ordered_pairs(pairs, u, twi)[:, 0])
                violated = np.zeros(count, dtype=bool)
                # an index gather: NumPy's boolean-mask gather is several times slower here
                violated[rows[bad]] = True
                e = np.searchsorted(bad, edges)
                per_pair = (e[1:] - e[:-1]).tolist()
            tallies += [count - np.count_nonzero(violated), *(count - v for v in per_pair)]
        return tallies

    flat = _map_chunks(work, trials, threads)
    return [flat[j : j + n] for j in range(0, len(flat), n)]


def estimate_chain(
    s: CausalChainScenario,
    twi: TwiSpec,
    trials: int,
    seed: RandomSeed,
    threads: int = 1,
) -> ChainEstimate:
    """Joint no-violation probability and per-pair ordering probabilities,
    estimated on the same trials."""
    [[joint, *pairs]] = chain_tallies(s, [twi], trials, seed, threads)
    return ChainEstimate(
        no_violation=_make_estimate(joint, trials, seed),
        pairwise=tuple(_make_estimate(k, trials, seed) for k in pairs),
    )


def derived_seed(seed: RandomSeed, index: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(2, int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def estimate_no_violation_sweep(
    s: CausalChainScenario,
    w_values: Sequence[float],
    trials: int,
    seed: RandomSeed,
    common_random_numbers: bool = True,
    threads: int = 1,
) -> list[ViolationEstimate]:
    """No-violation estimates over a window sweep, with a random offset.

    With common random numbers each trial reuses its transmission times and
    offset fraction at every window width, making the sweep exactly
    comparable point to point; otherwise every point is independent.
    """
    twis = [_random_offset_twi(ensure_duration(w, "w")) for w in w_values]
    if not common_random_numbers:
        return [
            estimate_chain(s, twi, trials, derived_seed(seed, j), threads).no_violation
            for j, twi in enumerate(twis)
        ]
    return [_make_estimate(joint, trials, seed) for joint, *_ in chain_tallies(s, twis, trials, seed, threads)]


def estimate_sim_violation(
    s: FanOutScenario, twi: TwiSpec, trials: int, seed: RandomSeed, threads: int = 1
) -> ViolationEstimate:
    """Probability that the N perceptions of one event get differing
    timestamps (raw-time inequality when W = 0).  ``chain_tallies`` counts
    the fan-out as the two-column chain (latest, earliest): the window rule
    is monotone in t, so the N stamps differ iff that pair is stamped out of
    order, and at W = 0 iff the earliest arrival is below the latest."""
    [[joint, _]] = chain_tallies(s, [twi], trials, seed, threads)
    return _make_estimate(trials - joint, trials, seed)


def estimate_cv_two_input(
    p: TwoInputParams,
    model: TransmissionTimeModel,
    cause: str,
    trials: int,
    seed: RandomSeed,
    threads: int = 1,
) -> ViolationEstimate:
    """Monte-Carlo causality-violation probability for the two-input receiver
    over uniform phi_s, the link model, and a uniform window offset.  The
    receiver is the two-event chain from cause to effect, and a violation is
    its one pair stamped out of order.  A predictive sender's negative tau_a
    delays the digital input instead of the sensed event."""
    _check_cause(p, cause)
    inputs = (sensor(p.t_s, p.tau_s), ScenarioInput(model, max(0.0, -p.tau_a)))
    chain = CausalChainScenario((max(0.0, p.tau_a),), inputs if cause == "physical" else inputs[::-1])
    [[joint, _]] = chain_tallies(chain, [_random_offset_twi(p.w)], trials, seed, threads)
    return _make_estimate(trials - joint, trials, seed)

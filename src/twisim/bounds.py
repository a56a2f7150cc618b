"""Bounds for correct causal ordering of N chained events.

For a chain of N events the probability that all arrivals keep the causal
order is bounded by products of the pairwise ordering probabilities: a plain
product when no window is used, and a product of (N-1)-th roots when a
shared window offset couples the pairs.  A two-level transmission-rate chain
admits an exact closed form used as a reference case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from twisim.analytics import _ramp
from twisim.core import Duration, ParameterError, TransmissionTimeModel, ensure_duration
from twisim.inputs import ScenarioInput
from twisim.mc import CausalChainScenario, _make_estimate, chain_tallies
from twisim.twi import TwiSpec


def _check_probs(pairwise: Sequence[float]) -> list[float]:
    if len(pairwise) < 1:
        raise ParameterError("need at least one pairwise probability")
    probs = [float(p) for p in pairwise]
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"pairwise probability {p!r} outside [0, 1]")
    return probs


def ordered_product_bound(pairwise: Sequence[float]) -> float:
    """Upper bound on the joint no-violation probability without a window:
    the product of the adjacent-pair ordering probabilities."""
    return math.prod(_check_probs(pairwise))


def ordered_holder_bound(pairwise: Sequence[float]) -> float:
    """Upper bound on the joint no-violation probability with a shared
    window: product of the pairwise probabilities each to the 1/(N-1)."""
    probs = _check_probs(pairwise)
    exponent = 1.0 / len(probs)
    return math.prod(p**exponent for p in probs)


def two_rate_no_violation_exact(n: int) -> float:
    """Exact no-violation probability (N+1)/2^N for the chain whose senders
    pick one of two rates (transmission time T_0 or 2*T_0, p = 1/2 each),
    valid when the inter-event action time is below T_0."""
    n = int(n)
    if n < 2:
        raise ParameterError(f"chain length must be >= 2, got {n}")
    return (n + 1) / 2.0**n


def two_rate_pairwise_bound(n: int) -> float:
    """Pairwise product bound (3/4)^(N-1) for the two-rate chain."""
    n = int(n)
    if n < 2:
        raise ParameterError(f"chain length must be >= 2, got {n}")
    return 0.75 ** (n - 1)


def cv_given_times(t_1: Duration, t_2: Duration, tau: Duration, w: Duration) -> float:
    """Pairwise violation probability conditioned on the two transmission
    times, with a uniform window offset: a ramp from 0 to 1 as t_1 runs past
    tau + t_2 by more than W."""
    t_1 = ensure_duration(t_1, "t_1")
    t_2 = ensure_duration(t_2, "t_2")
    tau = ensure_duration(tau, "tau")
    return _ramp(t_1 - (tau + t_2), ensure_duration(w, "w"))


def cv_lower_bound(
    lam: float, tau: Duration, w: Duration, t2_model: TransmissionTimeModel
) -> float:
    """Lower bound exp(-lam*(tau+w)) * E[exp(-lam*T_2)] on the pairwise
    violation probability when T_1 has an exponential tail with rate lam."""
    lam = float(lam)
    if lam <= 0.0:
        raise ParameterError(f"lam must be > 0, got {lam!r}")
    tau = ensure_duration(tau, "tau")
    w = ensure_duration(w, "w")
    return math.exp(-lam * (tau + w)) * t2_model.laplace(lam)


@dataclass(frozen=True)
class OrderingLemmaReport:
    lhs: float  # Pr[t2 <= t3 | t1 <= t2]
    rhs: float  # Pr[t2 <= t3]
    lhs_std_err: float
    rhs_std_err: float
    conditioning_trials: int
    trials: int
    holds: bool
    conclusive: bool


def verify_ordering_lemma(
    models: Sequence[TransmissionTimeModel],
    trials: int,
    seed: int,
) -> OrderingLemmaReport:
    """Monte-Carlo check that conditioning on t1 <= t2 cannot raise the
    probability of t2 <= t3 for independent t1, t2, t3."""
    if len(models) != 3:
        raise ParameterError("need exactly three models")
    # the raw-time chain t1 -> t2 -> t3: its pairs are t1 <= t2 and t2 <= t3
    three = CausalChainScenario((0.0, 0.0), tuple(ScenarioInput(m) for m in models))
    [[n_cond_ok, n_cond, n_ok]] = chain_tallies(three, [TwiSpec(0.0)], trials, seed)

    rhs = _make_estimate(n_ok, trials, seed)
    if n_cond == 0:
        return OrderingLemmaReport(math.nan, rhs.p_hat, math.nan, rhs.std_err, 0, trials, False, False)
    lhs = _make_estimate(n_cond_ok, n_cond, seed)
    combined = math.hypot(lhs.std_err, rhs.std_err)
    holds = lhs.p_hat <= rhs.p_hat + 4.0 * combined
    return OrderingLemmaReport(lhs.p_hat, rhs.p_hat, lhs.std_err, rhs.std_err, n_cond, trials, holds, True)

"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every stochastic check states its tolerance in standard errors; seeds are
fixed so a failing run is reproducible bit for bit.
"""

import json
import math
import random

import numpy as np
import pytest

from twisim.analytics import TwoInputParams, expected_cv_two_input
from twisim.bounds import (
    cv_lower_bound,
    ordered_holder_bound,
    ordered_product_bound,
    two_rate_no_violation_exact,
    two_rate_pairwise_bound,
    verify_ordering_lemma,
)
from twisim.cli import main
from twisim.core import Constant, ShiftedExponential, TwoPoint, UniformRange
from twisim.harness import reproduce_two_rate_curve, reproduce_window_sweep
from twisim.inputs import ScenarioInput
from twisim.mc import (
    CausalChainScenario,
    estimate_chain,
    estimate_cv_two_input,
)
from twisim.planner import latency_budget_digital_cause, p_miss_unknown_edge
from twisim.twi import TwiSpec


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. two-rate reference curve: exact value, bound dominance, loosening ratio
# ---------------------------------------------------------------------------


def test_criterion_1_two_rate_curve():
    rows = reproduce_two_rate_curve(trials=1_000_000, seed=20260826)
    worst_sigma = 0.0
    ratios = []
    for row in rows:
        exact = two_rate_no_violation_exact(row["N"])
        bound = two_rate_pairwise_bound(row["N"])
        assert row["exact"] == exact and row["bound"] == bound
        sigma = abs(row["mc_estimate"] - exact) / row["std_err"]
        worst_sigma = max(worst_sigma, sigma)
        assert bound >= exact
        ratios.append(bound / exact)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    _report(
        1,
        worst_sigma <= 3.0,
        f"two-rate chain N=2..10 matches (N+1)/2^N at 1e6 trials "
        f"(max {worst_sigma:.2f} sigma), bound dominates, ratio strictly increasing",
    )


# ---------------------------------------------------------------------------
# 2. exponential window sweep: monotonicity, curve ordering, W=0 oracle
# ---------------------------------------------------------------------------


def _philox_order_oracle(n: int, tau: float, trials: int, seed: int):
    """Brute-force W=0 ordering probability with a different RNG family."""
    rng = np.random.Generator(np.random.Philox(seed))
    t = rng.exponential(0.5 * tau, size=(trials, n))
    t += np.arange(n) * tau
    ok = (t[:, 1:] >= t[:, :-1]).all(axis=1)
    p = ok.mean()
    return float(p), math.sqrt(p * (1.0 - p) / trials)


def test_criterion_2_window_sweep():
    trials = 1_000_000
    rows = reproduce_window_sweep(trials=trials, seed=31, n_values=(2, 10))
    curves = {n: [r for r in rows if r["N"] == n] for n in (2, 10)}

    # (a) monotone nondecreasing in W under common random numbers
    for n, curve in curves.items():
        ests = [r["estimate"] for r in curve]
        assert all(b >= a for a, b in zip(ests, ests[1:])), f"N={n} curve not monotone"

    # (b) the short chain dominates the long one at every window width
    for r2, r10 in zip(curves[2], curves[10]):
        assert r2["W_over_tau"] == r10["W_over_tau"]
        slack = 3.0 * math.hypot(r2["std_err"], r10["std_err"])
        assert r2["estimate"] >= r10["estimate"] - slack

    # (c) W=0 point vs an independent Philox-based oracle
    mc = curves[10][0]
    assert mc["W_over_tau"] == 0.0
    oracle_p, oracle_se = _philox_order_oracle(10, 1.0, trials, seed=977)
    sigma = abs(mc["estimate"] - oracle_p) / math.hypot(mc["std_err"], oracle_se)
    _report(
        2,
        sigma <= 3.0,
        "window sweep monotone per curve, N=2 dominates N=10 within 3 sigma, "
        f"W=0 N=10 point within {sigma:.2f} sigma of the Philox oracle",
    )


# ---------------------------------------------------------------------------
# 3. ordering lemma on randomized distribution triples
# ---------------------------------------------------------------------------


def _random_model(r: random.Random):
    kind = r.randrange(4)
    if kind == 0:
        return Constant(r.uniform(0.5, 2.5))
    if kind == 1:
        low = r.uniform(0.0, 1.5)
        return UniformRange(low, low + r.uniform(0.2, 2.0))
    if kind == 2:
        return ShiftedExponential(r.uniform(0.0, 0.5), r.uniform(0.5, 3.0))
    t0 = r.uniform(0.5, 1.5)
    return TwoPoint(2.0 * t0, t0, r.uniform(0.2, 0.8))


def test_criterion_3_ordering_lemma():
    r = random.Random(40)
    worst = -math.inf
    for i in range(20):
        # redraw until t1 <= t2 has positive probability, so the conditional
        # side of the inequality is estimable
        while True:
            models = [_random_model(r) for _ in range(3)]
            if models[0].support()[0] <= models[1].support()[1]:
                break
        report = verify_ordering_lemma(models, trials=150_000, seed=1000 + i)
        assert report.conclusive, f"triple {i} had no conditioning mass: {models}"
        assert report.holds, f"triple {i} violates the ordering lemma: {models}"
        combined = math.hypot(report.lhs_std_err, report.rhs_std_err)
        excess = (report.lhs - report.rhs) / combined if combined > 0 else 0.0
        worst = max(worst, excess)
    _report(
        3,
        worst <= 4.0,
        f"conditioning never raises the ordering probability over 20 randomized "
        f"triples (worst excess {worst:.2f} sigma)",
    )


# ---------------------------------------------------------------------------
# 4. joint no-violation estimate below the product / root-product bounds
# ---------------------------------------------------------------------------


def _bound_std_err(kind: str, pairwise):
    """Delta-method standard error of a product-form bound."""
    probs = [e.p_hat for e in pairwise]
    if any(p == 0.0 for p in probs):
        return 0.0
    rel = sum((e.std_err / e.p_hat) ** 2 for e in pairwise)
    if kind == "product":
        return ordered_product_bound(probs) * math.sqrt(rel)
    return ordered_holder_bound(probs) * math.sqrt(rel) / len(probs)


def test_criterion_4_chain_bounds():
    r = random.Random(41)
    worst = -math.inf
    for i in range(20):
        n = r.choice([3, 5, 10])
        scenario = CausalChainScenario(
            action_times=tuple(r.uniform(0.2, 1.0) for _ in range(n - 1)),
            inputs=tuple(ScenarioInput(_random_model(r)) for _ in range(n)),
        )
        w = 0.0 if i % 2 == 0 else r.uniform(0.2, 1.5)
        twi = TwiSpec(w, offset=None if w > 0.0 else 0.0)
        est = estimate_chain(scenario, twi, trials=150_000, seed=2000 + i)
        joint = est.no_violation
        probs = [e.p_hat for e in est.pairwise]
        if w == 0.0:
            checks = [("product", ordered_product_bound(probs), _bound_std_err("product", est.pairwise))]
        else:
            checks = [
                ("holder", ordered_holder_bound(probs), _bound_std_err("holder", est.pairwise)),
                ("max pairwise", max(probs), max(e.std_err for e in est.pairwise)),
            ]
        for name, bound, bound_se in checks:
            combined = math.hypot(joint.std_err, bound_se)
            excess = (joint.p_hat - bound) / combined if combined > 0 else (
                0.0 if joint.p_hat <= bound else math.inf
            )
            assert excess <= 4.0, f"scenario {i}: joint exceeds {name} bound by {excess:.2f} sigma"
            worst = max(worst, excess)
    _report(
        4,
        worst <= 4.0,
        f"joint ordering probability below product/root-product/max-pairwise bounds "
        f"over 20 randomized chains (worst excess {worst:.2f} sigma)",
    )


# ---------------------------------------------------------------------------
# 5. two-input receiver: simulation vs closed-form expectation, safe example
# ---------------------------------------------------------------------------


def test_criterion_5_two_input_closed_forms():
    cases = [
        (
            "physical",
            TwoInputParams(t_s=0.010, tau_s=0.002, tau_a=0.005, t_min=0.0, t_max=1.0, w=0.008),
            UniformRange(0.001, 0.020),
        ),
        (
            "digital",
            TwoInputParams(t_s=0.010, tau_s=0.001, tau_a=0.002, t_min=0.0, t_max=1.0, w=0.006),
            ShiftedExponential(0.002, 80.0),
        ),
    ]
    worst = 0.0
    for cause, p, model in cases:
        est = estimate_cv_two_input(p, model, cause, trials=1_000_000, seed=55)
        exact = expected_cv_two_input(p, model, cause)
        sigma = abs(est.p_hat - exact) / est.std_err
        worst = max(worst, sigma)

    # 1 ms integration, 10 us propagation, 100 ms action time: the digital
    # copy always arrives far too late to be perceived first
    safe = TwoInputParams(t_s=0.001, tau_s=10e-6, tau_a=0.100, t_min=0.0, t_max=1.0, w=0.001)
    est = estimate_cv_two_input(safe, UniformRange(0.0, 0.005), "physical", trials=1_000_000, seed=56)
    assert est.p_hat == 0.0
    _report(
        5,
        worst <= 3.0,
        f"two-input simulation matches the phase-averaged closed form at 1e6 trials "
        f"(max {worst:.2f} sigma); the slow-action example yields 0 violations in 1e6",
    )


# ---------------------------------------------------------------------------
# 6. exponential-tail lower bound and its log-slope in W
# ---------------------------------------------------------------------------


def test_criterion_6_exponential_lower_bound():
    t2_model = UniformRange(0.0, 1.0)
    lams = (0.5, 1.0, 2.0)
    taus = (0.2, 0.5, 1.0)
    ws = (0.25, 0.5, 1.0)
    worst = -math.inf
    points = 0
    for lam in lams:
        for tau in taus:
            for w in ws:
                scenario = CausalChainScenario(
                    action_times=(tau,),
                    inputs=(
                        ScenarioInput(ShiftedExponential(0.0, lam)),
                        ScenarioInput(t2_model),
                    ),
                )
                est = estimate_chain(
                    scenario, TwiSpec(w, offset=None), trials=200_000, seed=6000 + points
                ).no_violation
                p_cv = 1.0 - est.p_hat
                bound = cv_lower_bound(lam, tau, w, t2_model)
                deficit = (bound - p_cv) / est.std_err if est.std_err > 0 else 0.0
                worst = max(worst, deficit)
                points += 1
    assert points == 27

    # the bound decays exponentially in the window width at rate lam
    for lam in lams:
        grid = np.linspace(0.1, 2.0, 9)
        logs = [math.log(cv_lower_bound(lam, 0.5, w, t2_model)) for w in grid]
        slope = np.polyfit(grid, logs, 1)[0]
        assert abs(slope + lam) <= 0.01 * lam
    _report(
        6,
        worst <= 4.0,
        f"violation probability stays above exp(-lam*(tau+W))*E[exp(-lam*T2)] on a "
        f"27-point grid (worst deficit {worst:.2f} sigma); log-slope in W is -lam within 1%",
    )


# ---------------------------------------------------------------------------
# 7. planner reference numbers
# ---------------------------------------------------------------------------


def test_criterion_7_planner_reference_numbers():
    report = p_miss_unknown_edge(Constant(0.003), 0.030)
    assert report.nominal_value == 0.1
    budget = latency_budget_digital_cause(
        t_s=0.010, tau_a=0.015, tau_s=0.005, sender_budget=0.015
    )
    assert budget.max_t_ab == pytest.approx(0.030)
    assert budget.radio_budget == pytest.approx(0.015)
    _report(
        7,
        True,
        "3 ms transmission in a 30 ms window misses with probability 0.100; "
        "a 30 ms total budget minus a 15 ms sender share leaves 15 ms for the radio",
    )


# ---------------------------------------------------------------------------
# 8. thread count never changes the CSV body
# ---------------------------------------------------------------------------


def test_criterion_8_thread_determinism(tmp_path):
    chain_cfg = {
        "kind": "chain_sim",
        "seed": 9,
        "trials": 120_000,
        "twi": {"window": 0.5, "offset": "random"},
        "w_sweep": [0.0, 0.5, 1.0],
        "scenario": {
            "action_times": [1.0, 1.0],
            "inputs": [
                {"type": "link", "model": {"kind": "shifted_exponential", "rate": 2.0}}
            ]
            * 3,
        },
    }
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(json.dumps(chain_cfg))
    runs = [
        (["sweep", str(cfg_path)], "chain"),
        (["reproduce", "--figure", "7", "--trials", "100000"], "fig7"),
    ]
    for argv, name in runs:
        bodies = []
        for threads in (1, 2, 4):
            out = tmp_path / f"{name}-{threads}.csv"
            code = main(argv + ["--threads", str(threads), "--out", str(out)])
            assert code == 0
            bodies.append(out.read_bytes())
        assert bodies[0] == bodies[1] == bodies[2], f"{name} output varies with threads"
    _report(8, True, "CSV bodies are byte-identical for 1, 2 and 4 worker threads")

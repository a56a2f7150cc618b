import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twisim.analytics import p_cv_physical_cause
from twisim.bounds import (
    cv_given_times,
    cv_lower_bound,
    ordered_holder_bound,
    ordered_product_bound,
    two_rate_no_violation_exact,
    two_rate_pairwise_bound,
    verify_ordering_lemma,
)
from twisim.core import (
    Constant,
    Empirical,
    ParameterError,
    ShiftedExponential,
    TwoPoint,
    UniformRange,
)

probs = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9)


def test_product_bound():
    assert ordered_product_bound([0.5, 0.5]) == pytest.approx(0.25)
    assert ordered_product_bound([1.0]) == 1.0
    with pytest.raises(ParameterError):
        ordered_product_bound([])
    with pytest.raises(ParameterError):
        ordered_product_bound([1.1])


def test_holder_bound():
    assert ordered_holder_bound([0.25, 0.25]) == pytest.approx(0.25)
    assert ordered_holder_bound([0.25, 1.0]) == pytest.approx(0.5)
    assert ordered_holder_bound([0.81]) == pytest.approx(0.81)


@given(probs)
@settings(max_examples=200, deadline=None)
def test_holder_dominates_product(pairwise):
    # the shared-window bound is always at least the independent product
    assert ordered_holder_bound(pairwise) >= ordered_product_bound(pairwise) - 1e-12


@given(probs)
@settings(max_examples=200, deadline=None)
def test_holder_at_most_max_pairwise(pairwise):
    assert ordered_holder_bound(pairwise) <= max(pairwise) + 1e-12


def test_two_rate_exact_values():
    assert two_rate_no_violation_exact(2) == pytest.approx(0.75)
    assert two_rate_no_violation_exact(3) == pytest.approx(0.5)
    assert two_rate_no_violation_exact(10) == pytest.approx(11.0 / 1024.0)
    with pytest.raises(ParameterError):
        two_rate_no_violation_exact(1)


def test_two_rate_bound_values():
    assert two_rate_pairwise_bound(2) == pytest.approx(0.75)
    assert two_rate_pairwise_bound(10) == pytest.approx(0.75**9)


def test_two_rate_bound_dominates_exact_and_ratio_grows():
    prev_ratio = 0.0
    for n in range(2, 16):
        exact = two_rate_no_violation_exact(n)
        bound = two_rate_pairwise_bound(n)
        assert bound >= exact - 1e-15
        ratio = bound / exact  # (3/2)^(n-1) * 2/(n+1)
        assert ratio == pytest.approx(1.5 ** (n - 1) * 2.0 / (n + 1))
        assert ratio > prev_ratio
        prev_ratio = ratio


def test_cv_given_times_piecewise():
    assert cv_given_times(1.0, 2.0, 0.5, 1.0) == 0.0  # t1 before the edge
    assert cv_given_times(2.5, 2.0, 0.0, 1.0) == pytest.approx(0.5)  # on the ramp
    assert cv_given_times(4.0, 2.0, 0.0, 1.0) == 1.0  # past the ramp
    assert cv_given_times(2.5, 2.0, 0.0, 0.0) == 1.0  # raw mode: any excess counts
    assert cv_given_times(2.0, 2.0, 0.0, 1.0) == 0.0  # tie is not a violation


@given(
    t1=st.floats(min_value=0.0, max_value=100.0),
    t2=st.floats(min_value=0.0, max_value=100.0),
    tau=st.floats(min_value=0.0, max_value=10.0),
    w=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_cv_given_times_monotonicity(t1, t2, tau, w):
    p = cv_given_times(t1, t2, tau, w)
    assert 0.0 <= p <= 1.0
    assert cv_given_times(t1 + 1.0, t2, tau, w) >= p  # later t1: worse
    assert cv_given_times(t1, t2 + 1.0, tau, w) <= p  # later t2: safer
    assert cv_given_times(t1, t2, tau, w + 1.0) <= p  # wider window: safer


def _branch_cv_given_times(t_1, t_2, tau, w):
    """cv_given_times in its former three-branch form."""
    edge = tau + t_2
    if t_1 <= edge:
        return 0.0
    if w == 0.0 or t_1 > edge + w:
        return 1.0
    return (t_1 - edge) / w


@given(
    t1=st.floats(min_value=0.0, max_value=100.0),
    t2=st.floats(min_value=0.0, max_value=100.0),
    tau=st.floats(min_value=0.0, max_value=10.0),
    w=st.one_of(
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=1, max_value=8).map(lambda k: k * 2.0**-53),  # a few ulps of 1
    ),
)
# the branch form's middle branch gave 4/3 here: t1 <= fl(edge + w) although t1 - edge > w
@example(t1=1.0 + 2.0**-51, t2=1.0, tau=0.0, w=1.5 * 2.0**-52)
@settings(max_examples=300, deadline=None)
def test_shared_ramp_is_the_branch_form_capped_at_one(t1, t2, tau, w):
    ramp = cv_given_times(t1, t2, tau, w)
    assert ramp == min(1.0, _branch_cv_given_times(t1, t2, tau, w))
    assert p_cv_physical_cause(t1, tau + t2, w) == ramp


def test_cv_lower_bound_hand_value():
    # exp(-1*(0.5+0.5)) * E[exp(-T2)] with constant T2=0.5
    expected = math.exp(-1.0) * math.exp(-0.5)
    assert cv_lower_bound(1.0, 0.5, 0.5, Constant(0.5)) == pytest.approx(expected)
    with pytest.raises(ParameterError):
        cv_lower_bound(0.0, 0.5, 0.5, Constant(0.5))


def test_cv_lower_bound_log_slope_in_w():
    lam, tau = 2.0, 0.3
    model = UniformRange(0.1, 0.4)
    b1 = cv_lower_bound(lam, tau, 0.5, model)
    b2 = cv_lower_bound(lam, tau, 1.5, model)
    assert (math.log(b2) - math.log(b1)) / 1.0 == pytest.approx(-lam)


def test_cv_lower_bound_below_conditional_average():
    # the bound never exceeds E[cv_given_times(T1, T2, tau, W)]
    import numpy as np

    from twisim.core import chunk_rng, sample

    lam, tau, w = 1.5, 0.2, 0.4
    t2_model = UniformRange(0.0, 0.5)
    rng = chunk_rng(77, 0)
    t1 = sample(ShiftedExponential(0.0, lam), rng, 400_000)
    t2 = sample(t2_model, rng, 400_000)
    excess = t1 - (tau + t2)
    vals = np.clip(excess / w, 0.0, 1.0)
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert cv_lower_bound(lam, tau, w, t2_model) <= est + 4.0 * se


def test_ordering_lemma_iid_exponential():
    report = verify_ordering_lemma([ShiftedExponential(0.0, 1.0)] * 3, 200_000, seed=5)
    assert report.conclusive
    assert report.holds
    # i.i.d. case: both sides near 1/2, conditioning cannot help
    assert report.rhs == pytest.approx(0.5, abs=0.01)
    assert report.lhs <= report.rhs + 4.0 * math.hypot(report.lhs_std_err, report.rhs_std_err)


def test_ordering_lemma_mixed_models():
    models = [UniformRange(0.0, 2.0), TwoPoint(2.0, 1.0, 0.5), ShiftedExponential(0.5, 2.0)]
    report = verify_ordering_lemma(models, 200_000, seed=9)
    assert report.conclusive and report.holds
    assert report.conditioning_trials > 0


def test_ordering_lemma_validation():
    with pytest.raises(ParameterError):
        verify_ordering_lemma([Constant(1.0)] * 2, 100, seed=1)
    with pytest.raises(ParameterError):
        verify_ordering_lemma([Constant(1.0)] * 3, 0, seed=1)


# verify_ordering_lemma's reports, recorded before it drew through
# mc._chain_arrivals: the same draws, counts and standard errors, bit for bit.
LEMMA_CASES = {
    "exponential": [ShiftedExponential(0.0, 1.0)] * 3,
    "mixed": [UniformRange(0.0, 2.0), TwoPoint(2.0, 1.0, 0.5), Empirical((0.5, 1.25, 3.0))],
    "never-conditioned": [Constant(2.0), Constant(1.0), Constant(3.0)],
    "tied": [Constant(1.0), Constant(1.0), UniformRange(0.5, 1.5)],
}
LEMMA_REPRS = {
    ("exponential", 1): (
        "lhs=nan, rhs=1.0, lhs_std_err=nan, rhs_std_err=0.0, "
        "conditioning_trials=0, trials=1, holds=False, conclusive=False"
    ),
    ("exponential", 100): (
        "lhs=0.4107142857142857, rhs=0.54, lhs_std_err=0.06574138471863086, rhs_std_err=0.04983974317750845, "
        "conditioning_trials=56, trials=100, holds=True, conclusive=True"
    ),
    ("exponential", 70_000): (
        "lhs=0.3309377236936292, rhs=0.5007285714285714, lhs_std_err=0.002517898401769851, rhs_std_err=0.00188982035874794, "
        "conditioning_trials=34925, trials=70000, holds=True, conclusive=True"
    ),
    ("mixed", 1): (
        "lhs=0.0, rhs=0.0, lhs_std_err=0.0, rhs_std_err=0.0, "
        "conditioning_trials=1, trials=1, holds=True, conclusive=True"
    ),
    ("mixed", 100): (
        "lhs=0.4492753623188406, rhs=0.48, lhs_std_err=0.05988237396813556, rhs_std_err=0.049959983987187186, "
        "conditioning_trials=69, trials=100, holds=True, conclusive=True"
    ),
    ("mixed", 70_000): (
        "lhs=0.445266074328843, rhs=0.5028714285714285, lhs_std_err=0.002172481327774859, rhs_std_err=0.0018897912012327076, "
        "conditioning_trials=52335, trials=70000, holds=True, conclusive=True"
    ),
    ("never-conditioned", 1): (
        "lhs=nan, rhs=1.0, lhs_std_err=nan, rhs_std_err=0.0, "
        "conditioning_trials=0, trials=1, holds=False, conclusive=False"
    ),
    ("never-conditioned", 100): (
        "lhs=nan, rhs=1.0, lhs_std_err=nan, rhs_std_err=0.0, "
        "conditioning_trials=0, trials=100, holds=False, conclusive=False"
    ),
    ("never-conditioned", 70_000): (
        "lhs=nan, rhs=1.0, lhs_std_err=nan, rhs_std_err=0.0, "
        "conditioning_trials=0, trials=70000, holds=False, conclusive=False"
    ),
    ("tied", 1): (
        "lhs=0.0, rhs=0.0, lhs_std_err=0.0, rhs_std_err=0.0, "
        "conditioning_trials=1, trials=1, holds=True, conclusive=True"
    ),
    ("tied", 100): (
        "lhs=0.54, rhs=0.54, lhs_std_err=0.04983974317750845, rhs_std_err=0.04983974317750845, "
        "conditioning_trials=100, trials=100, holds=True, conclusive=True"
    ),
    ("tied", 70_000): (
        "lhs=0.5020285714285714, rhs=0.5020285714285714, lhs_std_err=0.0018898068113583884, rhs_std_err=0.0018898068113583884, "
        "conditioning_trials=70000, trials=70000, holds=True, conclusive=True"
    ),
}


@pytest.mark.parametrize("case, trials", list(LEMMA_REPRS), ids=[f"{c}-{n}" for c, n in LEMMA_REPRS])
def test_ordering_lemma_report_is_pinned(case, trials):
    report = verify_ordering_lemma(LEMMA_CASES[case], trials, seed=11)
    assert repr(report) == f"OrderingLemmaReport({LEMMA_REPRS[case, trials]})"

"""Deviation model tests. The analytic oracles are closed-form evaluations of
min(1, 2 exp(-eps^2 / 2D)) and the two-sided normal tail, frozen here first.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptor import (
    AgentOutputModel,
    AggregationSpec,
    DimensionMismatchError,
    deviation_bound,
    simulate_deviation_tails,
)
from promptor.deviation import _BLOCK_SIZE, _block_deviations, _block_layout

# n=1, weight 1, Var 1, eps 2: 2 exp(-4/2) = 2 e^-2
BOUND_N1_EPS2 = 2.0 * math.exp(-2.0)

# P(|Z| >= 2) for standard normal = 2 Phi(-2) = erfc(2 / sqrt(2))
NORMAL_TAIL_EPS2 = math.erfc(2.0 / math.sqrt(2.0))

UNIT = AggregationSpec(u=(1.0,), v=(1.0,))
STD_GAUSSIAN = AgentOutputModel.gaussian(0.0, 1.0)

small_reals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

# -- deviation_bound ----------------------------------------------------------


def test_bound_n1_eps2_oracle():
    assert abs(deviation_bound(UNIT, (1.0,), 2.0) - BOUND_N1_EPS2) <= 1e-12


def test_bound_zero_variance_degenerate():
    spec = AggregationSpec(u=(1.0, 1.0), v=(1.0, 1.0))
    assert deviation_bound(spec, (0.0, 0.0), 0.1) == 0.0


def test_bound_clamped_to_one():
    # raw value 2 exp(-0.005) > 1
    assert deviation_bound(UNIT, (1.0,), 0.1) == 1.0


def test_bound_requires_positive_epsilon():
    with pytest.raises(ValueError):
        deviation_bound(UNIT, (1.0,), 0.0)


def test_bound_variance_length_checked():
    with pytest.raises(DimensionMismatchError):
        deviation_bound(UNIT, (1.0, 1.0), 1.0)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(small_reals, min_size=n, max_size=n),
            st.lists(small_reals, min_size=n, max_size=n),
            st.lists(
                st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n
            ),
        )
    ),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_bound_monotone_in_epsilon(uvw, eps, delta):
    u, v, variances = uvw
    spec = AggregationSpec(tuple(u), tuple(v))
    assert deviation_bound(spec, variances, eps + delta) <= deviation_bound(
        spec, variances, eps
    )


@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_bound_monotone_in_variance(variances, idx, eps, bump):
    spec = AggregationSpec(u=(1.0, 0.5, 2.0), v=(1.0, 1.0, 0.25))
    bumped = list(variances)
    bumped[idx] += bump
    assert deviation_bound(spec, bumped, eps) >= deviation_bound(spec, variances, eps)


# -- AgentOutputModel validation ------------------------------------------------


def test_uniform_constructor_derives_moments():
    model = AgentOutputModel.uniform(-1.0, 1.0)
    assert model.mean == 0.0
    assert abs(model.variance - 1.0 / 3.0) <= 1e-12


def test_uniform_variance_must_match_bounds():
    with pytest.raises(ValueError):
        AgentOutputModel(mean=0.0, variance=1.0, family="uniform-bounded", bounds=(-1.0, 1.0))


def test_uniform_mean_must_be_midpoint():
    with pytest.raises(ValueError):
        AgentOutputModel(
            mean=0.5, variance=1.0 / 3.0, family="uniform-bounded", bounds=(-1.0, 1.0)
        )


def test_gaussian_rejects_bounds():
    with pytest.raises(ValueError):
        AgentOutputModel(mean=0.0, variance=1.0, family="gaussian", bounds=(0.0, 1.0))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        AgentOutputModel(mean=0.0, variance=1.0, family="cauchy")


# -- simulate_deviation_tails ---------------------------------------------------


def test_simulation_normal_tail_oracle():
    report = simulate_deviation_tails([STD_GAUSSIAN], UNIT, [2.0], trials=20000, seed=11)[0]
    assert abs(report.empirical_tail - NORMAL_TAIL_EPS2) <= 0.008
    assert report.empirical_tail <= report.analytic_bound
    assert abs(report.analytic_bound - BOUND_N1_EPS2) <= 1e-12


def test_simulation_zero_variance():
    models = [AgentOutputModel.gaussian(3.0, 0.0)]
    report = simulate_deviation_tails(models, UNIT, [0.5], trials=1000, seed=1)[0]
    assert report.empirical_tail == 0.0
    assert report.analytic_bound == 0.0


def test_simulation_deterministic():
    a = simulate_deviation_tails([STD_GAUSSIAN], UNIT, [1.0], trials=5000, seed=42)[0]
    b = simulate_deviation_tails([STD_GAUSSIAN], UNIT, [1.0], trials=5000, seed=42)[0]
    assert a == b
    c = simulate_deviation_tails([STD_GAUSSIAN], UNIT, [1.0], trials=5000, seed=43)[0]
    assert c.empirical_tail != a.empirical_tail


def test_block_merge_equals_single_threaded():
    # trials spanning three full blocks plus a ragged tail
    trials = 3 * _BLOCK_SIZE + 17
    models = [STD_GAUSSIAN, AgentOutputModel.uniform(-2.0, 2.0)]
    spec = AggregationSpec(u=(1.0, 0.5), v=(1.0, 1.0))
    eps = 1.2
    report = simulate_deviation_tails(models, spec, [eps], trials=trials, seed=99)[0]
    # blocks computed in reverse order must merge to the single-threaded count
    merged = sum(
        int(np.count_nonzero(_block_deviations(models, spec, 99, index, size) >= eps))
        for index, size in reversed(_block_layout(trials))
    )
    assert merged == round(report.empirical_tail * trials)


def test_block_layout_partitions_trials():
    layout = _block_layout(2 * _BLOCK_SIZE + 5)
    assert [size for _, size in layout] == [_BLOCK_SIZE, _BLOCK_SIZE, 5]
    assert [index for index, _ in layout] == [0, 1, 2]


def test_multi_epsilon_shares_draws():
    epsilons = [0.5, 1.0, 1.5, 2.0]
    reports = simulate_deviation_tails([STD_GAUSSIAN], UNIT, epsilons, trials=4000, seed=5)
    tails = [r.empirical_tail for r in reports]
    # same draws, so tail frequency is exactly non-increasing in epsilon
    assert tails == sorted(tails, reverse=True)
    single = simulate_deviation_tails([STD_GAUSSIAN], UNIT, [1.0], trials=4000, seed=5)[0]
    assert single == reports[1]


def test_simulation_respects_bound_on_mixed_instance():
    models = [STD_GAUSSIAN, AgentOutputModel.uniform(0.0, 2.0), AgentOutputModel.gaussian(1.0, 0.25)]
    spec = AggregationSpec(u=(1.0, -1.0, 0.5), v=(1.0, 1.0, 1.0))
    trials = 20000
    for eps in (0.5, 1.0, 2.0):
        report = simulate_deviation_tails(models, spec, [eps], trials=trials, seed=3)[0]
        b = report.analytic_bound
        margin = 3.0 * math.sqrt(b * (1.0 - b) / trials)
        assert report.empirical_tail <= b + margin


def test_simulation_validates_arguments():
    with pytest.raises(DimensionMismatchError):
        simulate_deviation_tails([STD_GAUSSIAN], AggregationSpec((1.0, 1.0), (1.0, 1.0)), [1.0], 10, 0)
    with pytest.raises(ValueError):
        simulate_deviation_tails([STD_GAUSSIAN], UNIT, [1.0], trials=0, seed=0)
    with pytest.raises(ValueError):
        simulate_deviation_tails([STD_GAUSSIAN], UNIT, [-1.0], trials=10, seed=0)

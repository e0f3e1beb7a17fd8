"""Deviation model tests. The analytic oracles are closed-form evaluations of
min(1, 2 exp(-eps^2 / 2D)), frozen here first.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptor import AggregationSpec, DimensionMismatchError, deviation_bound
from promptor.deviation import aggregate_variance

# n=1, weight 1, Var 1, eps 2: 2 exp(-4/2) = 2 e^-2
BOUND_N1_EPS2 = 2.0 * math.exp(-2.0)

UNIT = AggregationSpec(u=(1.0,), v=(1.0,))

small_reals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

# -- aggregate_variance -------------------------------------------------------


@pytest.mark.parametrize("u, v, variances, expected", [
    ((1.0,), (1.0,), (1.0,), 1.0),
    # a report's two-subtask path: u_i = 1/2, v_i = 1
    ((0.5, 0.5), (1.0, 1.0), (0.6, 0.16), 0.19),
    # (2 * 0.5)^2 * 1 + (1 * 3)^2 * 2
    ((2.0, 1.0), (0.5, 3.0), (1.0, 2.0), 19.0),
    # a zero variance adds nothing, however large its weight
    ((1e200, 1.0), (1.0, 1.0), (0.0, 1.0), 1.0),
])
def test_aggregate_variance_oracle(u, v, variances, expected):
    assert aggregate_variance(AggregationSpec(u, v), variances) == pytest.approx(expected)


@pytest.mark.parametrize("variances, error", [
    ((math.nan,), ValueError), ((math.inf,), ValueError), ((-0.5,), ValueError),
    ((1.0, 1.0), DimensionMismatchError),
])
def test_aggregate_variance_rejects(variances, error):
    with pytest.raises(error):
        aggregate_variance(UNIT, variances)


def test_aggregate_variance_past_the_float_range_is_infinite():
    assert aggregate_variance(AggregationSpec((1e200,), (1.0,)), (1.0,)) == math.inf


@given(st.floats(min_value=1e-6, max_value=100.0))
def test_bound_at_the_reported_epsilon_is_five_percent(d):
    # reports print eps = sqrt(2 D ln 40), which solves 2 exp(-eps^2 / 2D) = 0.05
    epsilon = math.sqrt(2.0 * d * math.log(40.0))
    assert deviation_bound(UNIT, (d,), epsilon) == pytest.approx(0.05)


@given(
    st.lists(st.tuples(small_reals, small_reals, st.floats(min_value=0.0, max_value=5.0)),
             min_size=1, max_size=6),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_bound_is_read_from_the_aggregate_variance(terms, eps):
    u, v, variances = zip(*terms)
    spec = AggregationSpec(u, v)
    d = aggregate_variance(spec, variances)
    expected = 0.0 if d == 0.0 else min(1.0, 2.0 * math.exp(-eps * eps / (2.0 * d)))
    assert deviation_bound(spec, variances, eps) == expected


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


@pytest.mark.parametrize("variance, epsilon", [
    (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, math.inf),
])
def test_bound_rejects_a_nan_or_an_infinite_argument(variance, epsilon):
    with pytest.raises(ValueError):
        deviation_bound(UNIT, (variance,), epsilon)


@pytest.mark.parametrize("u, v", [
    ((math.nan,), (1.0,)), ((1.0,), (math.inf,)), ((1.0, -math.inf), (1.0, 1.0)),
    # finite weights whose product is not
    ((1e200,), (1e200,)),
])
def test_aggregation_weights_must_be_finite(u, v):
    with pytest.raises(ValueError):
        AggregationSpec(u, v)


@pytest.mark.parametrize("u, v, error", [
    ((1.0, 1.0), (1.0,), DimensionMismatchError),
    ((), (), ValueError),
], ids=["unequal", "empty"])
def test_aggregation_vectors_must_be_of_one_length_at_least_1(u, v, error):
    with pytest.raises(error, match="length"):
        AggregationSpec(u, v)


def test_a_square_past_the_float_range_gives_the_bound_its_limit():
    # D and eps^2 are infinite: the bound tends to 1 as D grows, to 0 as eps grows
    assert deviation_bound(AggregationSpec((1e200,), (1.0,)), (1.0,), 0.5) == 1.0
    assert deviation_bound(UNIT, (1.0,), 1e200) == 0.0
    # a zero variance adds nothing to D, however large its weight
    spec = AggregationSpec((1e200, 1.0), (1.0, 1.0))
    assert abs(deviation_bound(spec, (0.0, 1.0), 2.0) - BOUND_N1_EPS2) <= 1e-12


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

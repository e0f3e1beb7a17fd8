"""Metric tests. Expected values below are hand-derived from the definitions
(derivations inline) and were frozen before being checked against the code.
"""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptor import (
    DimensionMismatchError,
    EmbeddingVector,
    EmptyOutputError,
    InsufficientSamplesError,
    StabilityScore,
    UndefinedCorrelationError,
    ZeroVectorError,
    cosine_distance,
    kl_stability,
    kl_stability_score,
    pearson_correlation,
    semantic_stability,
    tokenize,
)
from promptor import metrics
from promptor.metrics import _cosine_distances, _kl_divergences, _pair_sums, _score

TOL = 1e-9

# cos angle between (1,1) and (1,0) is 1/sqrt(2), so distance is 1 - 1/sqrt(2)
DIAGONAL_VS_AXIS = 1.0 - 1.0 / math.sqrt(2.0)

# e1,e1,e2: pair distances {0, 1, 1}, mean 2/3, stability 1/3
BASIS_TRIPLE_STABILITY = 1.0 / 3.0

# "a a" vs "b b", alpha=1, vocab {a,b}: P=(3/4,1/4), Q=(1/4,3/4);
# J = sum (p-q) ln(p/q) = (1/2) ln 3 + (1/2) ln 3 = ln 3
TWO_TOKEN_JEFFREYS = math.log(3.0)

# P=(1/2,1/2), Q=(1/4,3/4): J = 0*ln2 + (1/4) ln 3 (terms worked by hand)
HALF_QUARTER_JEFFREYS = math.log(3.0) / 4.0


# -- cosine_distance ----------------------------------------------------------


def test_cosine_identity():
    assert abs(cosine_distance((1.0, 0.0), (1.0, 0.0))) <= TOL


def test_cosine_orthogonal():
    assert abs(cosine_distance((1.0, 0.0), (0.0, 1.0)) - 1.0) <= TOL


def test_cosine_diagonal():
    assert abs(cosine_distance((1.0, 1.0), (1.0, 0.0)) - DIAGONAL_VS_AXIS) <= TOL


def test_cosine_antipodal():
    assert abs(cosine_distance((2.0, -1.0), (-2.0, 1.0)) - 2.0) <= TOL


def test_cosine_accepts_embedding_vectors_and_arrays():
    v = EmbeddingVector((1.0, 1.0))
    w = np.array([1.0, 0.0])
    assert abs(cosine_distance(v, w) - DIAGONAL_VS_AXIS) <= TOL


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine_distance((1.0, 0.0), (1.0, 0.0, 0.0))


def test_cosine_zero_vector():
    with pytest.raises(ZeroVectorError):
        cosine_distance((0.0, 0.0), (1.0, 0.0))


finite_coords = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def _nonzero_vectors(dim: int):
    return (
        st.lists(finite_coords, min_size=dim, max_size=dim)
        .map(tuple)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
    )


nonzero_vector_pairs = st.integers(min_value=2, max_value=8).flatmap(
    lambda dim: st.tuples(_nonzero_vectors(dim), _nonzero_vectors(dim))
)


@given(nonzero_vector_pairs)
def test_cosine_symmetry(pair):
    v, w = pair
    assert cosine_distance(v, w) == cosine_distance(w, v)


@given(
    nonzero_vector_pairs,
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_cosine_scale_invariance(pair, a, b):
    v, w = pair
    scaled = cosine_distance(tuple(a * x for x in v), tuple(b * x for x in w))
    assert abs(scaled - cosine_distance(v, w)) <= 1e-12


@given(nonzero_vector_pairs)
def test_cosine_range(pair):
    d = cosine_distance(*pair)
    assert 0.0 <= d <= 2.0


@given(nonzero_vector_pairs)
def test_cosine_self_distance_zero(pair):
    v, _ = pair
    assert abs(cosine_distance(v, v)) <= 1e-12


# -- semantic_stability -------------------------------------------------------


def test_stability_identical_vectors():
    score = semantic_stability([(1.0, 2.0, 3.0)] * 3)
    assert abs(score.value - 1.0) <= TOL
    assert score.sample_count == 3
    assert score.sample_distances == (0.0, 0.0, 0.0)


def test_stability_equal_vectors_exact_zero():
    # 1 - v.v / (|v| |v|) is 1.1e-16 for this v, not 0: the zero must not
    # hang on rounding
    v = (0.1, 0.7, 0.2, 0.9)
    distances = _pair_dict(4, _cosine_distances([v, (1.0, 0.0, 0.0, 0.0), v, v]))
    same = {(0, 2), (0, 3), (2, 3)}
    assert all(d == 0.0 for pair, d in distances.items() if pair in same)
    assert all(d > 0.0 for pair, d in distances.items() if pair not in same)
    assert semantic_stability([v] * 5).value == 1.0
    assert cosine_distance(v, v) == 0.0


def test_stability_basis_triple():
    score = semantic_stability([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert abs(score.value - BASIS_TRIPLE_STABILITY) <= TOL


def test_stability_orthogonal_pair_is_zero():
    score = semantic_stability([(1.0, 0.0), (0.0, 1.0)])
    assert abs(score.value) <= TOL


def test_stability_opposed_pair_is_negative_one():
    # value ranges over [-1, 1]; no clamping at 0
    score = semantic_stability([(1.0, 0.0), (-1.0, 0.0)])
    assert abs(score.value - (-1.0)) <= TOL


def test_stability_pair_provenance():
    vectors = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    as_dict = _pair_dict(3, _cosine_distances(vectors))
    assert set(as_dict) == {(0, 1), (0, 2), (1, 2)}
    assert abs(as_dict[(0, 1)]) <= TOL
    assert abs(as_dict[(0, 2)] - 1.0) <= TOL
    # sample 2 is the odd one out: mean distances (0 + 1) / 2, (0 + 1) / 2, (1 + 1) / 2
    assert semantic_stability(vectors).sample_distances == pytest.approx((0.5, 0.5, 1.0), abs=TOL)


def test_stability_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        semantic_stability([(1.0, 0.0)])


def test_stability_score_validates_sample_distances():
    for distances in ((0.0, 0.0), (0.0, 0.0, 2.5), (-0.1, 0.0, 0.0)):
        with pytest.raises(ValueError):
            StabilityScore(value=1.0, sample_count=3, sample_distances=distances)


vector_lists = st.integers(min_value=2, max_value=6).flatmap(
    lambda dim: st.lists(_nonzero_vectors(dim), min_size=2, max_size=6)
)


@given(vector_lists, st.randoms(use_true_random=False))
def test_stability_permutation_exact(vectors, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert semantic_stability(shuffled).value == semantic_stability(vectors).value


def _reference_cosine(v, w) -> float:
    dot = math.fsum(a * b for a, b in zip(v, w))
    norms = math.sqrt(math.fsum(a * a for a in v)) * math.sqrt(math.fsum(b * b for b in w))
    return 1.0 - dot / norms


def _random_vectors(n: int, dim: int = 16) -> list[tuple[float, ...]]:
    rng = np.random.default_rng(n)
    return [tuple(row) for row in rng.normal(size=(n, dim))]


def _pair_dict(n: int, distances) -> dict[tuple[int, int], float]:
    i, j = np.triu_indices(n, 1)
    assert len(distances) == len(i)
    return dict(zip(zip(i.tolist(), j.tolist()), distances.tolist()))


def _reference_sample_means(n: int, pair_refs: dict) -> list[float]:
    return [
        math.fsum(d for pair, d in pair_refs.items() if k in pair) / (n - 1) for k in range(n)
    ]


@pytest.mark.parametrize("n", [2, 5, 50])
def test_stability_matches_reference_pair_loop(n):
    vectors = _random_vectors(n)
    expected = {
        (i, j): _reference_cosine(vectors[i], vectors[j])
        for i in range(n)
        for j in range(i + 1, n)
    }
    distances = _pair_dict(n, _cosine_distances(vectors))
    assert list(distances) == list(expected)
    for pair, ref in expected.items():
        assert abs(distances[pair] - ref) <= 1e-12
    score = semantic_stability(vectors)
    assert abs(score.value - (1.0 - math.fsum(expected.values()) / len(expected))) <= 1e-12
    for d, ref in zip(score.sample_distances, _reference_sample_means(n, expected), strict=True):
        assert abs(d - ref) <= 1e-12


@given(vector_lists)
def test_stability_range(vectors):
    assert -1.0 <= semantic_stability(vectors).value <= 1.0


@given(st.integers(min_value=2, max_value=8).flatmap(
    lambda dim: st.lists(_nonzero_vectors(dim), min_size=2, max_size=50)))
def test_instability_is_the_total_variance_of_the_unit_vectors(vectors):
    # sum_{i<j} |u_i - u_j|^2 = N sum_i |u_i - mean|^2, so the mean pair
    # distance |u_i - u_j|^2 / 2 is the unbiased (ddof=1) total variance
    m = np.array(vectors)
    unit = m / np.linalg.norm(m, axis=1)[:, None]
    variance = np.var(unit, axis=0, ddof=1).sum()
    assert abs((1.0 - semantic_stability(vectors).value) - variance) <= 1e-12


def test_empty_samples_are_maximally_distant():
    # N=3 with sample 1 blank: pairs (0,1) and (1,2) at the ceiling, (0,2) at 0
    score = semantic_stability([(1.0, 0.0)], rows=[0, -1, 0])
    assert score.value == 1.0 - 4.0 / 3.0
    assert score.sample_distances == (1.0, 2.0, 1.0)
    score = kl_stability_score(["a b", "b a"], rows=[0, -1, 1])
    assert score.value == 1.0 - 2.0 / 3.0
    assert score.sample_distances == (0.5, 1.0, 0.5)


def test_fewer_than_two_non_empty_samples_score_the_ceiling():
    assert semantic_stability([(1.0, 0.0)], rows=[-1, 0, -1]).sample_distances == (2.0,) * 3
    assert semantic_stability([], rows=[-1, -1]).value == -1.0
    score = kl_stability_score([], rows=[-1, -1, -1])
    assert (score.value, score.sample_distances) == (0.0, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("rows", [[0, 2], [0, -2], [0, 0]])
def test_empty_positions_must_fit_the_samples(rows):
    # a row past the inputs, below the blank -1, and an input no sample uses
    with pytest.raises(ValueError):
        semantic_stability([(1.0, 0.0), (0.0, 1.0)], rows=rows)


def test_rows_need_two_samples():
    with pytest.raises(InsufficientSamplesError):
        semantic_stability([(1.0, 0.0)], rows=[0])


def _grouped_and_own_rows(picks):
    """Two ways to score samples drawn from a pool (a pool index per sample,
    None for a blank one): (distinct picks in first-seen order, their rows)
    and (every non-blank pick, one row each)."""
    distinct = list(dict.fromkeys(p for p in picks if p is not None))
    grouped = [-1 if p is None else distinct.index(p) for p in picks]
    own = [p for p in picks if p is not None]
    ranks = iter(range(len(own)))
    return (distinct, grouped), (own, [-1 if p is None else next(ranks) for p in picks])


def _picks(pool_size):
    return st.lists(st.one_of(st.none(), st.integers(0, pool_size - 1)), min_size=2, max_size=12)


@given(st.data())
def test_scoring_distinct_samples_once_is_bit_identical(data):
    dim = data.draw(st.integers(min_value=2, max_value=4))
    vectors = data.draw(st.lists(_nonzero_vectors(dim), min_size=1, max_size=4))
    (distinct, grouped), (own, rows) = _grouped_and_own_rows(data.draw(_picks(len(vectors))))
    once = semantic_stability([vectors[p] for p in distinct], rows=grouped)
    each = semantic_stability([vectors[p] for p in own], rows=rows)
    assert (once.value, once.sample_distances) == (each.value, each.sample_distances)

    outputs = data.draw(st.lists(st.text(alphabet="abcd ", min_size=1, max_size=12)
                                 .filter(lambda s: s.strip()), min_size=1, max_size=4))
    (distinct, grouped), (own, rows) = _grouped_and_own_rows(data.draw(_picks(len(outputs))))
    once = kl_stability_score([outputs[p] for p in distinct], alpha=0.5, rows=grouped)
    each = kl_stability_score([outputs[p] for p in own], alpha=0.5, rows=rows)
    assert (once.value, once.sample_distances) == (each.value, each.sample_distances)


def _score_each_pair(distances, n: int) -> tuple[float, tuple[float, ...]]:
    """(value, sample_distances) straight from the N(N-1)/2 pair distances
    of N distinct samples, summed pair by pair in np.triu_indices order."""
    first, second = [0.0] * n, [0.0] * n
    for (i, j), d in zip(itertools.combinations(range(n), 2), distances.tolist(), strict=True):
        first[i] += d
        second[j] += d
    value = 1.0 - math.fsum(distances.tolist()) / len(distances)
    return value, tuple((a + b) / (n - 1) for a, b in zip(first, second))


def test_all_distinct_samples_score_as_their_pair_distances():
    # nothing repeats, so the pair table holds every pair distance once and
    # the score must equal scoring those distances directly, bit for bit
    vectors, outputs = _random_vectors(50), _random_outputs(50)
    assert len(set(vectors)) == len(set(outputs)) == 50
    score = semantic_stability(vectors)
    assert (score.value, score.sample_distances) == _score_each_pair(_cosine_distances(vectors), 50)
    divergences = _kl_divergences(outputs, 1.0)
    score = kl_stability_score(outputs)
    assert (score.value, score.sample_distances) == _score_each_pair(
        divergences / (1.0 + divergences), 50)
    # the same samples with the inputs reversed and rows undoing it
    rows = list(range(50))[::-1]
    assert semantic_stability(vectors[::-1], rows=rows) == semantic_stability(vectors)
    assert kl_stability_score(outputs[::-1], rows=rows) == kl_stability_score(outputs)


def test_repeated_samples_are_checked_like_distinct_ones():
    # a zero vector or a blank output fails whether or not its sample repeats
    for rows in ([0, 0], [0, 1]):
        with pytest.raises(ZeroVectorError):
            semantic_stability([(0.0, 0.0), (1.0, 0.0)][:max(rows) + 1], rows=rows)
        with pytest.raises(EmptyOutputError):
            kl_stability_score(["  ", "a b"][:max(rows) + 1], rows=rows)
        with pytest.raises(ValueError):
            kl_stability_score(["a b", "b"][:max(rows) + 1], alpha=0.0, rows=rows)
    with pytest.raises(DimensionMismatchError):
        semantic_stability([(1.0, 0.0), (1.0, 0.0, 0.0)], rows=[0, 1, 1])


# -- kernel bit identity ------------------------------------------------------
#
# The kernels are fast forms of simple loops: a loop over rows for the pair
# sums, and an fsum over every gathered sample pair for the score. Each must
# give the bits of its loop. Semantic scores are pinned as float.hex()
# constants, computed with those loops; only exactly rounded IEEE operations
# (products, sums in numpy's fixed order, sqrt, division) lead to them, so
# they hold on any CPU. KL divergences go through np.log, whose last bit can
# differ between CPUs, so KL is checked against the loops instead.


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _row_loop_pair_sums(x, y):
    """The pair loop one row at a time: the oracle for _pair_sums."""
    return np.concatenate(
        [np.empty(0)]
        + [((x[i] - x[i + 1:]) * (y[i] - y[i + 1:])).sum(axis=1) for i in range(len(x) - 1)]
    )


def _row_loop_kl(outputs, alpha):
    """Symmetrized KL of every output pair through _row_loop_pair_sums."""
    tokens = [tokenize(out) for out in outputs]
    column = {tok: k for k, tok in enumerate(sorted({t for toks in tokens for t in toks}))}
    counts = np.zeros((len(tokens), len(column)))
    for row, toks in enumerate(tokens):
        for tok in toks:
            counts[row, column[tok]] += 1.0
    probs = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha * len(column))
    return np.maximum(_row_loop_pair_sums(probs, np.log(probs)), 0.0)


def _gathered_score(rows, k, distances, ceiling) -> tuple[float, tuple[float, ...]]:
    """(value, sample_distances) from every sample pair gathered out of the
    pair table, the value as one fsum over all N(N-1)/2 of them."""
    n = len(rows)
    table = np.zeros((k + 1, k + 1))
    a, b = np.triu_indices(k, 1)
    table[a, b] = table[b, a] = distances
    table[k] = table[:, k] = ceiling
    i, j = np.triu_indices(n, 1)
    rows = np.asarray(rows)
    pairs = table[rows[i], rows[j]]
    totals = np.bincount(i, pairs, n) + np.bincount(j, pairs, n)
    return 1.0 - math.fsum(pairs.tolist()) / len(pairs), tuple((totals / (n - 1)).tolist())


def _uniform_vectors(n: int, dim: int, seed: int) -> list[tuple[float, ...]]:
    # random.Random(seed).random() gives the same sequence in every Python
    rnd = random.Random(seed)
    return [tuple(rnd.random() - 0.5 for _ in range(dim)) for _ in range(n)]


# 50 samples of five inputs, 17, 13, 9, 6 and 3 times, and two blank ones,
# spread over the sample positions by the permutation p -> 37p mod 50
_REPEATS_BY_INPUT = [0] * 17 + [1] * 13 + [2] * 9 + [3] * 6 + [4] * 3 + [-1] * 2
PINNED_INPUTS = {
    "repeats": (_uniform_vectors(5, 64, 50), [_REPEATS_BY_INPUT[p * 37 % 50] for p in range(50)]),
    "distinct": (_uniform_vectors(200, 64, 200), None),
    "pair": (_uniform_vectors(2, 64, 2), None),
}
# value, then sample_distances as hex strings, or for the 200 distinct
# samples the sha256 of those strings joined by spaces
PINNED_SCORES = {
    "repeats": ("0x1.72b36ca2cc28cp-3", """
        0x1.6a3601b5d0cc1p-1 0x1.a2665f825ebe8p-1 0x1.6b17778a6c70cp-1
        0x1.6a3601b5d0cc1p-1 0x1.0000000000000p+1 0x1.a2665f825ebeap-1
        0x1.6b17778a6c70dp-1 0x1.6a3601b5d0cc1p-1 0x1.d4b5ade91bce1p-1
        0x1.a2665f825ebeap-1 0x1.6b17778a6c70dp-1 0x1.6a3601b5d0cc1p-1
        0x1.de1f44f0556f9p-1 0x1.a2665f825ebebp-1 0x1.6b17778a6c70dp-1
        0x1.6a3601b5d0cc1p-1 0x1.de1f44f0556fbp-1 0x1.6b17778a6c70dp-1
        0x1.6a3601b5d0cc1p-1 0x1.6a3601b5d0cc1p-1 0x1.de1f44f0556fbp-1
        0x1.6b17778a6c70dp-1 0x1.6a3601b5d0cc1p-1 0x1.6a3601b5d0cc1p-1
        0x1.a2665f825ebeap-1 0x1.6b17778a6c70dp-1 0x1.6a3601b5d0cc1p-1
        0x1.0000000000000p+1 0x1.a2665f825ebeap-1 0x1.6b17778a6c70dp-1
        0x1.6a3601b5d0cc1p-1 0x1.d4b5ade91bce2p-1 0x1.a2665f825ebeap-1
        0x1.6b17778a6c70dp-1 0x1.6a3601b5d0cc1p-1 0x1.d4b5ade91bce2p-1
        0x1.a2665f825ebe8p-1 0x1.6b17778a6c70dp-1 0x1.6a3601b5d0cc1p-1
        0x1.de1f44f0556f8p-1 0x1.a2665f825ebeap-1 0x1.6b17778a6c70dp-1
        0x1.6a3601b5d0cc1p-1 0x1.de1f44f0556f8p-1 0x1.6b17778a6c70dp-1
        0x1.6a3601b5d0cc1p-1 0x1.6a3601b5d0cc1p-1 0x1.de1f44f0556f8p-1
        0x1.6b17778a6c70dp-1 0x1.6a3601b5d0cc1p-1
    """.split()),
    "distinct": ("-0x1.1035a02684000p-10",
                 "b06b7e356f31b3bd0f9c989ed59bd9e85326e7152832acb0266d8ef256c0cb7d"),
    "pair": ("-0x1.fbe411c550660p-5", ["0x1.0fdf208e2a833p+0"] * 2),
}


@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
def test_semantic_stability_bits_are_pinned(name):
    vectors, rows = PINNED_INPUTS[name]
    score = semantic_stability(vectors, rows=rows)
    value, sample_distances = PINNED_SCORES[name]
    assert score.value.hex() == value
    got = _bits(score.sample_distances)
    if isinstance(sample_distances, str):
        got = hashlib.sha256(" ".join(got).encode()).hexdigest()
    assert got == sample_distances


@pytest.mark.parametrize("k, rows", [
    (5, [_REPEATS_BY_INPUT[p * 37 % 50] for p in range(50)]),
    (50, None),
    (2, None),
])
def test_kl_kernel_matches_the_row_loop_bit_for_bit(k, rows):
    outputs = _random_outputs(k)
    assert len(set(outputs)) == k
    divergences = _kl_divergences(outputs, 1.0)
    oracle = _row_loop_kl(outputs, 1.0)
    assert _bits(divergences) == _bits(oracle)
    score = kl_stability_score(outputs, rows=rows)
    value, sample_distances = _gathered_score(
        range(k) if rows is None else rows, k, oracle / (1.0 + oracle), 1.0)
    assert _bits([score.value]) == _bits([value])
    assert _bits(score.sample_distances) == _bits(sample_distances)


@pytest.mark.parametrize("block", [1, 7, metrics._PAIR_BLOCK])
@pytest.mark.parametrize("n, width", [(1, 3), (9, 3), (40, 64)])
def test_pair_sums_bits_do_not_depend_on_the_block(monkeypatch, block, n, width):
    monkeypatch.setattr(metrics, "_PAIR_BLOCK", block)
    x = np.random.default_rng(n).random((n, width))
    for y in (x, np.log(x)):
        assert _bits(_pair_sums(x, y)) == _bits(_row_loop_pair_sums(x, y))


def test_value_sum_is_exact_at_the_largest_multiplicity():
    # N = 1000 in two halves: one input pair stands for 500 * 500 = 250,000
    # sample pairs
    d = _cosine_distances(_uniform_vectors(2, 64, 7))
    expanded = d.tolist() * 250_000 + [0.0] * 249_500
    score = _score([0] * 500 + [1] * 500, 2, d, 2.0)
    assert score.value == 1.0 - math.fsum(expanded) / 499_500
    # three inputs 395, 36 and 569 times: here a value from the fsum of the
    # rounded products c_a * c_b * d_ab would be one ulp off
    d = np.array([0.04048437818077755, 0.9654648863619172, 0.48592769656281265])
    weights = [395 * 36, 395 * 569, 36 * 569]
    expanded = [x for x, w in zip(d.tolist(), weights) for _ in range(w)]
    expanded += [0.0] * (499_500 - len(expanded))
    exact = 1.0 - math.fsum(expanded) / 499_500
    assert 1.0 - math.fsum(x * w for x, w in zip(d.tolist(), weights)) / 499_500 != exact
    assert _score([0] * 395 + [1] * 36 + [2] * 569, 3, d, 2.0).value == exact


@pytest.mark.parametrize("vectors, error", [
    # ragged dimensions among EmbeddingVectors
    ([EmbeddingVector((1.0, 0.0)), EmbeddingVector((1.0, 0.0, 0.0))], DimensionMismatchError),
    # a 2-D array passed as one vector, among vectors and on its own
    ([np.ones((2, 2)), (1.0, 0.0)], DimensionMismatchError),
    ([np.ones((2, 2)), np.ones((2, 2))], DimensionMismatchError),
    ([EmbeddingVector((0.0, 0.0)), (1.0, 0.0)], ZeroVectorError),
    # a component that is no number: numpy's own error, the dims agreeing
    ([(1.0, "x"), (1.0, 0.0)], ValueError),
])
def test_cosine_input_errors_keep_their_classes(vectors, error):
    # DimensionMismatchError is a ValueError, so the class must be the very one
    with pytest.raises(error) as raised:
        semantic_stability(vectors)
    assert type(raised.value) is error


def test_cosine_mixes_tuples_and_arrays_of_one_dimension():
    assert _cosine_distances([(1.0, 0.0), np.array([0.0, 1.0])]).tolist() == [1.0]


# -- kl_stability -------------------------------------------------------------


def test_kl_identical_outputs_zero():
    assert kl_stability(["a b", "a b"]) == 0.0


def test_kl_same_multiset_different_order_zero():
    assert kl_stability(["b a", "a b"]) == 0.0


def test_kl_two_token_oracle():
    for outputs, expected in (
        (["a a", "b b"], TWO_TOKEN_JEFFREYS),
        (["a b", "b b"], HALF_QUARTER_JEFFREYS),
    ):
        assert abs(kl_stability(outputs, alpha=1.0) - expected) <= TOL


def test_kl_case_insensitive():
    assert kl_stability(["A B", "a b"]) == 0.0


def test_kl_empty_output_rejected():
    with pytest.raises(EmptyOutputError):
        kl_stability(["a b", "   "])
    with pytest.raises(EmptyOutputError):
        kl_stability_score(["a b", "   "])


def test_kl_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        kl_stability(["a b"])


def test_kl_alpha_must_be_positive():
    with pytest.raises(ValueError):
        kl_stability(["a", "b"], alpha=0.0)


def test_tokenize_lowercases_and_splits():
    assert tokenize("The  quick\tFox") == ["the", "quick", "fox"]


texts = st.lists(
    st.text(alphabet="abcd ", min_size=1, max_size=12).filter(lambda s: s.strip()),
    min_size=2,
    max_size=5,
)


@given(texts)
def test_kl_non_negative(outputs):
    assert kl_stability(outputs) >= 0.0


@given(texts)
def test_kl_order_invariant(outputs):
    assert kl_stability(list(reversed(outputs))) == pytest.approx(
        kl_stability(outputs), abs=1e-12
    )


@given(st.text(alphabet="abc ", min_size=1, max_size=20).filter(lambda s: s.strip()))
def test_kl_zero_iff_identical_multisets(text):
    assert kl_stability([text, text]) == 0.0
    other = text + " zzz"
    assert kl_stability([text, other]) > 0.0


def _reference_jeffreys(a: str, b: str, vocab: list[str], alpha: float) -> float:
    # per-pair loop over the definition: sum p ln(p/q) + q ln(q/p)
    def dist(text):
        toks = text.lower().split()
        total = len(toks) + alpha * len(vocab)
        return [(toks.count(t) + alpha) / total for t in vocab]

    p, q = dist(a), dist(b)
    return math.fsum(pi * math.log(pi / qi) + qi * math.log(qi / pi) for pi, qi in zip(p, q))


def _random_outputs(n: int) -> list[str]:
    rng = np.random.default_rng(n)
    words = ["alpha", "beta", "Gamma", "delta", "eps", "zeta", "eta", "theta"]
    return [" ".join(rng.choice(words, size=rng.integers(1, 12))) for _ in range(n)]


@pytest.mark.parametrize("n", [2, 5, 50])
def test_kl_score_matches_reference_pair_loop(n):
    outputs = _random_outputs(n)
    vocab = sorted({t for out in outputs for t in out.lower().split()})
    divergences = _pair_dict(n, _kl_divergences(outputs, 0.5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert list(divergences) == pairs
    jeffreys = {(i, j): _reference_jeffreys(outputs[i], outputs[j], vocab, 0.5) for i, j in pairs}
    for pair, ref in jeffreys.items():
        assert abs(divergences[pair] - ref) <= 1e-12
    mean_jeffreys = math.fsum(jeffreys.values()) / len(pairs)
    assert abs(kl_stability(outputs, alpha=0.5) - mean_jeffreys) <= 1e-12
    squashed = {pair: ref / (1.0 + ref) for pair, ref in jeffreys.items()}
    score = kl_stability_score(outputs, alpha=0.5)
    assert abs(score.value - (1.0 - math.fsum(squashed.values()) / len(pairs))) <= 1e-12
    for d, ref in zip(score.sample_distances, _reference_sample_means(n, squashed), strict=True):
        assert abs(d - ref) <= 1e-12


def test_kl_metrics_share_one_divergence_loop():
    outputs = _random_outputs(7)
    divergences = _kl_divergences(outputs, 1.0)
    assert len(divergences) == 21
    assert kl_stability(outputs) == math.fsum(divergences.tolist()) / len(divergences)
    squashed = (divergences / (1.0 + divergences)).tolist()
    assert kl_stability_score(outputs).value == 1.0 - math.fsum(squashed) / len(squashed)


def test_kl_score_identical_multisets_exact():
    outputs = ["b a c", "a b c", "C A B"]
    assert _kl_divergences(outputs, 1.0).tolist() == [0.0, 0.0, 0.0]
    score = kl_stability_score(outputs)
    assert score.value == 1.0
    assert score.sample_distances == (0.0, 0.0, 0.0)


@given(texts, st.randoms(use_true_random=False))
def test_kl_score_permutation_exact(outputs, rnd):
    shuffled = list(outputs)
    rnd.shuffle(shuffled)
    assert kl_stability_score(shuffled).value == kl_stability_score(outputs).value


@given(vector_lists, texts)
def test_sample_distances_average_to_one_minus_value(vectors, outputs):
    for score in (semantic_stability(vectors), kl_stability_score(outputs)):
        mean = math.fsum(score.sample_distances) / score.sample_count
        assert abs(1.0 - mean - score.value) <= 1e-12


# -- pearson_correlation ------------------------------------------------------


def test_pearson_perfect_positive():
    assert abs(pearson_correlation((1.0, 2.0, 3.0), (2.0, 4.0, 6.0)) - 1.0) <= TOL


def test_pearson_perfect_negative():
    assert abs(pearson_correlation((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)) + 1.0) <= TOL


def test_pearson_hand_oracle():
    # centered dx=(-1.5,-.5,.5,1.5), dy=(-1.5,.5,-.5,1.5): cov 4, var 5 each
    assert abs(pearson_correlation((1, 2, 3, 4), (1, 3, 2, 4)) - 0.8) <= TOL


def test_pearson_constant_series():
    with pytest.raises(UndefinedCorrelationError):
        pearson_correlation((1.0, 2.0, 3.0), (5.0, 5.0, 5.0))


def test_pearson_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        pearson_correlation((1.0, 2.0), (1.0, 2.0, 3.0))


def test_pearson_too_short():
    with pytest.raises(InsufficientSamplesError):
        pearson_correlation((1.0,), (2.0,))


# integer-valued series keep the variance well away from underflow
int_series = st.lists(
    st.integers(min_value=-100, max_value=100).map(float), min_size=3, max_size=20
)


@given(int_series, int_series)
def test_pearson_bounded(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return
    r = pearson_correlation(xs, ys)
    assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


@settings(max_examples=50)
@given(
    int_series,
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_pearson_affine_invariance(xs, scale, shift):
    if len(set(xs)) < 2:
        return
    ys = [scale * x + shift for x in xs]
    assert pearson_correlation(xs, ys) == pytest.approx(1.0, abs=1e-9)

"""Pure numeric core: cosine distance, semantic stability, the token-level
KL alternative, and the stability/success correlation statistic.

All functions here are pure and reentrant; nothing touches a backend.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyOutputError,
    InsufficientSamplesError,
    UndefinedCorrelationError,
    ZeroVectorError,
)

SEMANTIC = "semantic"
KL = "kl"

# each metric's largest distance, the one a blank sample gets from every
# other, so that its scores lie in [1 - largest, 1]
LARGEST_DISTANCE = {SEMANTIC: 2.0, KL: 1.0}


@dataclass(frozen=True)
class EmbeddingVector:
    """A dense semantic vector for one text sample."""

    components: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(map(float, self.components)))

    @property
    def dim(self) -> int:
        return len(self.components)


# elements in one temporary of _pair_sums, 128 KB of float64: the pairs of
# a dozen distinct outputs go in one step, and a block's temporaries stay in
# a core's cache (on a 2-vCPU Xeon, 200 unit vectors of 64 dims took two
# fifths less time than a loop over rows in 128 KB blocks, and a fifth more
# in 256 KB blocks)
_PAIR_BLOCK = 1 << 14


def _pair_sums(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k (x[i,k] - x[j,k]) * (y[i,k] - y[j,k]) for every row pair i < j,
    in np.triu_indices order: the one pair loop of both stability metrics.
    Each value depends only on its two rows (not on where they sit), is
    exactly symmetric, and is exactly 0 when the two rows of x are equal.
    The pairs go in blocks of _PAIR_BLOCK // width (at least one), each
    gathered and reduced in a few array steps. No temporary holds more than
    max(_PAIR_BLOCK, width) elements, so a wide KL vocabulary takes no more
    memory than a loop over rows, and each pair's sum is reduced on its own,
    so the blocking does not change a bit."""
    a, b = _pairs(len(x))
    step = max(1, _PAIR_BLOCK // max(1, x.shape[1]))
    sums = []
    for start in range(0, max(1, len(a)), step):
        i, j = a[start:start + step], b[start:start + step]
        # in place on the gathered rows: a block takes three temporaries
        dx = x[i]
        dx -= x[j]
        if y is x:
            dy = dx
        else:
            dy = y[i]
            dy -= y[j]
        dy *= dx
        sums.append(np.add.reduce(dy, axis=1))
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def _cosine_distances(vectors: Sequence) -> np.ndarray:
    """1 - cos(v_i, v_j) for every pair i < j, as |u_i - u_j|^2 / 2 over the
    unit vectors u, clamped to [0, 2]."""
    rows = [v.components if isinstance(v, EmbeddingVector) else v for v in vectors]
    try:
        m = np.array(rows, dtype=float)
    except ValueError:
        shapes = {np.shape(row) for row in rows}
        if len(shapes) < 2:
            raise
        raise DimensionMismatchError(f"dims differ: {sorted(shapes)}") from None
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected vectors, got shape {m.shape[1:]}")
    norms = np.sqrt((m * m).sum(axis=1))
    if not norms.all():
        raise ZeroVectorError("cosine distance undefined for zero-norm vectors")
    unit = m / norms[:, None]
    # a sum of squares is never below 0, but float error can push it a hair
    # above 2; the contract says d can't be
    return np.minimum(0.5 * _pair_sums(unit, unit), 2.0)


def cosine_distance(v, w) -> float:
    """1 - cos(v, w). Result lies in [0, 2]; exactly symmetric; exactly 0 for
    equal vectors; invariant under positive rescaling of either argument.
    Raises DimensionMismatchError on unequal dims and ZeroVectorError if
    either argument has zero norm."""
    return float(_cosine_distances([v, w])[0])


@dataclass(frozen=True)
class StabilityScore:
    """Semantic stability of a prompt: 1 minus the mean pairwise distance over
    N repeated outputs, with each sample's mean distance to the other N - 1.
    The mean of sample_distances is 1 - value, up to rounding."""

    value: float
    sample_distances: tuple[float, ...]

    def __post_init__(self):
        d = self.sample_distances
        largest = max(LARGEST_DISTANCE.values())
        if d and not (0.0 <= min(d) and max(d) <= largest):
            raise ValueError(f"sample distances outside [0, {largest:g}]: {min(d)}..{max(d)}")

    @property
    def sample_count(self) -> int:
        return len(self.sample_distances)


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair i < j in np.triu_indices order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _exact_products(values: np.ndarray, weights: np.ndarray) -> list[float]:
    """Floats whose exact sum is that of values[p] * weights[p], for weights
    that are whole numbers below 2**26: each product rounded, then each
    rounding error that is not 0 (Dekker's two-product, exact without
    underflow). A value splits into two halves of 26 significant bits, so
    the product of either half and a weight is exact."""
    products = values * weights
    split = values * 134217729.0  # 2**27 + 1
    high = split - (split - values)
    errors = (high * weights - products) + (values - high) * weights
    terms = products.tolist()
    terms += errors[errors != 0.0].tolist()
    return terms


def _score(rows: Sequence[int] | None, k: int, distances: np.ndarray,
           ceiling: float) -> StabilityScore:
    """The score of N samples from the pair distances of k inputs, in
    np.triu_indices order. rows[p] is sample p's input, or -1 when sample p
    is blank; None means one input per sample. Samples of one input are at
    distance 0, and a blank sample is at the ceiling, the largest distance
    the metric can give, from every sample, blank ones included.

    The value is 1 minus the exactly rounded sum of the N(N-1)/2 sample
    pair distances over their count. That sum is formed from the distinct
    pairs: each input pair's distance times its multiplicity c_a * c_b,
    made exact by _exact_products while multiplicities stay below 2**26
    (N below 16,384, where the sample pairs alone would take a gigabyte),
    plus the ceiling times the number of pairs with a blank sample. One
    fsum then rounds the same real number as an fsum over every sample
    pair, in O(k^2) terms instead of O(N^2).

    Each sample's distance is the sum, in sample-pair order, of the sample
    pairs gathered from a (k+1)x(k+1) table whose first row and column are
    the blank ones. A pair value depends only on its two inputs, so the
    value and the sample distances are bit for bit those of every sample
    scored on its own."""
    rows = range(k) if rows is None else rows
    n = len(rows)
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    # Python sets: at N = 5 they take a quarter of the time of numpy checks
    if set(rows) | {-1} != set(range(-1, k)):
        raise ValueError(f"sample rows {list(rows)} do not map onto {k} inputs")
    rows = np.asarray(rows, dtype=np.intp) + 1  # input 0 is the blank one
    a, b = _pairs(k)
    counts = np.bincount(rows, minlength=k + 1).astype(float)
    blanks = int(counts[0])
    terms = _exact_products(distances, counts[1:][a] * counts[1:][b])
    terms.append(ceiling * (blanks * (n - blanks) + blanks * (blanks - 1) // 2))
    i, j = _pairs(n)
    value = 1.0 - math.fsum(terms) / len(i)
    table = np.zeros((k + 1, k + 1))
    table[0] = table[:, 0] = ceiling
    inputs = table[1:, 1:]
    inputs[a, b] = inputs[b, a] = distances
    gathered = table.take(rows[i] * (k + 1) + rows[j])
    totals = np.bincount(i, gathered, n) + np.bincount(j, gathered, n)
    return StabilityScore(value=value, sample_distances=tuple((totals / (n - 1)).tolist()))


def semantic_stability(vectors: Sequence, rows: Sequence[int] | None = None) -> StabilityScore:
    """Average pairwise cosine similarity over N >= 2 output embeddings.

    value = 1 - (2 / (N (N-1))) * sum_{i<j} d_ij, i.e. 1 minus the mean pair
    distance. Permuting the input leaves the value exactly unchanged: each
    d_ij depends only on its two vectors, and the mean is an exactly rounded
    sum. Equal vectors have d_ij exactly 0, so N equal vectors score 1.

    `rows` maps the N samples onto the vectors: rows[p] is the vector of
    sample p, or -1 when sample p has no text to embed. Every vector must be
    some sample's. By default each vector is one sample. Samples that share a
    vector are at distance exactly 0, and a blank sample is at the maximum
    distance 2 from every other, so only the pairs of distinct vectors are
    computed.
    """
    distances = _cosine_distances(vectors) if len(vectors) else np.empty(0)
    return _score(rows, len(vectors), distances, LARGEST_DISTANCE[SEMANTIC])


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization after lowercasing; shared by the KL metric and
    the hash embedder."""
    return text.lower().split()


def _kl_divergences(outputs: Sequence[str], alpha: float) -> np.ndarray:
    """Symmetrized KL divergence of every output pair i < j, between add-alpha
    smoothed unigram distributions over the union vocabulary; exactly 0 when
    a pair's token multisets agree. Shared by both KL metrics."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if any(not out.strip() for out in outputs):
        raise EmptyOutputError("cannot build a token distribution from an empty output")
    tokens = [tokenize(out) for out in outputs]
    column = {tok: k for k, tok in enumerate(sorted({t for toks in tokens for t in toks}))}
    n, width = len(tokens), len(column)
    flat = [row * width + column[t] for row, toks in enumerate(tokens) for t in toks]
    counts = np.bincount(flat, minlength=n * width).reshape(n, width)
    probs = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha * width)
    return np.maximum(_pair_sums(probs, np.log(probs)), 0.0)


def kl_stability(outputs: Sequence[str], alpha: float = 1.0) -> float:
    """Average pairwise symmetrized KL divergence between add-alpha smoothed
    unigram distributions of the outputs, over their union vocabulary.

    Returns 0 iff all outputs have identical token multisets; always >= 0.
    Lower means more stable. Tokenization is whitespace + lowercase.
    """
    if len(outputs) < 2:
        raise InsufficientSamplesError(f"need at least 2 outputs, got {len(outputs)}")
    divergences = _kl_divergences(outputs, alpha)
    return math.fsum(divergences.tolist()) / len(divergences)


def kl_stability_score(
    outputs: Sequence[str], alpha: float = 1.0, rows: Sequence[int] | None = None
) -> StabilityScore:
    """kl_stability repackaged on the same scale as semantic_stability, so the
    two metrics are interchangeable behind one threshold gate.

    Each pairwise divergence J is squashed to J / (1 + J), which lies in
    [0, 1) and is 0 iff the pair's token multisets agree; the score value is
    1 minus the mean squashed divergence. Identical outputs score exactly 1.
    `rows` works as in semantic_stability, over the outputs: a blank sample
    is at the maximum distance 1 from every other. The vocabulary is that
    of the outputs, which are all the non-blank samples' texts, so mapping
    repeated samples onto one output leaves every divergence unchanged.
    """
    divergences = _kl_divergences(outputs, alpha)
    return _score(rows, len(outputs), divergences / (1.0 + divergences),
                  LARGEST_DISTANCE[KL])


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Standard Pearson r. Raises UndefinedCorrelationError if either series
    is constant."""
    if len(xs) != len(ys):
        raise DimensionMismatchError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise InsufficientSamplesError("need at least 2 points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.dot(xc, xc)))
    sy = float(np.sqrt(np.dot(yc, yc)))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a constant series")
    return float(np.dot(xc, yc)) / (sx * sy)

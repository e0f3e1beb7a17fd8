"""Scalar aggregation model for planner-executor systems, the analytic
concentration bound on |s - s_hat|, and Monte-Carlo verification that
empirical deviation tails respect it.

Sampling is blocked: trials are split into fixed-size blocks and each block
draws from its own Philox substream keyed by (seed, block index). Blocks can
therefore be computed in any order, or in parallel, and the merged counts are
identical to a single-threaded run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError

GAUSSIAN = "gaussian"
UNIFORM = "uniform"

_BLOCK_SIZE = 8192


@dataclass(frozen=True)
class AggregationSpec:
    """Aggregation weight vectors u and v; the system output is
    sum_i u_i v_i x_i."""

    u: tuple[float, ...]
    v: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.u) != len(self.v):
            raise DimensionMismatchError(f"u has length {len(self.u)}, v has {len(self.v)}")
        if len(self.u) < 1:
            raise ValueError("aggregation vectors must have length >= 1")
        if not all(map(math.isfinite, self.u + self.v)):
            raise ValueError("aggregation weights must be finite")
        if not all(math.isfinite(a * b) for a, b in zip(self.u, self.v)):
            raise ValueError("aggregation weight products u_i * v_i must be finite")

    @property
    def n(self) -> int:
        return len(self.u)

    def weights(self) -> np.ndarray:
        return np.asarray(self.u) * np.asarray(self.v)


@dataclass(frozen=True)
class AgentOutputModel:
    """Distribution of one agent's scalar output around its intended value,
    as a simulation config writes it: {"kind": "gaussian", "mean",
    "variance"} or {"kind": "uniform", "low", "high"}. A uniform's mean and
    variance follow from its bounds: the tail bound applies to centered
    deviations, so the intended output is the distribution mean. The mean
    and the variance are finite, and the variance is non-negative."""

    kind: str
    mean: float | None = None
    variance: float | None = None
    low: float | None = None
    high: float | None = None

    def __post_init__(self):
        moments, bounds = (self.mean, self.variance), (self.low, self.high)
        if self.kind == GAUSSIAN and None not in moments and bounds == (None, None):
            pass
        elif (self.kind == UNIFORM and moments == (None, None) and None not in bounds
              and self.low < self.high):
            try:
                variance = (self.high - self.low) ** 2 / 12.0
            except OverflowError:  # a finite width whose square is past the float range
                variance = math.inf
            object.__setattr__(self, "mean", (self.low + self.high) / 2.0)
            object.__setattr__(self, "variance", variance)
        else:
            raise ValueError(
                "an output model is a gaussian with mean and variance"
                f" or a uniform with low < high, got kind {self.kind!r}"
            )
        if not (math.isfinite(self.mean) and 0 <= self.variance < math.inf):
            raise ValueError(
                "an output model has a finite mean and a finite, non-negative variance,"
                f" got mean {self.mean!r} and variance {self.variance!r}"
            )

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "AgentOutputModel":
        return cls(GAUSSIAN, mean=mean, variance=variance)

    @classmethod
    def uniform(cls, low: float, high: float) -> "AgentOutputModel":
        return cls(UNIFORM, low=low, high=high)


@dataclass(frozen=True)
class DeviationReport:
    """One Monte-Carlo verification cell: empirical tail frequency of
    |s - s_hat| >= epsilon next to the analytic bound."""

    n: int
    epsilon: float
    analytic_bound: float
    empirical_tail: float
    trials: int
    seed: int


def deviation_bound(spec: AggregationSpec, variances: Sequence[float], epsilon: float) -> float:
    """Tail bound P(|s - s_hat| >= eps) <= min(1, 2 exp(-eps^2 / (2 D))) with
    D = sum_i (u_i v_i)^2 Var(x_i). D = 0 means the deviation is almost surely
    zero, so the bound is 0. D and eps^2 are products, so past the float
    range they are infinite, not an OverflowError, and the bound takes its
    limits: 1 as D grows, 0 as eps grows."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if len(variances) != spec.n:
        raise DimensionMismatchError(f"got {len(variances)} variances for n={spec.n}")
    if not all(0 <= v < math.inf for v in variances):
        raise ValueError("variances must be finite and non-negative")
    d = 0.0
    for i in range(spec.n):
        w = spec.u[i] * spec.v[i]
        if variances[i]:  # an infinite w * w times 0 would be NaN
            d += w * w * float(variances[i])
    if d == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-(epsilon * epsilon) / (2.0 * d)))


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{block_index}".encode()).digest()
    key = int.from_bytes(digest[:16], "big")
    return np.random.Generator(np.random.Philox(key=key))


def _block_deviations(
    models: Sequence[AgentOutputModel],
    spec: AggregationSpec,
    seed: int,
    block_index: int,
    block_trials: int,
) -> np.ndarray:
    """|s - s_hat| for one block of trials, drawn from the block's substream."""
    rng = _block_rng(seed, block_index)
    weights = spec.weights()
    dev = np.zeros(block_trials)
    for i, model in enumerate(models):
        if model.kind == GAUSSIAN:
            centered = math.sqrt(model.variance) * rng.standard_normal(block_trials)
        else:
            centered = rng.uniform(model.low, model.high, block_trials) - model.mean
        # past the float range a sum is inf, or NaN where +inf meets -inf
        with np.errstate(over="ignore", invalid="ignore"):
            dev += weights[i] * centered
    return np.abs(dev)


def simulate_deviation_tails(
    models: Sequence[AgentOutputModel],
    spec: AggregationSpec,
    epsilons: Sequence[float],
    trials: int,
    seed: int,
) -> list[DeviationReport]:
    """Monte-Carlo tail frequencies for several epsilon thresholds over one
    shared set of draws (identical seed => identical draws across thresholds)."""
    if len(models) != spec.n:
        raise DimensionMismatchError(f"got {len(models)} models for n={spec.n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # each bound checks its epsilon, before the draw
    variances = [m.variance for m in models]
    bounds = [deviation_bound(spec, variances, eps) for eps in epsilons]
    counts = [0] * len(epsilons)
    for start in range(0, trials, _BLOCK_SIZE):
        dev = _block_deviations(models, spec, seed, start // _BLOCK_SIZE,
                                min(_BLOCK_SIZE, trials - start))
        for k, eps in enumerate(epsilons):
            # a NaN deviation is past every epsilon too
            counts[k] += int(np.count_nonzero(~(dev < eps)))
    return [
        DeviationReport(
            n=spec.n,
            epsilon=float(eps),
            analytic_bound=bounds[k],
            empirical_tail=counts[k] / trials,
            trials=trials,
            seed=seed,
        )
        for k, eps in enumerate(epsilons)
    ]

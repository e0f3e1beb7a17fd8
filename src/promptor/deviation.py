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
UNIFORM_BOUNDED = "uniform-bounded"

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

    @property
    def n(self) -> int:
        return len(self.u)

    def weights(self) -> np.ndarray:
        return np.asarray(self.u) * np.asarray(self.v)


@dataclass(frozen=True)
class AgentOutputModel:
    """Distribution of one agent's scalar output around its intended value."""

    mean: float
    variance: float
    family: str
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be non-negative")
        if self.family == GAUSSIAN:
            if self.bounds is not None:
                raise ValueError("gaussian models take no bounds")
        elif self.family == UNIFORM_BOUNDED:
            if self.bounds is None:
                raise ValueError("uniform-bounded models require bounds")
            lo, hi = self.bounds
            if not lo < hi:
                raise ValueError(f"bounds must satisfy lo < hi, got {self.bounds}")
            if abs(self.variance - (hi - lo) ** 2 / 12.0) > 1e-9:
                raise ValueError("uniform-bounded variance must equal (hi-lo)^2/12")
            # The tail bound applies to centered deviations, so the intended
            # output must be the distribution mean.
            if abs(self.mean - (lo + hi) / 2.0) > 1e-9:
                raise ValueError("uniform-bounded mean must be the interval midpoint")
        else:
            raise ValueError(f"unsupported distribution family: {self.family!r}")

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "AgentOutputModel":
        return cls(mean=mean, variance=variance, family=GAUSSIAN)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "AgentOutputModel":
        return cls(
            mean=(lo + hi) / 2.0,
            variance=(hi - lo) ** 2 / 12.0,
            family=UNIFORM_BOUNDED,
            bounds=(lo, hi),
        )


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
    zero, so the bound is 0."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(variances) != spec.n:
        raise DimensionMismatchError(f"got {len(variances)} variances for n={spec.n}")
    if any(v < 0 for v in variances):
        raise ValueError("variances must be non-negative")
    d = 0.0
    for i in range(spec.n):
        d += (spec.u[i] * spec.v[i]) ** 2 * float(variances[i])
    if d == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-(epsilon**2) / (2.0 * d)))


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
        if model.family == GAUSSIAN:
            centered = math.sqrt(model.variance) * rng.standard_normal(block_trials)
        else:
            lo, hi = model.bounds
            centered = rng.uniform(lo, hi, block_trials) - model.mean
        dev += weights[i] * centered
    return np.abs(dev)


def _check_simulation_args(models, spec, trials):
    if len(models) != spec.n:
        raise DimensionMismatchError(f"got {len(models)} models for n={spec.n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")


def _block_layout(trials: int) -> list[tuple[int, int]]:
    blocks = []
    start = 0
    index = 0
    while start < trials:
        size = min(_BLOCK_SIZE, trials - start)
        blocks.append((index, size))
        start += size
        index += 1
    return blocks


def simulate_deviation_tails(
    models: Sequence[AgentOutputModel],
    spec: AggregationSpec,
    epsilons: Sequence[float],
    trials: int,
    seed: int,
) -> list[DeviationReport]:
    """Monte-Carlo tail frequencies for several epsilon thresholds over one
    shared set of draws (identical seed => identical draws across thresholds)."""
    _check_simulation_args(models, spec, trials)
    for eps in epsilons:
        if eps <= 0:
            raise ValueError("epsilon must be positive")
    counts = [0] * len(epsilons)
    for block_index, block_trials in _block_layout(trials):
        dev = _block_deviations(models, spec, seed, block_index, block_trials)
        for k, eps in enumerate(epsilons):
            counts[k] += int(np.count_nonzero(dev >= eps))
    variances = [m.variance for m in models]
    return [
        DeviationReport(
            n=spec.n,
            epsilon=float(eps),
            analytic_bound=deviation_bound(spec, variances, eps),
            empirical_tail=counts[k] / trials,
            trials=trials,
            seed=seed,
        )
        for k, eps in enumerate(epsilons)
    ]

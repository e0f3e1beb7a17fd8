"""Scalar aggregation model for planner-executor systems and the analytic
concentration bound on |s - s_hat|. Reports take the aggregate variance D
from the variances a trace measured (see reports.digest_trace)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatchError


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


def aggregate_variance(spec: AggregationSpec, variances: Sequence[float]) -> float:
    """D = sum_i (u_i v_i)^2 Var(x_i), one finite, non-negative variance per
    agent. D is a sum of products, so past the float range it is infinite,
    not an OverflowError."""
    if len(variances) != spec.n:
        raise DimensionMismatchError(f"got {len(variances)} variances for n={spec.n}")
    if not all(0 <= v < math.inf for v in variances):
        raise ValueError("variances must be finite and non-negative")
    d = 0.0
    for i in range(spec.n):
        w = spec.u[i] * spec.v[i]
        if variances[i]:  # an infinite w * w times 0 would be NaN
            d += w * w * float(variances[i])
    return d


def deviation_bound(spec: AggregationSpec, variances: Sequence[float], epsilon: float) -> float:
    """Tail bound P(|s - s_hat| >= eps) <= min(1, 2 exp(-eps^2 / (2 D))) with
    D = aggregate_variance(spec, variances). D = 0 means the deviation is
    almost surely zero, so the bound is 0. Past the float range D and eps^2
    are infinite, and the bound takes its limits: 1 as D grows, 0 as eps
    grows."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    d = aggregate_variance(spec, variances)
    if d == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-(epsilon * epsilon) / (2.0 * d)))

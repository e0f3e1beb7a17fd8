"""Reports computed from execution traces alone: success rates, reference
checks, per-subtask trajectories, the Pearson r between each scored
subtask's executed score and its success, and each run's deviation
bound from the variances its gates measured. Each trace is replayed once
into a digest, and every figure of the report is read from the digests.
Reports never read anything but the trace, so identical trace bytes always
produce identical report bytes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .deviation import AggregationSpec, aggregate_variance
from .errors import InsufficientSamplesError, MalformedTraceError, UndefinedCorrelationError
from .metrics import pearson_correlation
from .plan import SubtaskStatus
from .trace import ExecutionTrace, ReplayState, replay_trace

# the reference judge's modes, and the numeric mode's default tolerance
EXACT = "exact"
NUMERIC_MATCH = "numeric"
DEFAULT_TOLERANCE = 1e-6


def _check_reference_fields(answer, match, tolerance, error: type[Exception]) -> None:
    """A run's reference_answer, reference_match and reference_tolerance, from
    a config file or a trace header: a string or null, one of the judge's
    modes, and a number at least 0 that is not a boolean; else error names
    the first field that is not."""
    if not isinstance(answer, (str, type(None))):
        raise error(f"reference_answer must be a string or null, got {answer!r}")
    if match not in (EXACT, NUMERIC_MATCH):
        raise error(f"reference_match must be '{EXACT}' or '{NUMERIC_MATCH}', got {match!r}")
    # type(...) in: a boolean is an int, but never a tolerance
    if not (type(tolerance) in (int, float) and tolerance >= 0):
        raise error(f"reference_tolerance must be a number >= 0, got {tolerance!r}")


def reference_check(
    output: str, reference: str, match: str = EXACT, tolerance: float = DEFAULT_TOLERANCE
) -> bool:
    """Default judge: exact match after whitespace normalization; numeric
    mode parses both sides and compares within the tolerance."""
    if match == EXACT:
        return output.split() == reference.split()
    if match == NUMERIC_MATCH:
        try:
            return abs(float(output.strip()) - float(reference.strip())) <= tolerance
        except ValueError:
            return False
    raise ValueError(f"unknown reference match mode: {match!r}")


@dataclass(frozen=True)
class SubtaskDigest:
    subtask_id: str
    final_status: str
    stability_trajectory: tuple[float, ...]
    refinement_count: int
    augmentation_count: int
    # the score of the revision its gate executed; None when never scored
    executed_stability: float | None

    @property
    def succeeded(self) -> bool:
        return self.final_status == SubtaskStatus.EXECUTED_OK.value


@dataclass(frozen=True)
class TraceDigest:
    """Everything a report needs from one run's trace."""

    run_status: str
    final_output: str
    subtasks: tuple[SubtaskDigest, ...]
    reference_passed: bool | None  # None when the run had no reference answer
    # the deviation bound's D over the final subtask's dependency paths; None
    # when some subtask on them has no variance, and the reason is in
    # no_variance_reason
    aggregate_variance: float | None
    no_variance_reason: str | None

    @property
    def succeeded(self) -> bool:
        return self.run_status == "succeeded"


def _final_path_variance(state: ReplayState) -> tuple[float | None, str | None]:
    """D = sum_i (u_i v_i)^2 Var_i over the m subtasks on the final
    subtask's dependency paths: the last subtask in plan order, whose output
    is the run's, and every subtask it depends on, transitively. Each has
    u_i = 1/m and v_i = 1. The first of them, in plan order, that has no
    variance makes D undefined; that is (None, the reason)."""
    if state.plan is None or not state.plan.subtasks:
        return None, "the run has no plan"
    subtasks = state.plan.subtasks
    path = {subtasks[-1].id}
    for sub in reversed(subtasks):  # plan order puts dependencies first
        if sub.id in path:
            path.update(sub.dependencies)
    variances = []
    for sub in subtasks:
        if sub.id in path:
            variance = state.variances.get(sub.id, "was never scored")
            if isinstance(variance, str):
                return None, f"subtask {sub.id!r} {variance}"
            variances.append(variance)
    m = len(variances)
    return aggregate_variance(AggregationSpec((1.0 / m,) * m, (1.0,) * m), variances), None


def digest_trace(trace: ExecutionTrace) -> TraceDigest:
    state = replay_trace(trace)
    if state.run_status not in ("succeeded", "failed"):
        raise MalformedTraceError(
            f"trace lacks a terminal run status (got {state.run_status!r})"
        )
    subtasks = () if state.plan is None else tuple(
        SubtaskDigest(
            subtask_id=sub.id,
            final_status=sub.status.value,
            stability_trajectory=tuple(state.scores.get(sub.id, ())),
            refinement_count=state.refinements.get(sub.id, 0),
            augmentation_count=state.augmentations.get(sub.id, 0),
            executed_stability=state.executed_scores.get(sub.id),
        )
        for sub in state.plan.subtasks)
    reference = trace.header.get("reference_answer")
    match = trace.header.get("reference_match", EXACT)
    tolerance = trace.header.get("reference_tolerance", DEFAULT_TOLERANCE)
    _check_reference_fields(reference, match, tolerance, MalformedTraceError)
    passed = None if reference is None else reference_check(
        state.final_output, reference, match, tolerance)
    d, reason = _final_path_variance(state)
    return TraceDigest(
        run_status=state.run_status,
        final_output=state.final_output,
        subtasks=subtasks,
        reference_passed=passed,
        aggregate_variance=d,
        no_variance_reason=reason,
    )


@dataclass(frozen=True)
class CorrelationReport:
    pair_count: int
    # None when r is undefined for these pairs (fewer than two, or a
    # constant series, such as every scored subtask succeeding); the reason
    # is in undefined_reason
    coefficient: float | None
    undefined_reason: str | None = None


@dataclass(frozen=True)
class RunReport:
    digests: tuple[TraceDigest, ...]

    @property
    def run_count(self) -> int:
        return len(self.digests)

    @property
    def execution_success_rate(self) -> float:
        """Fraction of runs finishing with every subtask executed-ok."""
        return sum(1 for d in self.digests if d.succeeded) / len(self.digests)

    @property
    def reference_count(self) -> int:
        return sum(1 for d in self.digests if d.reference_passed is not None)

    @property
    def completion_rate(self) -> float | None:
        """Fraction of reference-checked runs whose final output matched;
        None when no run carried a reference answer."""
        if self.reference_count == 0:
            return None
        passed = sum(1 for d in self.digests if d.reference_passed)
        return passed / self.reference_count

    @property
    def correlation(self) -> CorrelationReport:
        """Pearson r over one (executed stability score, succeeded) pair per
        scored subtask, in trace order. Unscored subtasks contribute nothing."""
        scored = [sub for d in self.digests for sub in d.subtasks
                  if sub.executed_stability is not None]
        stabilities = [sub.executed_stability for sub in scored]
        successes = [1.0 if sub.succeeded else 0.0 for sub in scored]
        try:
            coefficient = pearson_correlation(stabilities, successes)
        except (InsufficientSamplesError, UndefinedCorrelationError) as exc:
            return CorrelationReport(len(scored), None, str(exc))
        return CorrelationReport(len(scored), coefficient)


def compute_run_metrics(traces: Iterable[ExecutionTrace]) -> RunReport:
    """The report over traces, each digested as it is taken from the
    iterable and then let go, so a generator of traces holds one at a time."""
    digests = tuple(map(digest_trace, traces))
    if not digests:
        raise InsufficientSamplesError("compute_run_metrics needs at least one trace")
    return RunReport(digests=digests)


def render_run_report(report: RunReport) -> str:
    lines = [
        f"runs: {report.run_count}",
        f"execution success rate: {report.execution_success_rate:.6f}",
    ]
    if report.completion_rate is None:
        lines.append("completion rate: n/a (no reference answer configured)")
    else:
        passed = round(report.completion_rate * report.reference_count)
        lines.append(
            f"completion rate: {report.completion_rate:.6f} "
            f"({passed}/{report.reference_count} reference checks passed)"
        )
    correlation = report.correlation
    if correlation.coefficient is None:
        r = f"n/a ({correlation.undefined_reason})"
    else:
        r = f"{correlation.coefficient:.10f}"
    lines.append(f"stability-success pairs: {correlation.pair_count}")
    lines.append(f"pearson_r: {r}")
    for k, digest in enumerate(report.digests, start=1):
        lines.append("")
        lines.append(f"run {k}: {digest.run_status}")
        lines.append(f"  final output: {digest.final_output!r}")
        if digest.reference_passed is not None:
            lines.append(
                f"  reference check: {'pass' if digest.reference_passed else 'fail'}"
            )
        d = digest.aggregate_variance
        if d is None:
            lines.append(f"  deviation: n/a ({digest.no_variance_reason})")
        else:
            # the epsilon at which the bound 2 exp(-eps^2 / 2D) reaches 0.05
            epsilon = math.sqrt(2.0 * d * math.log(40.0))
            lines.append(f"  deviation: D={d:.6f} epsilon@0.05={epsilon:.6f}")
        for sub in digest.subtasks:
            trajectory = ", ".join(f"{v:.6f}" for v in sub.stability_trajectory)
            lines.append(
                f"  {sub.subtask_id}: {sub.final_status}"
                f" stability=[{trajectory}]"
                f" refinements={sub.refinement_count}"
                f" augmentations={sub.augmentation_count}"
            )
    return "\n".join(lines) + "\n"

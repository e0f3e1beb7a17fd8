import statistics

import pytest

from promptor.backends import HashEmbedder, ScriptedGenerator
from promptor.errors import InsufficientSamplesError, MalformedTraceError
from promptor.orchestrator import Orchestrator, OrchestratorSettings
from promptor.plan import Plan, Subtask
from promptor.prompt import render_prompt
from promptor.reports import (
    compute_run_metrics,
    correlate_traces,
    digest_trace,
    reference_check,
    render_correlation_report,
    render_run_report,
    stability_success_pairs,
)
from promptor.trace import TraceWriter, parse_trace_lines

from .pipeline_fixture import (
    PIPELINE_SUBTASKS,
    TASK,
    executor_prompt,
    pipeline_generator,
    planner_behavior,
    point_mass,
)

REFERENCE_HEADER = {
    "task": TASK,
    "reference_answer": "87",
    "reference_match": "exact",
    "reference_tolerance": 1e-6,
}


def run_trace(succeed=True, run_seed=0, header=REFERENCE_HEADER, path=None):
    """Drive the scripted pipeline to a terminal trace, optionally failing
    the first subtask so its dependents stay blocked, and writing it to path."""
    if succeed:
        gen = pipeline_generator(run_seed)
        settings = OrchestratorSettings(knowledge_enabled=False)
    else:
        prompt = executor_prompt("parse", "Parse the transaction list.")
        gen = ScriptedGenerator(
            behaviors=[
                planner_behavior(PIPELINE_SUBTASKS),
                point_mass(render_prompt(prompt), "not a number"),
            ],
            run_seed=run_seed,
        )
        settings = OrchestratorSettings(
            knowledge_enabled=False, reviewer_enabled=False,
            plan_updater_enabled=False, subtask_optimizer_enabled=False,
        )
    with TraceWriter(dict(header), path=path) as writer:
        Orchestrator(gen, HashEmbedder(), writer, settings).run_pipeline(TASK, template="linear-chain")
    return writer.trace()


def synthetic_trace(stability, succeeded, refinements=0, augmentations=0, path=None):
    """Minimal single-subtask trace with a chosen stability score and
    outcome, for exercising report arithmetic directly, written to path."""
    writer = TraceWriter({"task": "synthetic"}, path=path)
    plan = Plan(task_description="synthetic",
                subtasks=(Subtask(id="s", description="Do the step."),))
    writer.emit("status-change", {"subtask_id": "__run__", "from": None, "to": "running"})
    writer.emit("plan-update", {"note": "created", "update": None,
                                "plan_after": plan.to_json_dict(), "run_status": None})
    prompt = executor_prompt("s", "Do the step.")
    writer.emit("revision", {"subtask_id": "s", "component": "initial", "revision": 0,
                             "prompt_after": prompt.to_json_dict()})
    for k in range(refinements):
        writer.emit("revision", {"subtask_id": "s", "component": "requirements",
                                 "revision": k + 1, "prompt_after": prompt.to_json_dict()})
    writer.emit("score", {"subtask_id": "s", "metric": "semantic",
                          "value": stability, "sample_count": 5})
    writer.emit("status-change", {"subtask_id": "s", "from": "pending",
                                  "to": "stable-prompt-ready"})
    for k in range(augmentations):
        writer.emit("augmentation", {"subtask_id": "s", "clause": "Be brief.",
                                     "revision": refinements + k + 1,
                                     "prompt_after": prompt.to_json_dict()})
    terminal = "executed-ok" if succeeded else "executed-failed"
    writer.emit("status-change", {"subtask_id": "s", "from": "stable-prompt-ready",
                                  "to": terminal})
    writer.emit("status-change", {"subtask_id": "__run__", "from": "running",
                                  "to": "succeeded" if succeeded else "failed",
                                  "final_output": "42" if succeeded else ""})
    writer.close()
    return writer.trace()


class TestReferenceCheck:
    def test_exact_normalizes_whitespace(self):
        assert reference_check("  87 \n", "87")
        assert reference_check("a  b", "a b")
        assert not reference_check("88", "87")

    def test_numeric_compares_within_tolerance(self):
        assert reference_check("87.0000001", "87", match="numeric", tolerance=1e-3)
        assert not reference_check("87.1", "87", match="numeric", tolerance=1e-3)
        assert reference_check(" 4.2e1 ", "42", match="numeric")

    def test_numeric_parse_failure_fails_the_check(self):
        assert not reference_check("about 87", "87", match="numeric")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="match mode"):
            reference_check("87", "87", match="fuzzy")


class TestDigestTrace:
    def test_successful_run(self):
        digest = digest_trace(run_trace(succeed=True))
        assert digest.run_status == "succeeded"
        assert digest.succeeded
        assert digest.final_output == "87"
        assert digest.reference_passed is True
        assert [s.subtask_id for s in digest.subtasks] == ["parse", "net", "balance"]
        for sub in digest.subtasks:
            assert sub.final_status == "executed-ok"
            assert sub.succeeded
            assert len(sub.stability_trajectory) == 1
            assert sub.last_stability == pytest.approx(1.0)
            assert sub.refinement_count == 0
            assert sub.augmentation_count == 0

    def test_failed_run_keeps_blocked_subtasks_visible(self):
        digest = digest_trace(run_trace(succeed=False))
        assert digest.run_status == "failed"
        assert digest.final_output == ""
        assert digest.reference_passed is False
        statuses = {s.subtask_id: s.final_status for s in digest.subtasks}
        assert statuses == {"parse": "executed-failed", "net": "pending",
                            "balance": "pending"}

    def test_no_reference_header_means_no_check(self):
        digest = digest_trace(run_trace(header={"task": TASK}))
        assert digest.reference_passed is None

    def test_refinement_and_augmentation_counts(self):
        digest = digest_trace(synthetic_trace(0.9, True, refinements=2, augmentations=1))
        sub = digest.subtasks[0]
        assert sub.refinement_count == 2  # the initial build is not a refinement
        assert sub.augmentation_count == 1

    def test_trace_without_terminal_status_is_malformed(self):
        writer = TraceWriter({"task": "t"})
        writer.emit("status-change", {"subtask_id": "__run__", "from": None,
                                      "to": "running"})
        with pytest.raises(MalformedTraceError, match="terminal"):
            digest_trace(writer.trace())


class TestRunMetrics:
    def test_success_rate_counts_terminal_successes(self):
        traces = [run_trace(succeed=True, run_seed=s) for s in range(4)]
        traces.append(run_trace(succeed=False))
        report = compute_run_metrics(traces)
        assert report.run_count == 5
        assert report.execution_success_rate == pytest.approx(4 / 5)
        assert report.completion_rate == pytest.approx(4 / 5)
        assert report.reference_count == 5

    def test_completion_rate_none_without_references(self):
        report = compute_run_metrics([synthetic_trace(0.9, True)])
        assert report.completion_rate is None
        assert report.execution_success_rate == 1.0

    def test_needs_at_least_one_trace(self):
        with pytest.raises(InsufficientSamplesError):
            compute_run_metrics([])


class TestCorrelation:
    def test_matches_point_biserial_oracle(self):
        stabilities = [0.35, 0.45, 0.52, 0.61, 0.68, 0.74, 0.81, 0.88, 0.93, 0.99]
        median = statistics.median(stabilities)
        successes = [1.0 if s > median else 0.0 for s in stabilities]
        traces = [synthetic_trace(s, ok == 1.0)
                  for s, ok in zip(stabilities, successes)]
        report = correlate_traces(traces)
        assert report.pair_count == 10
        oracle = statistics.correlation(stabilities, successes)
        assert report.coefficient == pytest.approx(oracle, abs=1e-12)
        assert report.coefficient > 0.5

    def test_pairs_skip_unscored_subtasks(self):
        trace = run_trace(succeed=False)  # net and balance never get scored
        stabilities, successes = stability_success_pairs([trace])
        assert len(stabilities) == 1
        assert successes == [0.0]


class TestRendering:
    def test_run_report_layout(self):
        text = render_run_report(compute_run_metrics([run_trace(succeed=True)]))
        assert text.startswith("runs: 1\nexecution success rate: 1.000000\n")
        assert "completion rate: 1.000000 (1/1 reference checks passed)" in text
        assert "run 1: succeeded" in text
        assert "final output: '87'" in text
        assert "reference check: pass" in text
        assert "balance: executed-ok stability=[1.000000] refinements=0 augmentations=0" in text

    def test_missing_reference_marker(self):
        text = render_run_report(compute_run_metrics([synthetic_trace(0.8, True)]))
        assert "completion rate: n/a (no reference answer configured)" in text
        assert "reference check" not in text

    def test_same_trace_bytes_give_same_report_bytes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_trace(succeed=True, path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        first = render_run_report(compute_run_metrics([parse_trace_lines(lines)]))
        second = render_run_report(compute_run_metrics([parse_trace_lines(lines)]))
        assert first == second

    def test_correlation_report_layout(self):
        traces = [synthetic_trace(0.2, False), synthetic_trace(0.4, False),
                  synthetic_trace(0.8, True), synthetic_trace(0.9, True)]
        text = render_correlation_report(correlate_traces(traces))
        assert text.startswith("pairs: 4\npearson_r: 0.")
        assert text.endswith("\n")

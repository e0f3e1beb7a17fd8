import math
import statistics

import pytest

from promptor import agent_prompts as ap
from promptor.backends import HashEmbedder, ScriptedGenerator
from promptor.errors import InsufficientSamplesError, MalformedTraceError
from promptor.metrics import EmbeddingVector
from promptor.orchestrator import Orchestrator, OrchestratorSettings, RefinementConfig
from promptor.plan import Plan, Subtask
from promptor.prompt import PromptComponentKind, render_prompt, replace_component
from promptor.reports import (
    compute_run_metrics,
    digest_trace,
    reference_check,
    render_run_report,
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


def synthetic_trace(stability, succeeded, refinements=0, augmentations=0, path=None,
                    earlier_scores=()):
    """Minimal single-subtask trace with a chosen stability score and
    outcome, for exercising report arithmetic directly, written to path.
    Each of earlier_scores is measured and scored before stability. Its
    prompt changes are emitted as the orchestrator emits them, with the
    prompt after each as a ModularPrompt."""
    writer = TraceWriter({"task": "synthetic"}, path=path)
    plan = Plan(task_description="synthetic",
                subtasks=(Subtask(id="s", description="Do the step."),))
    writer.emit("status-change", {"subtask_id": "__run__", "from": None, "to": "running"})
    writer.emit("plan-update", {"note": "created", "update": None,
                                "plan_after": plan.to_json_dict(), "run_status": None})
    prompt = executor_prompt("s", "Do the step.")
    writer.emit("revision", {"subtask_id": "s", "component": "initial", "prompt_after": prompt})
    for k in range(refinements):
        prompt = replace_component(prompt, PromptComponentKind.REQUIREMENTS, f"Do step {k}.")
        writer.emit("revision", {"subtask_id": "s", "component": "requirements",
                                 "prompt_after": prompt})
    for value in (*earlier_scores, stability):
        # five distinct samples, each at the mean distance 1 - value
        writer.emit("generation", {"subtask_id": "s", "purpose": "stability",
                                   "fingerprint": "f", "temperature": 1.0, "sample_count": 5,
                                   "outputs": list("abcde")})
        writer.emit("score", {"subtask_id": "s", "metric": "semantic", "value": value,
                              "sample_count": 5, "output_distances": [1.0 - value] * 5})
    writer.emit("status-change", {"subtask_id": "s", "from": "pending",
                                  "to": "stable-prompt-ready"})
    for _ in range(augmentations):
        prompt = replace_component(prompt, PromptComponentKind.REQUIREMENTS,
                                   prompt.requirements + ("Be brief.",))
        writer.emit("augmentation", {"subtask_id": "s", "clause": "Be brief.",
                                     "prompt_after": prompt})
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
            assert sub.executed_stability == pytest.approx(1.0)
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
        report = compute_run_metrics(traces).correlation
        assert report.pair_count == 10
        oracle = statistics.correlation(stabilities, successes)
        assert report.coefficient == pytest.approx(oracle, abs=1e-12)
        assert report.coefficient > 0.5

    def test_pairs_skip_unscored_subtasks(self):
        trace = run_trace(succeed=False)  # net and balance never get scored
        report = compute_run_metrics([trace]).correlation
        assert report.pair_count == 1
        assert (report.coefficient, report.undefined_reason) == (None, "need at least 2 points")


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
        text = render_run_report(compute_run_metrics(traces))
        assert "completion rate: n/a (no reference answer configured)\n" \
            "stability-success pairs: 4\npearson_r: 0." in text

    @pytest.mark.parametrize("traces, reason", [
        ([synthetic_trace(0.2, True), synthetic_trace(0.8, True)],
         "correlation undefined for a constant series"),
        ([synthetic_trace(0.8, True)], "need at least 2 points"),
    ])
    def test_undefined_correlation_layout(self, traces, reason):
        report = compute_run_metrics(traces)
        correlation = report.correlation
        assert (correlation.coefficient, correlation.undefined_reason) == (None, reason)
        assert f"\nstability-success pairs: {len(traces)}\npearson_r: n/a ({reason})\n\n" \
            in render_run_report(report)


# first -> second; neither has an output format, so any answer executes
CHAIN = [
    {"id": "first", "description": "Pick a letter.", "dependencies": []},
    {"id": "second", "description": "Pick another letter.", "dependencies": ["first"]},
]


CHAIN_TASK = "Pick two letters."


class ChainSamples:
    """Plans the subtasks and answers each prompt of a subtask with that
    subtask's fixed samples, the first of them when one is asked for."""

    def __init__(self, samples, subtasks=CHAIN):
        self.samples = samples
        self.planner = ScriptedGenerator(
            behaviors=[planner_behavior(subtasks, task=CHAIN_TASK)])

    def generate(self, request):
        if request.subtask_id in self.samples:
            return self.samples[request.subtask_id][:request.sample_count]
        return self.planner.generate(request)


class ReviewedDraws(ChainSamples):
    """Plans the subtasks and answers each stability measurement of a
    subtask with the next of its draws, each reviewer prompt with a new role
    and each execution with 'c'."""

    def generate(self, request):
        if request.subtask_id not in self.samples:
            return self.planner.generate(request)
        if request.prompt_text.startswith(ap.REVIEWER_STABILITY_MARK):
            return ['{"component": "role", "replacement": "You pick letters."}']
        if request.sample_count > 1:
            return list(next(self.samples[request.subtask_id]))
        return ["c"]


class LetterVectors:
    """a and c at (1, 0), b at (0, 1), d at (0.6, 0.8): unit vectors whose
    cosine distances are 1 (a, b) and 0.4 (c, d)."""

    VECTORS = {"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 0.0), "d": (0.6, 0.8)}

    def embed(self, texts):
        return [EmbeddingVector(self.VECTORS[text]) for text in texts]


def chain_report(samples, metric="semantic", subtasks=CHAIN):
    settings = OrchestratorSettings(
        refinement=RefinementConfig(tau=0.1, metric=metric),
        knowledge_enabled=False, reviewer_enabled=False,
        plan_updater_enabled=False, subtask_optimizer_enabled=False,
    )
    writer = TraceWriter({"task": "letters"})
    Orchestrator(ChainSamples(samples, subtasks), LetterVectors(), writer,
                 settings).run_pipeline(CHAIN_TASK, template="linear-chain")
    return render_run_report(compute_run_metrics([writer.trace()]))


def deviation_line(report):
    (line,) = [line for line in report.splitlines() if line.startswith("  deviation: ")]
    return line


class TestDeviationLine:
    def test_chain_variances_give_the_hand_computed_bound(self):
        report = chain_report({"first": list("aaabb"), "second": list("ccccd")})
        # first: 6 of its 10 sample pairs are (a, b) at distance 1, so its
        # variance is 1 - score = 0.6; second: 4 pairs (c, d) at 0.4, so 0.16.
        # Both are on the final subtask's path: m = 2, u_i = 1/2, v_i = 1
        d = (0.6 + 0.16) / 4
        epsilon = math.sqrt(2 * d * math.log(40))
        assert 2 * math.exp(-epsilon ** 2 / (2 * d)) == pytest.approx(0.05)
        assert deviation_line(report) == f"  deviation: D=0.190000 epsilon@0.05={epsilon:.6f}"
        assert "  reference check" not in report
        assert report.index("  final output: 'c'\n  deviation: ") > 0

    def test_a_kl_score_gives_no_variance(self):
        report = chain_report({"first": list("aaabb"), "second": list("ccccd")}, metric="kl")
        assert deviation_line(report) == "  deviation: n/a (subtask 'first' was scored by kl)"

    def test_a_blank_stability_sample_gives_no_variance(self):
        report = chain_report({"first": list("aaab") + ["  "], "second": list("ccccd")})
        assert deviation_line(report) == (
            "  deviation: n/a (subtask 'first' had a blank stability sample)")

    def test_an_unscored_subtask_gives_no_variance(self):
        # parse fails, so net and balance are blocked and never scored
        report = render_run_report(compute_run_metrics([run_trace(succeed=False)]))
        assert deviation_line(report) == "  deviation: n/a (subtask 'net' was never scored)"
        # the reference check comes first
        assert "  reference check: fail\n  deviation: n/a" in report

    def test_a_run_without_a_plan_gives_no_variance(self):
        writer = TraceWriter({"task": "t"})
        writer.emit("status-change", {"subtask_id": "__run__", "from": None, "to": "running"})
        writer.emit("status-change", {"subtask_id": "__run__", "from": "running",
                                      "to": "failed", "final_output": ""})
        report = render_run_report(compute_run_metrics([writer.trace()]))
        assert deviation_line(report) == "  deviation: n/a (the run has no plan)"

    def test_a_subtask_off_the_final_subtasks_paths_does_not_count(self):
        # side depends on first, but second, the final subtask, does not
        # depend on side: side's blank sample leaves D as in the chain
        side = {"id": "side", "description": "Pick a side letter.", "dependencies": ["first"]}
        report = chain_report({"first": list("aaabb"), "side": list("aaab") + [" "],
                               "second": list("ccccd")}, subtasks=[CHAIN[0], side, CHAIN[1]])
        assert "  side: executed-ok" in report
        assert deviation_line(report).startswith("  deviation: D=0.190000 ")
    def test_the_first_path_subtask_without_variance_is_named(self):
        report = chain_report({"first": list("aaab") + [""], "second": list("cccc") + [" "]})
        assert deviation_line(report) == (
            "  deviation: n/a (subtask 'first' had a blank stability sample)")

    def test_a_subtasks_last_score_gives_its_variance(self):
        digest = digest_trace(synthetic_trace(0.9, True, earlier_scores=(0.3,)))
        # the single subtask is the whole path: m = 1, D = 1 - 0.9
        assert digest.aggregate_variance == pytest.approx(0.1)
        assert digest.subtasks[0].stability_trajectory == (0.3, 0.9)

    def test_an_exhausted_gate_is_judged_by_the_revision_it_executed(self):
        # tau 0.9 is never reached: 0.4, then 0.84 and 0.6 after two reviewer
        # steps, so the gate executes the 0.84 revision, of variance 0.16
        samples = ReviewedDraws({"only": iter(["aaabb", "ccccd", "aaaab"])},
                                subtasks=[{"id": "only", "description": "Pick a letter."}])
        writer = TraceWriter({"task": "letters"})
        settings = OrchestratorSettings(
            refinement=RefinementConfig(tau=0.9, max_iterations=2), knowledge_enabled=False,
            plan_updater_enabled=False, subtask_optimizer_enabled=False)
        Orchestrator(samples, LetterVectors(), writer, settings).run_pipeline(
            CHAIN_TASK, template="linear-chain")
        trace = writer.trace()
        [exhausted] = [e.payload for e in trace.events_of_type("warning")
                       if e.payload["reason"] == "gate-exhausted"]
        [sub] = digest_trace(trace).subtasks
        assert sub.stability_trajectory == pytest.approx((0.4, 0.84, 0.6))
        assert sub.executed_stability == exhausted["best_score"] == pytest.approx(0.84)
        epsilon = math.sqrt(2 * 0.16 * math.log(40))
        assert deviation_line(render_run_report(compute_run_metrics([trace]))) == (
            f"  deviation: D=0.160000 epsilon@0.05={epsilon:.6f}")

    @pytest.mark.parametrize("subtasks, samples, d", [
        # one subtask: m = 1, D = 0.6
        ([("only", [])], {"only": "aaabb"}, 0.6),
        # third depends on first only through second: m = 3
        ([("first", []), ("second", ["first"]), ("third", ["second"])],
         {"first": "aaabb", "second": "ccccd", "third": "aaabb"}, (0.6 + 0.16 + 0.6) / 9),
        # a diamond: both branches and their root count, m = 4
        ([("top", []), ("left", ["top"]), ("right", ["top"]), ("bottom", ["left", "right"])],
         {"top": "aaabb", "left": "ccccd", "right": "aaaaa", "bottom": "ccccd"},
         (0.6 + 0.16 + 0.0 + 0.16) / 16),
        # a root the final subtask does not depend on: m = 2, its 0.6 is left out
        ([("loose", []), ("root", []), ("last", ["root"])],
         {"loose": "aaabb", "root": "ccccd", "last": "ccccd"}, (0.16 + 0.16) / 4),
    ], ids=["single", "transitive-chain", "diamond", "independent-root"])
    def test_the_final_subtasks_dependency_paths_give_d(self, subtasks, samples, d):
        plan = [{"id": sid, "description": f"Pick letter {sid}.", "dependencies": deps}
                for sid, deps in subtasks]
        report = chain_report({sid: list(letters) for sid, letters in samples.items()},
                              subtasks=plan)
        epsilon = math.sqrt(2 * d * math.log(40))
        assert deviation_line(report) == f"  deviation: D={d:.6f} epsilon@0.05={epsilon:.6f}"

import json

import pytest

from promptor import agent_prompts as ap
from promptor.backends import (
    GenerationRequest,
    HashEmbedder,
    ScriptedBehavior,
    ScriptedGenerator,
    prompt_fingerprint,
)
from promptor.errors import (
    PlanningFailure,
    ReviewFailure,
    StateError,
    TransportError,
)
from promptor.metrics import semantic_stability
from promptor.orchestrator import (
    ContextStore,
    ExecutionResult,
    Orchestrator,
    OrchestratorSettings,
    PlanUpdate,
    RefinementConfig,
    Summary,
)
from promptor.plan import Plan, Subtask, SubtaskStatus
from promptor.prompt import (
    IoSpec,
    ModularPrompt,
    PromptComponentKind,
    ValidationResult,
    render_prompt,
    replace_component,
)
from promptor.trace import TraceWriter, canonical_trace_bytes, replay_trace

from .pipeline_fixture import (
    NUMERIC_SPEC,
    PIPELINE_SUBTASKS,
    REFORMULATED_PARSE,
    TASK,
    executor_prompt,
    json_behavior,
    pipeline_generator,
    planner_behavior,
    point_mass,
    prefix_json,
    strategy_shift_generator,
)

TAU = 0.7


def make_orchestrator(generator, settings=None):
    return Orchestrator(generator, HashEmbedder(), TraceWriter({"run": "test"}), settings)


def warnings_with_reason(orch, reason):
    return [
        e for e in orch.trace.trace().events_of_type("warning")
        if e.payload["reason"] == reason
    ]


class CountingGenerator:
    """Wraps a generator to count generate() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.descriptor = inner.descriptor

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


class TransportFailingGenerator:
    def __init__(self):
        self.descriptor = None

    def generate(self, request):
        raise TransportError("connection reset")


# four pairwise-distinct outcomes make an all-identical 5-sample draw rare;
# assert_gate_stays_shut proves it did not happen for the seeds in use.
# the token sets hash to disjoint embedder buckets, so mixed draws always
# land far below the gate
UNSTABLE_OUTCOMES = tuple(
    (text, 0.25)
    for text in ("alpha insight", "beta horizon", "gamma quartz", "delta cascade")
)


def assert_gate_stays_shut(prompt_text, behaviors, blocks, run_seed=0):
    """Replays the exact sample stream the orchestrator will consume and
    checks each 5-sample block scores below tau, so step counts in the
    refinement tests are forced, not incidental."""
    clone = ScriptedGenerator(behaviors=behaviors, run_seed=run_seed)
    embedder = HashEmbedder()
    for _ in range(blocks):
        outs = clone.generate(
            GenerationRequest(prompt_text, temperature=1.0, sample_count=5)
        )
        score = semantic_stability(embedder.embed(outs))
        assert score.value < TAU, "fixture drew an accidentally stable block"


class TestRefineUntilStable:
    def test_already_stable_prompt_takes_zero_steps(self):
        prompt = ModularPrompt(role="You echo numbers.", requirements=("Say 7.",))
        gen = ScriptedGenerator(behaviors=[point_mass(render_prompt(prompt), "7")])
        orch = make_orchestrator(gen)
        refined, history = orch.refine_until_stable(prompt, subtask_id="sA")
        assert refined == prompt
        assert history.outcome == "stabilized"
        assert history.steps == ()
        assert history.final_score.value == pytest.approx(1.0)
        events = orch.trace.trace()
        assert len(events.events_of_type("score")) == 1
        assert events.events_of_type("score")[0].payload["metric"] == "semantic"
        assert len(events.events_of_type("embedding")) == 1

    def test_single_reviewer_step_stabilizes(self):
        base = ModularPrompt(
            role="You answer questions about colors.",
            requirements=("Pick a color word.",),
        )
        revised = replace_component(
            base, PromptComponentKind.REQUIREMENTS, "Respond with the word omega only."
        )
        behaviors = [
            ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES),
            point_mass(render_prompt(revised), "omega"),
        ]
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=1)
        rules = [
            prefix_json(
                ap.REVIEWER_STABILITY_MARK,
                "Subtask: sB",
                {"component": "requirements",
                 "replacement": "Respond with the word omega only."},
            )
        ]
        orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, prefix_rules=rules))
        refined, history = orch.refine_until_stable(base, subtask_id="sB")
        assert history.outcome == "stabilized"
        assert len(history.steps) == 1
        assert history.steps[0].component == "requirements"
        assert history.steps[0].score_before.value < TAU
        assert history.final_score.value == pytest.approx(1.0)
        assert refined == revised
        assert refined.revision == 1
        revision_events = orch.trace.trace().events_of_type("revision")
        assert len(revision_events) == 1
        assert revision_events[0].payload["component"] == "requirements"

    def test_exhaustion_returns_best_revision_after_exact_budget(self):
        base = ModularPrompt(
            role="You answer questions about colors.",
            requirements=("Pick a color word.",),
            knowledge="Colors vary.",
        )
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        # the scripted reviewer re-submits identical knowledge, so the
        # rendered text, and with it the behavior, never changes
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=4)
        rules = [
            prefix_json(
                ap.REVIEWER_STABILITY_MARK,
                "Subtask: sC",
                {"component": "knowledge", "replacement": "Colors vary."},
            )
        ]
        orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, prefix_rules=rules))
        cfg = RefinementConfig(max_iterations=3)
        refined, history = orch.refine_until_stable(base, cfg, subtask_id="sC")
        assert history.outcome == "exhausted"
        assert len(history.steps) == 3
        assert [s.revision for s in history.steps] == [1, 2, 3]
        seen = [history.steps[0].score_before.value]
        seen.extend(s.score_after.value for s in history.steps)
        assert all(v < TAU for v in seen)
        # the returned prompt is the earliest revision achieving the best score
        best = max(seen)
        assert seen[refined.revision] == best
        assert all(v < best for v in seen[: refined.revision])

    def test_reviewer_disabled_exhausts_without_steps(self):
        base = ModularPrompt(role="You pick colors.", requirements=("Pick one.",))
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=1)
        orch = make_orchestrator(
            ScriptedGenerator(behaviors=behaviors),
            OrchestratorSettings(reviewer_enabled=False),
        )
        refined, history = orch.refine_until_stable(base, subtask_id="sD")
        assert refined == base
        assert history.outcome == "exhausted"
        assert history.steps == ()
        assert len(warnings_with_reason(orch, "reviewer-disabled")) == 1

    def test_unparseable_reviewer_raises_review_failure(self):
        base = ModularPrompt(role="You pick colors.", requirements=("Pick one.",))
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=1)
        default = ScriptedBehavior(
            prompt_fingerprint="default", outcomes=(("no structure here", 1.0),)
        )
        orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, default=default))
        with pytest.raises(ReviewFailure) as info:
            orch.refine_until_stable(base, subtask_id="sE")
        assert info.value.best_prompt == base
        assert info.value.history.outcome == "exhausted"
        # one initial ask plus reask_budget identical retries
        assert len(warnings_with_reason(orch, "unparseable-agent-response")) == 3

    def test_invalid_component_name_raises_review_failure(self):
        base = ModularPrompt(role="You pick colors.", requirements=("Pick one.",))
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        rules = [
            prefix_json(
                ap.REVIEWER_STABILITY_MARK,
                "Subtask: sF",
                {"component": "tone", "replacement": "cheerful"},
            )
        ]
        orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, prefix_rules=rules))
        with pytest.raises(ReviewFailure):
            orch.refine_until_stable(base, subtask_id="sF")
        assert len(warnings_with_reason(orch, "invalid-review")) == 3

    def test_component_list_resolved_by_priority(self):
        base = ModularPrompt(
            role="You pick colors.", requirements=("Pick one.",), knowledge="Old note."
        )
        revised = replace_component(base, PromptComponentKind.KNOWLEDGE, "Only omega exists.")
        behaviors = [
            ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES),
            point_mass(render_prompt(revised), "omega"),
        ]
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=1)
        rules = [
            prefix_json(
                ap.REVIEWER_STABILITY_MARK,
                "Subtask: sG",
                {"component": ["history", "knowledge"],
                 "replacement": "Only omega exists."},
            )
        ]
        orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, prefix_rules=rules))
        refined, history = orch.refine_until_stable(base, subtask_id="sG")
        assert history.outcome == "stabilized"
        assert history.steps[0].component == "knowledge"
        assert refined.knowledge == "Only omega exists."

    def test_kl_metric_gates_without_embedder(self):
        prompt = ModularPrompt(role="You echo numbers.", requirements=("Say 7.",))
        gen = ScriptedGenerator(behaviors=[point_mass(render_prompt(prompt), "7")])
        orch = make_orchestrator(gen)
        cfg = RefinementConfig(metric="kl")
        refined, history = orch.refine_until_stable(prompt, cfg, subtask_id="sH")
        assert history.outcome == "stabilized"
        assert history.final_score.value == pytest.approx(1.0)
        events = orch.trace.trace()
        assert events.events_of_type("embedding") == ()
        assert events.events_of_type("score")[0].payload["metric"] == "kl"

    def test_evaluate_prompt_stability_emits_generation_embedding_score(self):
        prompt = ModularPrompt(role="You echo numbers.", requirements=("Say 7.",))
        gen = ScriptedGenerator(behaviors=[point_mass(render_prompt(prompt), "7")])
        orch = make_orchestrator(gen)
        score = orch.evaluate_prompt_stability(prompt, subtask_id="sI")
        assert score.value == pytest.approx(1.0)
        assert score.sample_count == 5
        trace = orch.trace.trace()
        generation = trace.events_of_type("generation")[0].payload
        assert generation["purpose"] == "stability"
        assert generation["sample_count"] == 5
        assert generation["fingerprint"] == prompt_fingerprint(render_prompt(prompt))
        assert trace.events_of_type("embedding")[0].payload["count"] == 5


class TestDecomposeTask:
    def test_canned_plan_parses(self):
        gen = ScriptedGenerator(behaviors=[planner_behavior(PIPELINE_SUBTASKS)])
        orch = make_orchestrator(gen)
        plan = orch.decompose_task(TASK, template="linear-chain")
        assert [s.id for s in plan.subtasks] == ["parse", "net", "balance"]
        assert all(s.status is SubtaskStatus.PENDING for s in plan.subtasks)
        assert plan.subtask("net").dependencies == frozenset({"parse"})
        assert plan.subtask("parse").io_spec.output_format == "numeric"
        assert plan.created_from == prompt_fingerprint(
            ap.planner_prompt(TASK, "linear-chain")
        )
        notes = [e.payload["note"] for e in orch.trace.trace().events_of_type("plan-update")]
        assert notes == ["created"]

    def test_classifier_picks_template(self):
        fan = [
            {"id": "root", "description": "Fetch the data."},
            {"id": "left", "description": "Check totals.", "dependencies": ["root"]},
            {"id": "right", "description": "Check dates.", "dependencies": ["root"]},
            {"id": "sink", "description": "Join the checks.",
             "dependencies": ["left", "right"]},
        ]
        gen = ScriptedGenerator(
            behaviors=[
                json_behavior(ap.classifier_prompt(TASK), {"template": "fan-out-fan-in"}),
                planner_behavior(fan, template="fan-out-fan-in"),
            ]
        )
        orch = make_orchestrator(gen)
        plan = orch.decompose_task(TASK)
        assert plan.interaction_template == "fan-out-fan-in"
        assert warnings_with_reason(orch, "template-violation") == []

    def test_unknown_classifier_answer_falls_back(self):
        gen = ScriptedGenerator(
            behaviors=[
                json_behavior(ap.classifier_prompt(TASK), {"template": "spiral"}),
                planner_behavior(PIPELINE_SUBTASKS),
            ]
        )
        orch = make_orchestrator(gen)
        plan = orch.decompose_task(TASK)
        assert plan.interaction_template == "linear-chain"
        assert len(warnings_with_reason(orch, "template-fallback")) == 1

    def test_missing_io_spec_defaults_with_warning(self):
        bare = [{"id": "only", "description": "Do the thing."}]
        gen = ScriptedGenerator(behaviors=[planner_behavior(bare)])
        orch = make_orchestrator(gen)
        plan = orch.decompose_task(TASK, template="linear-chain")
        assert plan.subtask("only").io_spec == IoSpec()
        assert len(warnings_with_reason(orch, "io-spec-defaulted")) == 1

    def test_template_violation_is_advisory(self):
        fan = [
            {"id": "a", "description": "First."},
            {"id": "b", "description": "Second.", "dependencies": ["a"]},
            {"id": "c", "description": "Third.", "dependencies": ["a"]},
        ]
        gen = ScriptedGenerator(behaviors=[planner_behavior(fan)])
        orch = make_orchestrator(gen)
        plan = orch.decompose_task(TASK, template="linear-chain")
        assert plan.subtask("c").dependencies == frozenset({"a"})
        assert len(warnings_with_reason(orch, "template-violation")) == 1

    def test_cyclic_plan_exhausts_reasks_and_raises(self):
        cyclic = [
            {"id": "a", "description": "First.", "dependencies": ["b"]},
            {"id": "b", "description": "Second.", "dependencies": ["a"]},
        ]
        gen = ScriptedGenerator(behaviors=[planner_behavior(cyclic)])
        orch = make_orchestrator(gen)
        with pytest.raises(PlanningFailure):
            orch.decompose_task(TASK, template="linear-chain")
        assert len(warnings_with_reason(orch, "invalid-plan")) == 3

    def test_empty_task_rejected(self):
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(ValueError):
            orch.decompose_task("   ")

    def test_unknown_template_rejected(self):
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(ValueError):
            orch.decompose_task(TASK, template="moebius")


COARSE_DESCRIPTION = (
    "Load the ledger. Parse each row. Validate the schema. Net the transfers. "
    "Sum the deposits. Sum the withdrawals. Compute the balance. Format the report."
)

SPLIT_PIECES = [
    {"id": "coarse.1", "description": "Load the ledger. Parse each row."},
    {"id": "coarse.2", "description": "Validate the schema. Net the transfers."},
    {"id": "coarse.3", "description": "Sum the deposits. Sum the withdrawals."},
    {"id": "coarse.4", "description": "Compute the balance. Format the report."},
]


class TestOptimizeSubtasks:
    def coarse_plan(self):
        return Plan(
            task_description=TASK,
            subtasks=(
                Subtask(id="coarse", description=COARSE_DESCRIPTION),
                Subtask(id="report", description="Print the report.",
                        dependencies=frozenset({"coarse"})),
            ),
        )

    def test_split_rechains_and_rewires_dependents(self):
        rules = [
            prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: coarse",
                        {"action": "split", "subtasks": SPLIT_PIECES}),
            prefix_json(ap.OPTIMIZER_CHECK_MARK, "Subtask: coarse", {"preserved": True}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan = orch.optimize_subtasks(self.coarse_plan())
        assert [s.id for s in plan.subtasks] == [
            "coarse.1", "coarse.2", "coarse.3", "coarse.4", "report"
        ]
        assert plan.subtask("coarse.1").dependencies == frozenset()
        assert plan.subtask("coarse.3").dependencies == frozenset({"coarse.2"})
        assert plan.subtask("report").dependencies == frozenset({"coarse.4"})
        assert all(1.0 <= s.granularity <= 4.0 for s in plan.subtasks)
        assert warnings_with_reason(orch, "unoptimizable-granularity") == []

    def test_keep_answer_leaves_plan_and_flags_band(self):
        rules = [
            prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: coarse", {"action": "keep"}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan = orch.optimize_subtasks(self.coarse_plan())
        assert [s.id for s in plan.subtasks] == ["coarse", "report"]
        assert len(warnings_with_reason(orch, "unoptimizable-granularity")) == 1

    def test_failed_semantics_check_reverts_split(self):
        rules = [
            prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: coarse",
                        {"action": "split", "subtasks": SPLIT_PIECES}),
            prefix_json(ap.OPTIMIZER_CHECK_MARK, "Subtask: coarse", {"preserved": False}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan = orch.optimize_subtasks(self.coarse_plan())
        assert [s.id for s in plan.subtasks] == ["coarse", "report"]
        assert len(warnings_with_reason(orch, "split-not-preserving")) == 1

    def test_merge_combines_adjacent_fine_subtasks(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(
                Subtask(id="fetch", description="Fetch the page. Extract the table."),
                Subtask(id="clean", description="Clean the cells. Save the csv.",
                        dependencies=frozenset({"fetch"})),
                Subtask(
                    id="verify",
                    description=(
                        "Check the header. Count the rows. Verify totals. Write a note."
                    ),
                    dependencies=frozenset({"clean"}),
                ),
            ),
        )
        merged_text = (
            "Fetch the page. Extract the table. Clean the cells. Save the csv."
        )
        rules = [
            prefix_json(ap.OPTIMIZER_MERGE_MARK, "Subtasks: fetch, clean",
                        {"action": "merge", "description": merged_text}),
            prefix_json(ap.OPTIMIZER_CHECK_MARK, "Subtask: fetch", {"preserved": True}),
        ]
        orch = make_orchestrator(
            ScriptedGenerator(prefix_rules=rules),
            OrchestratorSettings(target_granularity=8.0),
        )
        out = orch.optimize_subtasks(plan)
        assert [s.id for s in out.subtasks] == ["fetch+clean", "verify"]
        assert out.subtask("fetch+clean").granularity == pytest.approx(4.0)
        assert out.subtask("verify").dependencies == frozenset({"fetch+clean"})

    def test_in_band_plan_makes_no_backend_calls(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(
                Subtask(id="a", description="Read the file. List the columns."),
                Subtask(id="b", description="Pick a column. Sum it.",
                        dependencies=frozenset({"a"})),
            ),
        )
        counting = CountingGenerator(ScriptedGenerator())
        orch = make_orchestrator(counting)
        out = orch.optimize_subtasks(plan)
        assert counting.calls == 0
        assert out.subtasks == plan.subtasks

    def test_started_plan_rejected(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(Subtask(id="a", description="Done already.",
                              status=SubtaskStatus.EXECUTED_OK),),
        )
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(StateError):
            orch.optimize_subtasks(plan)


def ready_subtask(sub_id="calc", description="Compute the sum.", io_spec=NUMERIC_SPEC):
    return Subtask(id=sub_id, description=description, io_spec=io_spec,
                   status=SubtaskStatus.STABLE_PROMPT_READY)


class TestExecuteSubtask:
    def test_valid_output_succeeds(self):
        sub = ready_subtask()
        prompt = executor_prompt(sub.id, sub.description)
        gen = ScriptedGenerator(behaviors=[point_mass(render_prompt(prompt), "42")])
        orch = make_orchestrator(gen)
        result = orch.execute_subtask(sub, prompt)
        assert result.ok
        assert result.output == "42"
        assert result.validation.ok
        generation = orch.trace.trace().events_of_type("generation")[0].payload
        assert generation["purpose"] == "execution"

    def test_format_failure_reported_in_band(self):
        sub = ready_subtask()
        prompt = executor_prompt(sub.id, sub.description)
        gen = ScriptedGenerator(
            behaviors=[point_mass(render_prompt(prompt), "about six")]
        )
        orch = make_orchestrator(gen)
        result = orch.execute_subtask(sub, prompt)
        assert not result.ok
        assert result.cause == "format"
        assert result.validation.reason == "non-numeric"

    def test_transport_failure_reported_in_band(self):
        sub = ready_subtask()
        prompt = executor_prompt(sub.id, sub.description)
        orch = make_orchestrator(TransportFailingGenerator())
        result = orch.execute_subtask(sub, prompt)
        assert not result.ok
        assert result.cause == "transport"
        assert result.validation is None
        assert len(warnings_with_reason(orch, "transport-failure")) == 1

    def test_wrong_status_rejected(self):
        sub = Subtask(id="calc", description="Compute the sum.", io_spec=NUMERIC_SPEC)
        prompt = executor_prompt(sub.id, sub.description)
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(StateError):
            orch.execute_subtask(sub, prompt)


class TestAugmentRequirements:
    def failed(self, output="about six"):
        return ExecutionResult(
            subtask_id="calc",
            status=SubtaskStatus.EXECUTED_FAILED,
            output=output,
            validation=ValidationResult(ok=False, reason="non-numeric"),
            cause="format",
        )

    def test_appends_reviewer_clause(self):
        prompt = executor_prompt("calc", "Compute the sum.")
        rules = [
            prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc",
                        {"clause": "Print one integer only."}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        augmented = orch.augment_requirements(prompt, self.failed())
        assert augmented.requirements == prompt.requirements + ("Print one integer only.",)
        assert augmented.revision == 1
        event = orch.trace.trace().events_of_type("augmentation")[0].payload
        assert event["clause"] == "Print one integer only."
        assert event["prompt_after"]["revision"] == 1

    def test_repeated_failures_accumulate_clauses(self):
        prompt = executor_prompt("calc", "Compute the sum.")
        rules = [
            prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc",
                        {"clause": "Show no words."}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        once = orch.augment_requirements(prompt, self.failed())
        twice = orch.augment_requirements(once, self.failed("still words"))
        assert twice.requirements == prompt.requirements + ("Show no words.", "Show no words.")
        assert twice.revision == 2

    def test_empty_clause_leaves_prompt_unchanged(self):
        prompt = executor_prompt("calc", "Compute the sum.")
        rules = [
            prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc", {"clause": "  "}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        augmented = orch.augment_requirements(prompt, self.failed())
        assert augmented is prompt
        assert len(warnings_with_reason(orch, "augmentation-rejected")) == 1

    def test_successful_result_rejected(self):
        prompt = executor_prompt("calc", "Compute the sum.")
        ok = ExecutionResult("calc", SubtaskStatus.EXECUTED_OK, "6",
                             ValidationResult(ok=True))
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(StateError):
            orch.augment_requirements(prompt, ok)


class TestSummarize:
    def plan_with(self, sub):
        return Plan(task_description=TASK, subtasks=(sub,))

    def test_short_output_passes_through_without_calls(self):
        sub = Subtask(id="a", description="Small step.")
        counting = CountingGenerator(ScriptedGenerator())
        orch = make_orchestrator(counting)
        summary = orch.summarize("final: 42", self.plan_with(sub), sub)
        assert summary.structured_text == "final: 42"
        assert summary.source_subtask == "a"
        assert counting.calls == 0

    def test_long_output_distilled(self):
        sub = Subtask(id="a", description="Big step.")
        plan = self.plan_with(sub)
        raw = "row " * 120  # 480 chars, above the pass-through limit
        gen = ScriptedGenerator(
            behaviors=[
                json_behavior(
                    ap.summarizer_prompt(plan, sub, raw),
                    {"summary": "120 rows parsed; schema id=INT,amount=REAL",
                     "preserved_keys": ["schema"]},
                )
            ]
        )
        orch = make_orchestrator(gen)
        summary = orch.summarize(raw, plan, sub)
        assert summary.structured_text == "120 rows parsed; schema id=INT,amount=REAL"
        assert summary.preserved_keys == ("schema",)

    def test_failed_summarizer_falls_back_verbatim(self):
        sub = Subtask(id="a", description="Big step.")
        plan = self.plan_with(sub)
        raw = "row " * 120
        default = ScriptedBehavior(
            prompt_fingerprint="default", outcomes=(("not json", 1.0),)
        )
        orch = make_orchestrator(ScriptedGenerator(default=default))
        summary = orch.summarize(raw, plan, sub)
        assert summary.structured_text == raw
        assert len(warnings_with_reason(orch, "summary-fallback")) == 1


class TestContextStore:
    def test_history_lists_dependency_summaries_in_plan_order(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(
                Subtask(id="a", description="First."),
                Subtask(id="b", description="Second."),
                Subtask(id="c", description="Third.",
                        dependencies=frozenset({"a", "b"})),
            ),
        )
        store = ContextStore()
        store.add(Summary("b", "B result"))
        store.add(Summary("a", "A result"))
        history = store.history_for(plan.subtask("c"), plan)
        assert history == "- a: A result\n- b: B result"
        assert store.history_for(plan.subtask("a"), plan) == ""

    def test_build_subtask_prompt_assembles_components(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(
                Subtask(id="dep", description="Earlier step.",
                        status=SubtaskStatus.EXECUTED_OK),
                Subtask(id="k1", description="Derive the total.",
                        dependencies=frozenset({"dep"}), io_spec=NUMERIC_SPEC,
                        injected_notes=("note alpha",)),
            ),
        )
        sub = plan.subtask("k1")
        gen = ScriptedGenerator(
            behaviors=[
                point_mass(ap.knowledge_prompt(sub),
                           "Ledgers balance debits against credits.")
            ]
        )
        orch = make_orchestrator(gen)
        store = ContextStore()
        store.add(Summary("dep", "dep: total=41"))
        prompt = orch.build_subtask_prompt(plan, sub, store)
        assert prompt.role == "You are the executor agent for subtask 'k1'."
        assert prompt.requirements == ("Complete this subtask: Derive the total.",)
        assert prompt.knowledge == "Ledgers balance debits against credits.\nnote alpha"
        assert prompt.history == "- dep: dep: total=41"
        assert prompt.io_spec == NUMERIC_SPEC
        event = orch.trace.trace().events_of_type("revision")[0].payload
        assert event["component"] == "initial"
        assert event["revision"] == 0

    def test_knowledge_failure_degrades_to_notes_only(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(Subtask(id="k2", description="Derive the total.",
                              injected_notes=("note beta",)),),
        )
        orch = make_orchestrator(ScriptedGenerator())  # no behaviors at all
        prompt = orch.build_subtask_prompt(plan, plan.subtask("k2"), ContextStore())
        assert prompt.knowledge == "note beta"
        assert len(warnings_with_reason(orch, "knowledge-failed")) == 1


class TestUpdatePlan:
    def fan_plan(self, a_status=SubtaskStatus.EXECUTED_OK,
                 b_status=SubtaskStatus.PENDING):
        return Plan(
            task_description=TASK,
            subtasks=(
                Subtask(id="a", description="Shared step.", status=a_status),
                Subtask(id="b", description="Left branch.",
                        dependencies=frozenset({"a"}), status=b_status),
                Subtask(id="c", description="Right branch.",
                        dependencies=frozenset({"a"})),
            ),
        )

    def ok_result(self):
        return ExecutionResult("a", SubtaskStatus.EXECUTED_OK, "100",
                               ValidationResult(ok=True))

    def failed_result(self):
        return ExecutionResult(
            "a", SubtaskStatus.EXECUTED_FAILED, "nope",
            ValidationResult(ok=False, reason="non-numeric"), cause="format",
        )

    def test_success_payload_reaches_named_targets(self):
        rules = [
            prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: a",
                        {"payload": "use schema X", "targets": ["b"]}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan, update = orch.update_plan(self.fan_plan(), self.ok_result(), "100")
        assert update.kind == "propagate-success"
        assert update.targets == ("b",)
        assert plan.subtask("b").injected_notes == ("use schema X",)
        assert plan.subtask("c").injected_notes == ()
        event = orch.trace.trace().events_of_type("plan-update")[0].payload
        assert event["update"]["kind"] == "propagate-success"

    def test_omitted_targets_default_to_pending_dependents(self):
        rules = [
            prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: a",
                        {"payload": "totals are integers"}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan, update = orch.update_plan(self.fan_plan(), self.ok_result(), "100")
        assert set(update.targets) == {"b", "c"}
        assert plan.subtask("b").injected_notes == ("totals are integers",)
        assert plan.subtask("c").injected_notes == ("totals are integers",)

    def test_executed_target_rejects_whole_update(self):
        rules = [
            prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: a",
                        {"payload": "use schema X", "targets": ["b", "c"]}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        before = self.fan_plan(b_status=SubtaskStatus.EXECUTED_OK)
        plan, update = orch.update_plan(before, self.ok_result(), "100")
        assert update.kind == "no-op"
        assert plan.subtask("c").injected_notes == ()
        assert len(warnings_with_reason(orch, "invariant-violation")) == 1

    def test_unknown_target_rejects_whole_update(self):
        rules = [
            prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: a",
                        {"payload": "use schema X", "targets": ["ghost"]}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan, update = orch.update_plan(self.fan_plan(), self.ok_result(), "100")
        assert update.kind == "no-op"
        assert len(warnings_with_reason(orch, "invariant-violation")) == 1

    def test_no_pending_dependents_short_circuits(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(Subtask(id="a", description="Lone step.",
                              status=SubtaskStatus.EXECUTED_OK),),
        )
        counting = CountingGenerator(ScriptedGenerator())
        orch = make_orchestrator(counting)
        out, update = orch.update_plan(plan, self.ok_result(), "100")
        assert update.kind == "no-op"
        assert counting.calls == 0
        assert out.subtasks == plan.subtasks

    def test_failure_reformulates_subtask(self):
        rules = [
            prefix_json(ap.PLAN_UPDATE_FAILURE_MARK, "Subtask: a",
                        {"description": "Use the closed-form sum instead."}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        before = self.fan_plan(a_status=SubtaskStatus.EXECUTED_FAILED)
        plan, update = orch.update_plan(before, self.failed_result())
        assert update.kind == "strategy-shift"
        assert update.targets == ("a",)
        reformulated = plan.subtask("a")
        assert reformulated.description == "Use the closed-form sum instead."
        assert reformulated.status is SubtaskStatus.REFORMULATED
        assert reformulated.dependencies == frozenset()
        changes = orch.trace.trace().events_of_type("status-change")
        assert changes[0].payload == {
            "subtask_id": "a", "from": "executed-failed", "to": "reformulated"
        }

    def test_unusable_updater_response_degrades_to_no_op(self):
        default = ScriptedBehavior(
            prompt_fingerprint="default", outcomes=(("not structured", 1.0),)
        )
        orch = make_orchestrator(ScriptedGenerator(default=default))
        before = self.fan_plan(a_status=SubtaskStatus.EXECUTED_FAILED)
        plan, update = orch.update_plan(before, self.failed_result())
        assert update.kind == "no-op"
        assert plan.subtask("a").status is SubtaskStatus.EXECUTED_FAILED

    def test_apply_plan_update_validates_source_status(self):
        orch = make_orchestrator(ScriptedGenerator())
        plan = self.fan_plan(a_status=SubtaskStatus.PENDING)
        with pytest.raises(StateError):
            orch.apply_plan_update(
                plan, PlanUpdate("a", "strategy-shift", ("a",), "retry differently")
            )
        with pytest.raises(StateError):
            orch.apply_plan_update(
                plan, PlanUpdate("a", "propagate-success", ("b",), "note")
            )

    def test_unknown_update_kind_rejected(self):
        with pytest.raises(ValueError):
            PlanUpdate("a", "reshuffle", (), "")


class TestRunPipeline:
    def settings(self, **overrides):
        return OrchestratorSettings(knowledge_enabled=False, **overrides)

    def test_happy_path_executes_all_subtasks(self):
        counting = CountingGenerator(pipeline_generator())
        orch = make_orchestrator(counting, self.settings())
        trace = orch.run_pipeline(TASK, template="linear-chain")
        state = replay_trace(trace)
        assert state.run_status == "succeeded"
        assert all(
            s.status is SubtaskStatus.EXECUTED_OK for s in state.plan.subtasks
        )
        assert state.outputs == {"parse": "100", "net": "93", "balance": "87"}
        final = trace.events_of_type("status-change")[-1].payload
        assert final["subtask_id"] == "__run__"
        assert final["final_output"] == "87"
        # 1 planner + 3 stability evals + 3 executions + 2 plan updates;
        # nothing else may talk to the backend on this path
        assert counting.calls == 9
        flat_scores = [v for values in state.scores.values() for v in values]
        assert flat_scores == pytest.approx([1.0, 1.0, 1.0])

    def test_repeated_runs_are_byte_identical(self):
        first = make_orchestrator(pipeline_generator(run_seed=7), self.settings())
        second = make_orchestrator(pipeline_generator(run_seed=7), self.settings())
        a = first.run_pipeline(TASK, template="linear-chain")
        b = second.run_pipeline(TASK, template="linear-chain")
        assert canonical_trace_bytes(a) == canonical_trace_bytes(b)

    def test_failed_subtask_blocks_dependents(self):
        prompt = executor_prompt("parse", "Parse the transaction list.")
        gen = ScriptedGenerator(
            behaviors=[
                planner_behavior(PIPELINE_SUBTASKS),
                point_mass(render_prompt(prompt), "not a number"),
            ]
        )
        orch = make_orchestrator(
            gen,
            self.settings(reviewer_enabled=False, plan_updater_enabled=False,
                          subtask_optimizer_enabled=False),
        )
        state = replay_trace(orch.run_pipeline(TASK, template="linear-chain"))
        assert state.run_status == "failed"
        assert state.plan.subtask("parse").status is SubtaskStatus.EXECUTED_FAILED
        assert state.plan.subtask("net").status is SubtaskStatus.PENDING
        assert state.plan.subtask("balance").status is SubtaskStatus.PENDING
        assert len(warnings_with_reason(orch, "blocked")) == 2

    def test_augmentation_recovers_format_failure(self):
        solo = [{"id": "calc", "description": "Compute the sum.",
                 "dependencies": [], "io_spec": {"output_format": "numeric"}}]
        base_prompt = executor_prompt("calc", "Compute the sum.")
        fixed_prompt = replace_component(
            base_prompt, PromptComponentKind.REQUIREMENTS,
            base_prompt.requirements + ("Print one integer only.",),
        )
        gen = ScriptedGenerator(
            behaviors=[
                planner_behavior(solo),
                point_mass(render_prompt(base_prompt), "the answer is six"),
                point_mass(render_prompt(fixed_prompt), "6"),
            ],
            prefix_rules=[
                prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc",
                            {"clause": "Print one integer only."}),
            ],
        )
        orch = make_orchestrator(gen, self.settings())
        trace = orch.run_pipeline(TASK, template="linear-chain")
        state = replay_trace(trace)
        assert state.run_status == "succeeded"
        assert state.plan.subtask("calc").status is SubtaskStatus.EXECUTED_OK
        assert state.outputs["calc"] == "6"
        assert len(trace.events_of_type("augmentation")) == 1
        assert state.prompts["calc"].requirements[-1] == "Print one integer only."
        executions = [
            e for e in trace.events_of_type("generation")
            if e.payload["purpose"] == "execution"
        ]
        assert len(executions) == 2

    def test_strategy_shift_retries_reformulated_subtask(self):
        solo = [{"id": "calc", "description": "Compute the sum.",
                 "dependencies": [], "io_spec": {"output_format": "numeric"}}]
        first_prompt = executor_prompt("calc", "Compute the sum.")
        retry_prompt = executor_prompt(
            "calc", "Add the numbers and print one integer."
        )
        gen = ScriptedGenerator(
            behaviors=[
                planner_behavior(solo),
                point_mass(render_prompt(first_prompt), "the answer is six"),
                point_mass(render_prompt(retry_prompt), "6"),
            ],
            prefix_rules=[
                prefix_json(ap.PLAN_UPDATE_FAILURE_MARK, "Subtask: calc",
                            {"description": "Add the numbers and print one integer."}),
            ],
        )
        orch = make_orchestrator(gen, self.settings(reviewer_enabled=False))
        trace = orch.run_pipeline(TASK, template="linear-chain")
        state = replay_trace(trace)
        assert state.run_status == "succeeded"
        sub = state.plan.subtask("calc")
        assert sub.status is SubtaskStatus.EXECUTED_OK
        assert sub.description == "Add the numbers and print one integer."
        assert state.outputs["calc"] == "6"
        transitions = [
            (e.payload["from"], e.payload["to"])
            for e in trace.events_of_type("status-change")
            if e.payload["subtask_id"] == "calc"
        ]
        assert ("executed-failed", "reformulated") in transitions
        assert transitions[-1] == ("stable-prompt-ready", "executed-ok")

    def test_replayed_final_plan_equals_the_orchestrators(self):
        class PlanRecorder(Orchestrator):
            """Keeps the plan each recorded mutation returns."""

            def _apply_status(self, plan, subtask_id, status):
                self.final_plan = super()._apply_status(plan, subtask_id, status)
                return self.final_plan

            def apply_plan_update(self, plan, update):
                self.final_plan = super().apply_plan_update(plan, update)
                return self.final_plan

        orch = PlanRecorder(strategy_shift_generator(), HashEmbedder(),
                            TraceWriter({"run": "test"}),
                            self.settings(reviewer_enabled=False))
        trace = orch.run_pipeline(TASK, template="linear-chain")
        kinds = [e.payload["note"] for e in trace.events_of_type("plan-update")]
        assert {"strategy-shift", "propagate-success"} <= set(kinds)
        replayed = replay_trace(trace).plan
        assert replayed == orch.final_plan
        parse = replayed.subtask("parse")
        assert parse.status is SubtaskStatus.EXECUTED_OK
        assert parse.description == REFORMULATED_PARSE
        assert parse.granularity == 2
        assert replayed.subtask("net").injected_notes == ("keep totals as integers.",)
        assert replayed.subtask("balance").injected_notes == ("carry the net forward.",)

    @staticmethod
    def chain_trace_bytes(n):
        ids = [f"s{i:03d}" for i in range(n)]
        subtasks = [
            {"id": sid, "description": f"Carry step {i} forward.",
             "dependencies": [ids[i - 1]] if i else []}
            for i, sid in enumerate(ids)
        ]
        rules = [
            (prefix, ScriptedBehavior(prompt_fingerprint=f"prefix:{prefix}",
                                      outcomes=((text, 1.0),)))
            for prefix, text in (
                ("## Role\nYou are the executor agent", "carried"),
                (f"{ap.PLAN_UPDATE_SUCCESS_MARK}\nSubtask: ",
                 json.dumps({"payload": "keep the units."})),
            )
        ]
        gen = ScriptedGenerator(behaviors=[planner_behavior(subtasks)], prefix_rules=rules)
        orch = make_orchestrator(gen, OrchestratorSettings(knowledge_enabled=False))
        trace = orch.run_pipeline(TASK, template="linear-chain")
        assert replay_trace(trace).run_status == "succeeded"
        # created, optimized, then one feedback event per subtask
        assert len(trace.events_of_type("plan-update")) == n + 2
        return len(canonical_trace_bytes(trace))

    def test_trace_bytes_grow_linearly_with_the_plan_updater_on(self):
        assert self.chain_trace_bytes(100) / self.chain_trace_bytes(50) <= 2.2

    def test_planning_failure_fails_the_run(self):
        cyclic = [
            {"id": "a", "description": "First.", "dependencies": ["b"]},
            {"id": "b", "description": "Second.", "dependencies": ["a"]},
        ]
        gen = ScriptedGenerator(behaviors=[planner_behavior(cyclic)])
        orch = make_orchestrator(gen, self.settings())
        state = replay_trace(orch.run_pipeline(TASK, template="linear-chain"))
        assert state.run_status == "failed"
        assert state.plan is None

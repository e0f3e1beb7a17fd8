import json
import math
import threading

import pytest

from promptor import agent_prompts as ap
from promptor.backends import (
    BackendDescriptor,
    GenerationRequest,
    HashEmbedder,
    ScriptedBehavior,
    ScriptedGenerator,
    prompt_fingerprint,
)
from promptor.errors import (
    PlanningFailure,
    StateError,
    TransportError,
    ZeroVectorError,
)
from promptor.metrics import EmbeddingVector, StabilityScore, semantic_stability
from promptor.orchestrator import (
    STABILIZED,
    ExecutionResult,
    Orchestrator,
    OrchestratorSettings,
    PlanUpdate,
    RefinementConfig,
    RefinementHistory,
    Summary,
    _history,
)
from promptor.plan import Plan, Subtask, SubtaskStatus
from promptor.prompt import (
    IoSpec,
    ModularPrompt,
    PromptComponentKind,
    render_prompt,
    replace_component,
)
from promptor.reports import compute_run_metrics, render_run_report
from promptor.trace import TraceWriter, canonical_trace_bytes, read_trace, replay_trace

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
from .test_trace import written_strings

TAU = 0.7


def make_orchestrator(generator, settings=None, path=None):
    return Orchestrator(generator, HashEmbedder(), TraceWriter({"run": "test"}, path=path),
                        settings)


def warnings_with_reason(orch, reason):
    return [
        e for e in orch.trace.trace().events_of_type("warning")
        if e.payload["reason"] == reason
    ]


def optimized_snapshots(orch):
    """The plan_after of each 'optimized' plan-update orch has recorded."""
    return [e.payload["plan_after"] for e in orch.trace.trace().events_of_type("plan-update")
            if e.payload["note"] == "optimized"]


class CountingGenerator:
    """Wraps a generator to count generate() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


class BlankingGenerator:
    """Wraps a generator and blanks one sample of every multi-sample call."""

    def __init__(self, inner, position):
        self.inner = inner
        self.position = position

    def generate(self, request):
        outputs = self.inner.generate(request)
        if request.sample_count > 1:
            outputs[self.position] = "   "
        return outputs


class SequenceGenerator:
    """Answers every prompt that starts with mark with the next reply of a
    fixed cycle and counts those calls; other prompts go to inner."""

    def __init__(self, mark, replies, inner=None):
        self.mark = mark
        self.replies = replies
        self.inner = inner
        self.calls = 0

    def generate(self, request):
        if not request.prompt_text.startswith(self.mark):
            return self.inner.generate(request)
        reply = self.replies[self.calls % len(self.replies)]
        self.calls += 1
        return [reply] * request.sample_count


class TransportFailingGenerator:
    def generate(self, request):
        raise TransportError("connection reset")


class FixedSamples:
    """Answers every request with the same samples."""

    def __init__(self, samples):
        self.samples = samples

    def generate(self, request):
        return list(self.samples)


class CountingEmbedder:
    """Wraps an embedder and records every text it is sent."""

    def __init__(self, inner):
        self.inner = inner
        self.texts = []
        self._lock = threading.Lock()

    def embed(self, texts):
        with self._lock:
            self.texts.extend(texts)
        return self.inner.embed(texts)


def measured_alone(samples, subtask_id):
    """The score payload of one measurement of samples with nothing embedded
    before it: every distinct non-blank sample is embedded."""
    settings = OrchestratorSettings(refinement=RefinementConfig(sample_count=len(samples)))
    orch = make_orchestrator(FixedSamples(samples), settings)
    orch.evaluate_prompt_stability(ModularPrompt(role="You repeat."), subtask_id)
    return orch.trace.trace().events_of_type("score")[0].payload


def gate_embeddings(trace):
    """Walks trace's semantic stability measurements with one memo per gate,
    opened at its subtask's initial revision. Each measurement is followed by
    an embedding event counting its texts new to the gate, or by its score
    when it has none, and each score equals that of measuring its samples
    alone. Returns the texts embedded, gate by gate, and the number of
    measurements that embedded nothing."""
    events, strings = trace.events, iter(written_strings(trace))
    memos, embedded, idle = {}, [], 0
    for k, event in enumerate(events):
        sub = event.payload.get("subtask_id")
        if event.type == "revision" and event.payload["component"] == "initial":
            memos[sub] = set()
        if event.type != "generation":
            continue
        outputs = next(strings)[1:]
        if event.payload["purpose"] != "stability":
            continue
        memo = memos.setdefault(sub, set())
        new = [text for text in outputs if text.strip() and text not in memo]
        memo.update(new)
        score = events[k + 1]
        if new:
            assert (score.type, score.payload["count"]) == ("embedding", len(new))
            score = events[k + 2]
        idle += not new
        embedded += new
        index = event.payload.get("sample_index", range(len(outputs)))
        assert score.payload == measured_alone([outputs[i] for i in index], sub)
    return embedded, idle


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
        assert history.components == ()
        assert history.final_score.value == 1.0
        events = orch.trace.trace()
        assert len(events.events_of_type("score")) == 1
        payload = events.events_of_type("score")[0].payload
        assert payload["metric"] == "semantic"
        assert payload["subtask_id"] == "sA"
        # five equal samples: one output, at its first sample's distance
        assert payload == {"subtask_id": "sA", "metric": "semantic",
                           "value": 1.0, "sample_count": 5, "output_distances": [0.0]}
        assert history.final_score.sample_distances == (0.0,) * 5
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
        assert history.components == ("requirements",)
        assert history.scores[0].value < TAU
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
        orch = make_orchestrator(
            ScriptedGenerator(behaviors=behaviors, prefix_rules=rules),
            OrchestratorSettings(refinement=RefinementConfig(max_iterations=3)),
        )
        refined, history = orch.refine_until_stable(base, subtask_id="sC")
        assert history.outcome == "exhausted"
        assert history.components == ("knowledge",) * 3
        seen = [score.value for score in history.scores]
        assert all(v < TAU for v in seen)
        # the returned prompt is the earliest revision achieving the best score
        best = max(seen)
        assert seen[refined.revision] == best
        assert all(v < best for v in seen[: refined.revision])
        # the gate's last event records the best score it reached
        last = orch.trace.trace().events[-1]
        assert last.payload == {"reason": "gate-exhausted", "subtask_id": "sC",
                                "best_score": best}

    def test_a_gate_embeds_each_distinct_text_once(self):
        # as in the exhaustion test, each revision leaves the rendered prompt
        # as it was, so every measurement draws from the same four texts; one
        # sample of each is blank and never embedded
        base = ModularPrompt(role="You answer questions about colors.",
                             requirements=("Pick a color word.",), knowledge="Colors vary.")
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        rules = [prefix_json(ap.REVIEWER_STABILITY_MARK, "Subtask: sE",
                             {"component": "knowledge", "replacement": "Colors vary."})]
        embedder = CountingEmbedder(HashEmbedder())
        generator = BlankingGenerator(
            ScriptedGenerator(behaviors=behaviors, prefix_rules=rules), position=1)
        orch = Orchestrator(generator, embedder, TraceWriter({"run": "test"}),
                            OrchestratorSettings(refinement=RefinementConfig(max_iterations=3)))
        _, history = orch.refine_until_stable(base, subtask_id="sE")
        assert (history.outcome, len(history.components)) == ("exhausted", 3)
        trace = orch.trace.trace()
        embedded, idle = gate_embeddings(trace)
        assert embedder.texts == embedded
        assert sorted(embedded) == sorted(text for text, _ in UNSTABLE_OUTCOMES)
        assert idle == len(trace.events_of_type("score")) - len(
            trace.events_of_type("embedding")) > 0

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
        assert history.components == ()
        # reviewer-disabled first, then the gate's own gate-exhausted
        warnings = [e.payload for e in orch.trace.trace().events_of_type("warning")]
        value = history.final_score.value
        assert warnings == [
            {"reason": "reviewer-disabled", "subtask_id": "sD", "value": value},
            {"reason": "gate-exhausted", "subtask_id": "sD", "best_score": value},
        ]

    def test_unparseable_reviewer_returns_review_failed(self):
        base = ModularPrompt(role="You pick colors.", requirements=("Pick one.",))
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=1)
        default = ScriptedBehavior(
            prompt_fingerprint="default", outcomes=(("no structure here", 1.0),)
        )
        orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, default=default))
        refined, history = orch.refine_until_stable(base, subtask_id="sE")
        assert refined == base
        assert history.outcome == "review-failed"
        assert history.components == ()
        # one initial ask plus reask_budget identical retries
        assert len(warnings_with_reason(orch, "unparseable-agent-response")) == 3
        # the gate's last event records why it ended below tau
        last = orch.trace.trace().events[-1]
        assert last.payload == {"reason": "review-failure", "subtask_id": "sE",
                                "error": "reviewer produced no usable revision for 'sE'"}
        assert warnings_with_reason(orch, "gate-exhausted") == []

    def test_invalid_component_name_returns_review_failed(self):
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
        refined, history = orch.refine_until_stable(base, subtask_id="sF")
        assert (refined, history.outcome) == (base, "review-failed")
        assert len(warnings_with_reason(orch, "invalid-review")) == 3
        assert len(warnings_with_reason(orch, "review-failure")) == 1

    @pytest.mark.parametrize("reply, detail", [
        # neither a component name nor a list of names
        ({"component": 5, "replacement": "cheerful"}, {"component": 5}),
        # replace_component refuses a blank role
        ({"component": "role", "replacement": "   "},
         {"error": "role replacement must be non-empty text"}),
    ], ids=["component-not-a-name", "blank-role"])
    def test_an_unusable_revision_is_an_invalid_review(self, reply, detail):
        base = ModularPrompt(role="You pick colors.", requirements=("Pick one.",))
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=1)
        rules = [prefix_json(ap.REVIEWER_STABILITY_MARK, "Subtask: sF", reply)]
        orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, prefix_rules=rules),
                                 OrchestratorSettings(reask_budget=0))
        refined, history = orch.refine_until_stable(base, subtask_id="sF")
        assert (refined, history.outcome) == (base, "review-failed")
        [warning] = warnings_with_reason(orch, "invalid-review")
        assert warning.payload == {"reason": "invalid-review", "subtask_id": "sF", **detail}

    @pytest.mark.parametrize("budget", [0, 2, 3])
    def test_mixed_reviewer_failures_share_one_budget(self, budget):
        base = ModularPrompt(role="You pick colors.", requirements=("Pick one.",))
        behaviors = [ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES)]
        assert_gate_stays_shut(render_prompt(base), behaviors, blocks=1)
        unknown = json.dumps({"component": "tone", "replacement": "cheerful"})
        reviewer = SequenceGenerator(ap.REVIEWER_STABILITY_MARK,
                                     ["no structure here", unknown],
                                     ScriptedGenerator(behaviors=behaviors))
        orch = make_orchestrator(reviewer, OrchestratorSettings(reask_budget=budget))
        refined, history = orch.refine_until_stable(base, subtask_id="sF")
        assert (refined, history.outcome) == (base, "review-failed")
        assert reviewer.calls == budget + 1
        unparseable = warnings_with_reason(orch, "unparseable-agent-response")
        invalid = warnings_with_reason(orch, "invalid-review")
        assert (len(unparseable), len(invalid)) == ((budget + 2) // 2, (budget + 1) // 2)

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
        assert history.components == ("knowledge",)
        assert refined.knowledge == "Only omega exists."

    def test_kl_metric_gates_without_embedder(self):
        prompt = ModularPrompt(role="You echo numbers.", requirements=("Say 7.",))
        gen = ScriptedGenerator(behaviors=[point_mass(render_prompt(prompt), "7")])
        orch = make_orchestrator(
            gen, OrchestratorSettings(refinement=RefinementConfig(metric="kl"))
        )
        refined, history = orch.refine_until_stable(prompt, subtask_id="sH")
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
        # five equal samples: stored, embedded and scored as one text
        assert (generation["outputs"], generation["sample_index"]) == (["7"], [0] * 5)
        assert trace.events_of_type("embedding")[0].payload["count"] == 1

    @pytest.mark.parametrize("outcomes", [[("7", 1.0)], UNSTABLE_OUTCOMES])
    def test_zero_embedding_fails_whether_or_not_samples_repeat(self, outcomes):
        class ZeroEmbedder:
            def embed(self, texts):
                return [EmbeddingVector((0.0, 0.0)) for _ in texts]

        prompt = ModularPrompt(role="You echo numbers.", requirements=("Say 7.",))
        gen = ScriptedGenerator(behaviors=[
            ScriptedBehavior.for_prompt(render_prompt(prompt), outcomes)])
        orch = Orchestrator(gen, ZeroEmbedder(), TraceWriter({"run": "test"}))
        with pytest.raises(ZeroVectorError):
            orch.evaluate_prompt_stability(prompt, subtask_id="sZ")

    def test_each_output_is_recorded_at_its_first_samples_distance(self):
        # the two "a b c" samples sum the same pairs in a different order, so
        # their distances differ in the last bit
        samples = ["a b d", "a b c", "b c d e", "a b c", "a e f g"]

        class FixedSamples:
            def generate(self, request):
                return list(samples)

        orch = make_orchestrator(FixedSamples())
        d = orch.evaluate_prompt_stability(ModularPrompt(role="You list letters."), "sF")
        assert d.sample_distances[1] != d.sample_distances[3]
        payload = orch.trace.trace().events_of_type("score")[0].payload
        assert payload["output_distances"] == [d.sample_distances[p] for p in (0, 1, 2, 4)]


    def measure(self, n):
        """The score payload and reviewer prompt of one N-sample measure."""
        prompt = ModularPrompt(role="You answer questions about colors.",
                               requirements=("Pick a color word.",))
        gen = ScriptedGenerator(behaviors=[
            ScriptedBehavior.for_prompt(render_prompt(prompt), UNSTABLE_OUTCOMES)])
        orch = make_orchestrator(
            gen, OrchestratorSettings(refinement=RefinementConfig(sample_count=n))
        )
        score = orch.evaluate_prompt_stability(prompt, "sJ")
        trace = orch.trace.trace()
        generation = trace.events_of_type("generation")[0].payload
        outputs = generation["outputs"]
        index = generation.get("sample_index", range(len(outputs)))
        payload = trace.events_of_type("score")[0].payload
        review = ap.reviewer_stability_prompt("sJ", prompt, score.value, outputs, index,
                                              payload["output_distances"])
        return len(json.dumps(payload, sort_keys=True)), len(review.splitlines())

    def test_score_payload_and_reviewer_prompt_grow_linearly_in_samples(self):
        # N 10 -> 50 is 5x the samples but 27x the pairs
        (bytes10, lines10), (bytes50, lines50) = self.measure(10), self.measure(50)
        assert bytes50 / bytes10 <= 6
        assert lines50 / lines10 <= 6

    def test_score_payload_and_reviewer_prompt_grow_with_distinct_outputs(self):
        # the same four outputs at N 10 and 200: the same reviewer lines, and
        # score payloads that differ only in the digits of their floats
        (bytes10, lines10), (bytes200, lines200) = self.measure(10), self.measure(200)
        assert lines200 == lines10
        assert abs(bytes200 - bytes10) <= 8

    def test_reviewer_prompt_points_at_the_farthest_sample(self):
        prompt = ModularPrompt(role="You echo numbers.", requirements=("Say 7.",))
        score = semantic_stability([(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        assert score.sample_distances == (0.5, 1.0, 0.5)
        text = ap.reviewer_stability_prompt("sK", prompt, score.value, ["7", "seven"],
                                            [0, 1, 0], [0.5, 1.0])
        assert "Stability: 0.333333 over 3 samples\n" in text
        assert ("Distinct outputs:\n"
                "[output 0: samples 0, 2 (2 of 3), mean distance 0.500000]\n7\n\n"
                "[output 1: samples 1 (1 of 3), mean distance 1.000000]\nseven\n\n"
                "Farthest from the rest: output 1\n") in text


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

    def test_a_reply_with_a_stray_brace_before_its_object_is_read(self):
        # the first "{" opens no JSON object, so the reply is read from the next
        reply = 'Template {fan-out}: {"template": "linear-chain"}'
        gen = ScriptedGenerator(behaviors=[point_mass(ap.classifier_prompt(TASK), reply),
                                           planner_behavior(PIPELINE_SUBTASKS)])
        orch = make_orchestrator(gen)
        plan = orch.decompose_task(TASK)
        assert plan.interaction_template == "linear-chain"
        assert warnings_with_reason(orch, "template-fallback") == []

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

    @pytest.mark.parametrize("subtasks, violations", [
        ([{"id": "root", "description": "Fetch the data."},
          {"id": "left", "description": "Check totals.", "dependencies": ["root"]},
          {"id": "right", "description": "Check dates.", "dependencies": ["left"]},
          {"id": "sink", "description": "Join the checks.", "dependencies": ["right"]}],
         ["right: branches must depend on the root only",
          "sink: the sink must depend on every branch"]),
        ([{"id": "root", "description": "Fetch the data."},
          {"id": "sink", "description": "Join the checks.", "dependencies": ["root"]}],
         ["fan-out/fan-in needs a root, at least one branch, and a sink"]),
    ], ids=["branch-and-sink", "too-few-subtasks"])
    def test_fan_out_violations_are_named(self, subtasks, violations):
        gen = ScriptedGenerator(behaviors=[planner_behavior(subtasks, template="fan-out-fan-in")])
        orch = make_orchestrator(gen)
        plan = orch.decompose_task(TASK, template="fan-out-fan-in")
        assert [s.id for s in plan.subtasks] == [entry["id"] for entry in subtasks]
        [warning] = warnings_with_reason(orch, "template-violation")
        assert warning.payload == {"reason": "template-violation", "template": "fan-out-fan-in",
                                   "violations": violations}

    def test_an_empty_subtask_list_is_an_invalid_plan(self):
        planner = SequenceGenerator(ap.PLANNER_MARK, [json.dumps({"subtasks": []})])
        orch = make_orchestrator(planner, OrchestratorSettings(reask_budget=0))
        with pytest.raises(PlanningFailure, match="at least one subtask"):
            orch.decompose_task(TASK, template="linear-chain")
        assert [e.payload for e in orch.trace.trace().events_of_type("warning")] == [
            {"reason": "invalid-plan", "error": "plan must list at least one subtask"}]

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

    @pytest.mark.parametrize("budget", [0, 2, 3])
    def test_mixed_planner_failures_share_one_budget(self, budget):
        cyclic = json.dumps({"subtasks": [
            {"id": "a", "description": "First.", "dependencies": ["b"]},
            {"id": "b", "description": "Second.", "dependencies": ["a"]},
        ]})
        planner = SequenceGenerator(ap.PLANNER_MARK, ["not json", "still not json", cyclic])
        orch = make_orchestrator(planner, OrchestratorSettings(reask_budget=budget))
        with pytest.raises(PlanningFailure) as info:
            orch.decompose_task(TASK, template="linear-chain")
        assert planner.calls == budget + 1
        # the failure names the last rejected plan
        expected = "dependency cycle" if budget >= 2 else "no parseable response"
        assert expected in str(info.value)
        assert len(warnings_with_reason(orch, "invalid-plan")) == (budget + 1) // 3

    def test_empty_task_rejected(self):
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(ValueError):
            orch.decompose_task("   ")

    def test_unknown_template_rejected(self):
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(ValueError):
            orch.decompose_task(TASK, template="moebius")

    def test_max_tokens_below_one_rejected(self):
        # checked when the settings are built, not on the first request
        with pytest.raises(ValueError, match="max_tokens"):
            OrchestratorSettings(max_tokens=0)


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
        [snapshot] = optimized_snapshots(orch)
        assert Plan.from_json_dict(snapshot) == plan

    def test_keep_answer_leaves_plan_and_flags_band(self):
        rules = [
            prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: coarse", {"action": "keep"}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan = orch.optimize_subtasks(self.coarse_plan())
        assert [s.id for s in plan.subtasks] == ["coarse", "report"]
        assert len(warnings_with_reason(orch, "unoptimizable-granularity")) == 1
        # an unchanged plan is not recorded again
        assert optimized_snapshots(orch) == []

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
        assert optimized_snapshots(orch) == []

    @pytest.mark.parametrize("pieces", [
        [],
        SPLIT_PIECES[:1],
        # the first piece is as coarse as the subtask it splits
        [{"id": "coarse.1", "description": COARSE_DESCRIPTION}, SPLIT_PIECES[3]],
    ], ids=["no-pieces", "one-piece", "still-too-coarse"])
    def test_too_few_or_too_coarse_pieces_are_an_invalid_split(self, pieces):
        rules = [prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: coarse",
                             {"action": "split", "subtasks": pieces})]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        plan = orch.optimize_subtasks(self.coarse_plan())
        assert [s.id for s in plan.subtasks] == ["coarse", "report"]
        [warning] = warnings_with_reason(orch, "invalid-split")
        assert warning.payload == {"reason": "invalid-split", "subtask_id": "coarse",
                                   "error": "pieces missing or still too coarse"}
        assert optimized_snapshots(orch) == []

    def fine_plan(self):
        return Plan(
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

    def merge_orchestrator(self, description):
        rules = [
            prefix_json(ap.OPTIMIZER_MERGE_MARK, "Subtasks: fetch, clean",
                        {"action": "merge", "description": description}),
            prefix_json(ap.OPTIMIZER_CHECK_MARK, "Subtask: fetch", {"preserved": True}),
        ]
        return make_orchestrator(
            ScriptedGenerator(prefix_rules=rules),
            OrchestratorSettings(target_granularity=8.0),
        )

    def test_merge_combines_adjacent_fine_subtasks(self):
        orch = self.merge_orchestrator(
            "Fetch the page. Extract the table. Clean the cells. Save the csv."
        )
        out = orch.optimize_subtasks(self.fine_plan())
        assert [s.id for s in out.subtasks] == ["fetch+clean", "verify"]
        assert out.subtask("fetch+clean").granularity == pytest.approx(4.0)
        assert out.subtask("verify").dependencies == frozenset({"fetch+clean"})

    # failure injection: a merge description that is not JSON text, once
    # merged as its Python repr "['Fetch it.', 'Clean it.']"
    @pytest.mark.parametrize("description", ["  ", ["Fetch it.", "Clean it."], None])
    def test_merge_without_description_text_keeps_the_plan(self, description):
        orch = self.merge_orchestrator(description)
        plan = self.fine_plan()
        assert orch.optimize_subtasks(plan).subtasks == plan.subtasks
        assert len(warnings_with_reason(orch, "invalid-merge")) == 1

    def test_merge_pass_offers_each_pair_once(self):
        # a -> b -> c -> d, one clause each, all below target / 2 = 4: the
        # agent keeps a, b and b, c, merges c and d, then keeps b, c+d
        steps = [("a", ()), ("b", ("a",)), ("c", ("b",)), ("d", ("c",))]
        plan = Plan(task_description=TASK, subtasks=tuple(
            Subtask(id=sid, description=f"Do {sid}.", dependencies=frozenset(deps))
            for sid, deps in steps))
        rules = [prefix_json(ap.OPTIMIZER_MERGE_MARK, f"Subtasks: {pair}", {"action": "keep"})
                 for pair in ("a, b", "b, c", "b, c+d")]
        rules += [
            prefix_json(ap.OPTIMIZER_MERGE_MARK, "Subtasks: c, d",
                        {"action": "merge", "description": "Do c and d."}),
            prefix_json(ap.OPTIMIZER_CHECK_MARK, "Subtask: c", {"preserved": True}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules),
                                 OrchestratorSettings(target_granularity=8.0))
        out = orch.optimize_subtasks(plan)
        merges = [e.payload["subtask_id"] for e in orch.trace.trace().events_of_type("generation")
                  if e.payload["purpose"] == "optimizer-merge"]
        # a, b is not offered again after the merge
        assert merges == ["a", "b", "c", "b"]
        assert [s.id for s in out.subtasks] == ["a", "b", "c+d"]
        assert out.subtask("c+d").dependencies == frozenset({"b"})
        [snapshot] = optimized_snapshots(orch)
        assert Plan.from_json_dict(snapshot) == out

    @pytest.mark.parametrize("kind", ["split", "merge"])
    def test_a_rejected_rewrite_writes_the_check_prompt_and_its_warnings(self, kind):
        if kind == "split":
            plan, target, sub_id = self.coarse_plan(), 2.0, "coarse"
            rule = prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: coarse",
                               {"action": "split", "subtasks": SPLIT_PIECES})
            before = COARSE_DESCRIPTION
            after = "\n".join(piece["description"] for piece in SPLIT_PIECES)
            flagged = [("coarse", 8)]
        else:
            plan, target, sub_id = self.fine_plan(), 8.0, "fetch"
            rule = prefix_json(ap.OPTIMIZER_MERGE_MARK, "Subtasks: fetch, clean",
                               {"action": "merge", "description": "Fetch and clean it."})
            before = "Fetch the page. Extract the table.\nClean the cells. Save the csv."
            after = "Fetch and clean it."
            flagged = [("fetch", 2), ("clean", 2)]
        rules = [rule, prefix_json(ap.OPTIMIZER_CHECK_MARK, f"Subtask: {sub_id}",
                                   {"preserved": False})]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules),
                                 OrchestratorSettings(target_granularity=target))
        assert orch.optimize_subtasks(plan) == plan
        trace = orch.trace.trace()
        [check] = [e.payload for e in trace.events_of_type("generation")
                   if e.payload["purpose"] == "optimizer-check"]
        assert check["subtask_id"] == sub_id
        assert check["fingerprint"] == prompt_fingerprint(
            ap.optimizer_check_prompt(sub_id, before, after))
        assert [e.payload for e in trace.events_of_type("warning")] == [
            {"reason": f"{kind}-not-preserving", "subtask_id": sub_id},
            *({"reason": "unoptimizable-granularity", "subtask_id": flagged_id,
               "granularity": granularity, "target": target}
              for flagged_id, granularity in flagged),
        ]
        assert optimized_snapshots(orch) == []

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
        assert result.reason is None
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
        assert result.reason == "non-numeric"

    def test_transport_failure_reported_in_band(self):
        sub = ready_subtask()
        prompt = executor_prompt(sub.id, sub.description)
        orch = make_orchestrator(TransportFailingGenerator())
        result = orch.execute_subtask(sub, prompt)
        assert not result.ok
        assert (result.reason, result.output) == ("transport", "")
        assert len(warnings_with_reason(orch, "transport-failure")) == 1

    def test_wrong_status_rejected(self):
        sub = Subtask(id="calc", description="Compute the sum.", io_spec=NUMERIC_SPEC)
        prompt = executor_prompt(sub.id, sub.description)
        orch = make_orchestrator(ScriptedGenerator())
        with pytest.raises(StateError):
            orch.execute_subtask(sub, prompt)


class TestAugmentRequirements:
    def failed(self, output="about six"):
        return ExecutionResult(subtask_id="calc", output=output, reason="non-numeric")

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
        # the trace holds no prompt of calc before, so the change is written in full
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
        # the second clause changes the prompt the first left, so it is written alone
        events = orch.trace.trace().events_of_type("augmentation")
        assert [set(e.payload) for e in events] == [
            {"subtask_id", "clause", "prompt_after"}, {"subtask_id", "clause"}]
        assert replay_trace(orch.trace.trace()).prompts == {"calc": twice}

    def assert_clause_rejected(self, clause):
        prompt = executor_prompt("calc", "Compute the sum.")
        rules = [
            prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc", {"clause": clause}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        augmented = orch.augment_requirements(prompt, self.failed())
        assert augmented is prompt
        assert len(warnings_with_reason(orch, "augmentation-rejected")) == 1

    def test_empty_clause_leaves_prompt_unchanged(self):
        self.assert_clause_rejected("  ")

    def test_non_text_clause_leaves_prompt_unchanged(self):
        # failure injection: a list is no clause, not its Python repr
        self.assert_clause_rejected(["Print one integer only."])

    def test_successful_result_rejected(self):
        prompt = executor_prompt("calc", "Compute the sum.")
        ok = ExecutionResult("calc", "6")
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

    # read through str(), these items would pass for key names
    @pytest.mark.parametrize("keys", [[5, {"k": 1}], ["schema", None]])
    def test_preserved_keys_other_than_text_fall_back_verbatim(self, keys):
        sub = Subtask(id="a", description="Big step.")
        plan = self.plan_with(sub)
        raw = "row " * 120
        gen = ScriptedGenerator(behaviors=[json_behavior(
            ap.summarizer_prompt(plan, sub, raw),
            {"summary": "120 rows parsed", "preserved_keys": keys})])
        orch = make_orchestrator(gen)
        summary = orch.summarize(raw, plan, sub)
        assert (summary.structured_text, summary.preserved_keys) == (raw, ())
        assert len(warnings_with_reason(orch, "summary-fallback")) == 1


class TestSubtaskPrompt:
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
        summaries = {"b": "B result", "a": "A result"}
        assert _history(plan, "c", summaries) == "- a: A result\n- b: B result"
        assert _history(plan, "a", summaries) == ""

    def test_history_follows_plan_position_not_id_order(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(
                Subtask(id="z", description="First."),
                Subtask(id="m", description="Second."),
                Subtask(id="k", description="Unsummarized."),
                Subtask(id="c", description="Last.",
                        dependencies=frozenset({"m", "k", "z"})),
            ),
        )
        summaries = {"m": "M result", "z": "Z result"}
        assert _history(plan, "c", summaries) == "- z: Z result\n- m: M result"

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
        prompt = orch.build_subtask_prompt(sub, _history(plan, "k1", {"dep": "dep: total=41"}))
        assert prompt.role == "You are the executor agent for subtask 'k1'."
        assert prompt.requirements == ("Complete this subtask: Derive the total.",)
        assert prompt.knowledge == "Ledgers balance debits against credits.\nnote alpha"
        assert prompt.history == "- dep: dep: total=41"
        assert prompt.io_spec == NUMERIC_SPEC
        event = orch.trace.trace().events_of_type("revision")[0].payload
        # the initial prompt in full, and no revision counter beside it
        assert set(event) == {"subtask_id", "component", "prompt_after"}
        assert event["component"] == "initial"
        assert ModularPrompt.from_json_dict(event["prompt_after"]) == prompt

    def test_knowledge_failure_degrades_to_notes_only(self):
        plan = Plan(
            task_description=TASK,
            subtasks=(Subtask(id="k2", description="Derive the total.",
                              injected_notes=("note beta",)),),
        )
        orch = make_orchestrator(ScriptedGenerator())  # no behaviors at all
        prompt = orch.build_subtask_prompt(plan.subtask("k2"))
        assert (prompt.knowledge, prompt.history) == ("note beta", "")
        assert len(warnings_with_reason(orch, "knowledge-failed")) == 1


    def test_blank_knowledge_degrades_to_notes_only(self):
        sub = Subtask(id="k3", description="Derive the total.", injected_notes=("note gamma",))
        orch = make_orchestrator(ScriptedGenerator(
            behaviors=[point_mass(ap.knowledge_prompt(sub), "   ")]))
        prompt = orch.build_subtask_prompt(sub)
        assert prompt.knowledge == "note gamma"
        [warning] = warnings_with_reason(orch, "knowledge-failed")
        assert warning.payload == {"reason": "knowledge-failed", "subtask_id": "k3",
                                   "error": "empty"}

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
        return ExecutionResult("a", "100")

    def failed_result(self):
        return ExecutionResult("a", "nope", "non-numeric")

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

    def test_non_dependent_target_rejects_whole_update(self):
        # b succeeded; d reads b's output, c is b's sibling and does not
        rules = [
            prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: b",
                        {"payload": "use schema X", "targets": ["d", "c"]}),
        ]
        orch = make_orchestrator(ScriptedGenerator(prefix_rules=rules))
        before = self.fan_plan(b_status=SubtaskStatus.EXECUTED_OK)
        before = Plan(task_description=TASK, subtasks=before.subtasks + (
            Subtask(id="d", description="Use the left branch.", dependencies=frozenset({"b"})),
        ))
        result = ExecutionResult("b", "7")
        plan, update = orch.update_plan(before, result, "7")
        assert update.kind == "no-op"
        assert plan.subtask("c").injected_notes == plan.subtask("d").injected_notes == ()
        [warning] = warnings_with_reason(orch, "invariant-violation")
        assert "['c']" in warning.payload["error"]

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

    def assert_degrades_to_no_op(self, ok, reply):
        default = ScriptedBehavior(prompt_fingerprint="default", outcomes=((reply, 1.0),))
        orch = make_orchestrator(ScriptedGenerator(default=default))
        before = self.fan_plan(a_status=SubtaskStatus.EXECUTED_OK if ok
                               else SubtaskStatus.EXECUTED_FAILED)
        plan, update = orch.update_plan(before, self.ok_result() if ok else self.failed_result(),
                                        "100")
        assert update.kind == "no-op"
        assert plan.subtasks == before.subtasks
        [event] = orch.trace.trace().events_of_type("plan-update")
        assert event.payload["note"] == "updater-failed"

    def test_unusable_updater_response_degrades_to_no_op(self):
        self.assert_degrades_to_no_op(False, "not structured")

    # failure injection: a payload or description that is not a JSON string
    # is no answer, not its Python repr
    @pytest.mark.parametrize("ok, reply", [
        (False, {"description": ["Use the closed-form sum instead."]}),
        (True, {"payload": ["use schema X"], "targets": ["b"]}),
    ], ids=["strategy-shift", "propagate-success"])
    def test_non_text_updater_response_degrades_to_no_op(self, ok, reply):
        self.assert_degrades_to_no_op(ok, json.dumps(reply))

    @pytest.mark.parametrize("update", [
        PlanUpdate("a", "strategy-shift", ("a",), "retry differently"),
        PlanUpdate("a", "propagate-success", ("b",), "note"),
    ], ids=["strategy-shift", "propagate-success"])
    def test_an_update_from_a_pending_source_is_rejected_and_recorded(self, update):
        orch = make_orchestrator(ScriptedGenerator())
        plan = self.fan_plan(a_status=SubtaskStatus.PENDING)
        after, applied = orch._apply_update(plan, update)
        assert after is plan and applied == PlanUpdate("a", "no-op", (), "")
        [warning] = warnings_with_reason(orch, "invariant-violation")
        assert warning.payload["update"] == update.to_json_dict()
        assert "requires an executed" in warning.payload["error"]
        [event] = orch.trace.trace().events_of_type("plan-update")
        assert (event.payload["note"], event.payload["update"]["kind"]) == (
            "update-rejected", "no-op")
        assert not orch.trace.trace().events_of_type("status-change")

    def test_unknown_update_kind_rejected(self):
        with pytest.raises(ValueError):
            PlanUpdate("a", "reshuffle", (), "")


FREE_TEXT_SPEC = {"output_format": "free-text"}

# one malformed reply per agent site: (the agent's prompt mark, its reply,
# the warning its site records)
MALFORMED_REPLIES = [
    (ap.CLASSIFIER_MARK, {"template": ["linear-chain"]}, "template-fallback"),
    (ap.PLANNER_MARK, {"subtasks": [{"id": "a", "description": 5}]}, "invalid-plan"),
    (ap.PLANNER_MARK, {"subtasks": [{"id": "a", "description": "Do it.",
                                     "io_spec": {"input_schema": 5}}]}, "invalid-plan"),
    (ap.PLANNER_MARK, {"subtasks": [{"id": "a", "description": "Do it.", "io_spec": "abc"}]},
     "invalid-plan"),
    (ap.OPTIMIZER_SPLIT_MARK, {"action": "split", "subtasks": ["a", "b"]}, "invalid-split"),
    (ap.OPTIMIZER_SPLIT_MARK,
     {"action": "split", "subtasks": [{"description": 5}, {"description": "Load it."}]},
     "invalid-split"),
    (ap.SUMMARIZER_MARK, {"summary": "Rows parsed.", "preserved_keys": 5}, "summary-fallback"),
    (ap.PLAN_UPDATE_SUCCESS_MARK, {"payload": "Keep the units.", "targets": 5},
     "invariant-violation"),
    # read as its characters, "ab" would make c depend on a and b
    (ap.PLANNER_MARK, {"subtasks": [{"id": "a", "description": "Load it."},
                                    {"id": "b", "description": "Parse it."},
                                    {"id": "c", "description": "Sum it.", "dependencies": "ab"}]},
     "invalid-plan"),
    # read as its Python repr, the list would pass for a summary
    (ap.SUMMARIZER_MARK, {"summary": ["Rows parsed."]}, "summary-fallback"),
    (ap.PLANNER_MARK, {"subtasks": [{"id": " ", "description": "Do it."}]}, "invalid-plan"),
    (ap.PLANNER_MARK, {"subtasks": [{"id": "a", "description": " "}]}, "invalid-plan"),
]


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

    def test_blank_free_text_output_fails_the_subtask_not_the_run(self, tmp_path):
        solo = [{"id": "note", "description": "Write a note.", "dependencies": []}]
        gen = ScriptedGenerator(
            behaviors=[planner_behavior(solo)],
            default=ScriptedBehavior(prompt_fingerprint="*", outcomes=(("  ", 1.0),)),
        )
        path = tmp_path / "run.jsonl"
        orch = make_orchestrator(gen, self.settings(), path=path)
        trace = orch.run_pipeline(TASK, template="linear-chain")
        orch.trace.close()
        assert warnings_with_reason(orch, "run-aborted") == []
        final = trace.events_of_type("status-change")[-1].payload
        assert (final["subtask_id"], final["to"]) == ("__run__", "failed")
        state = replay_trace(trace)
        assert state.run_status == "failed"
        assert state.plan.subtask("note").status is SubtaskStatus.EXECUTED_FAILED
        assert state.outputs == {"note": "  "}
        # what replay reads back from the written trace agrees with the run
        written = read_trace(path)
        assert replay_trace(written) == state
        report = render_run_report(compute_run_metrics([trace]))
        assert render_run_report(compute_run_metrics([written])) == report
        assert "run 1: failed" in report

    def test_prompt_changes_replay_to_the_executed_prompts(self, tmp_path):
        # calc's initial prompt and its role revision are unstable; the
        # requirements revision is stable but answers in words, and the
        # augmented prompt answers in digits
        solo = [{"id": "calc", "description": "Compute the sum.", "dependencies": [],
                 "io_spec": {"output_format": "numeric"}}]
        new_role = "You add numbers."
        initial = executor_prompt("calc", "Compute the sum.")
        role = replace_component(initial, PromptComponentKind.ROLE, new_role)
        required = replace_component(role, PromptComponentKind.REQUIREMENTS, "Print the sum.")
        augmented = replace_component(required, PromptComponentKind.REQUIREMENTS,
                                      required.requirements + ("Print digits only.",))
        behaviors = [
            planner_behavior(solo),
            ScriptedBehavior.for_prompt(render_prompt(initial), UNSTABLE_OUTCOMES),
            ScriptedBehavior.for_prompt(render_prompt(role), UNSTABLE_OUTCOMES),
            point_mass(render_prompt(required), "twelve"),
            point_mass(render_prompt(augmented), "12"),
        ]
        for prompt in (initial, role):
            assert_gate_stays_shut(render_prompt(prompt), behaviors, blocks=1)
        rules = [prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc",
                             {"clause": "Print digits only."})]

        class Reviewer:
            """calc's stability reviewer: it rewrites the role of a prompt
            that still has the first one, and the requirements after."""

            def __init__(self):
                self.inner = ScriptedGenerator(behaviors=behaviors, prefix_rules=rules)

            def generate(self, request):
                if not request.prompt_text.startswith(ap.REVIEWER_STABILITY_MARK):
                    return self.inner.generate(request)
                reply = ({"component": "requirements", "replacement": "Print the sum."}
                         if new_role in request.prompt_text
                         else {"component": "role", "replacement": new_role})
                return [json.dumps(reply)] * request.sample_count

        class Recording(TraceWriter):
            """A writer that also keeps each payload as it was emitted."""

            def __init__(self, header, path):
                super().__init__(header, path=path)
                self.emitted = []

            def emit(self, event_type, payload):
                self.emitted.append((event_type, payload))
                return super().emit(event_type, payload)

        writer = Recording({"run": "test"}, tmp_path / "deltas.jsonl")
        orch = Orchestrator(Reviewer(), HashEmbedder(), writer, self.settings(
            plan_updater_enabled=False, subtask_optimizer_enabled=False))
        executed = []

        def execute(sub, prompt):
            executed.append(prompt)
            return Orchestrator.execute_subtask(orch, sub, prompt)

        orch.execute_subtask = execute
        trace = orch.run_pipeline(TASK, template="linear-chain")
        writer.close()
        assert executed == [required, augmented]
        changes = [e.payload for e in trace.events if e.type in ("revision", "augmentation")]
        assert changes[1:] == [
            {"subtask_id": "calc", "component": "role", "value": new_role},
            {"subtask_id": "calc", "component": "requirements", "value": ["Print the sum."]},
            {"subtask_id": "calc", "clause": "Print digits only."},
        ]
        state = replay_trace(trace)
        assert state.prompts == {"calc": augmented}
        assert (state.refinements, state.augmentations) == ({"calc": 2}, {"calc": 1})
        assert replay_trace(read_trace(tmp_path / "deltas.jsonl")) == state
        # the same events, each change written by a writer that holds no
        # prompt of calc, so in full
        full = TraceWriter({"run": "test"})
        for event_type, payload in writer.emitted:
            if event_type in ("revision", "augmentation"):
                payload = TraceWriter({"run": "test"}).emit(event_type, payload).payload
            full.emit(event_type, payload)
        assert [e.payload.get("prompt_after") for e in full.trace().events
                if e.type in ("revision", "augmentation")] == [
            p.to_json_dict() for p in (initial, role, required, augmented)]
        assert replay_trace(full.trace()) == state

    def test_augmenting_an_earlier_revision_writes_it_in_full(self):
        # the role revision scores below the initial prompt, so the exhausted
        # gate executes the initial prompt, and the augmentation changes a
        # prompt other than the one the trace last holds for calc
        solo = [{"id": "calc", "description": "Compute the sum.", "dependencies": [],
                 "io_spec": {"output_format": "numeric"}}]
        initial = executor_prompt("calc", "Compute the sum.")
        role = replace_component(initial, PromptComponentKind.ROLE, "You add numbers.")
        augmented = replace_component(initial, PromptComponentKind.REQUIREMENTS,
                                      initial.requirements + ("Print digits only.",))
        samples = {render_prompt(initial): ["red", "red", "red", "blue", "green"],
                   render_prompt(role): ["one", "two", "three", "four", "five"],
                   render_prompt(augmented): ["12"]}
        rules = [
            prefix_json(ap.REVIEWER_STABILITY_MARK, "Subtask: calc",
                        {"component": "role", "replacement": "You add numbers."}),
            prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc",
                        {"clause": "Print digits only."}),
        ]
        planner = ScriptedGenerator(behaviors=[planner_behavior(solo)], prefix_rules=rules)

        class Samples:
            def generate(self, request):
                drawn = samples.get(request.prompt_text)
                if drawn is None:
                    return planner.generate(request)
                return drawn[:request.sample_count]

        orch = make_orchestrator(Samples(), self.settings(
            plan_updater_enabled=False, subtask_optimizer_enabled=False,
            refinement=RefinementConfig(max_iterations=1)))
        trace = orch.run_pipeline(TASK, template="linear-chain")
        scores = [e.payload["value"] for e in trace.events_of_type("score")]
        assert len(scores) == 2 and scores[1] < scores[0] < TAU
        changes = [e.payload for e in trace.events if e.type in ("revision", "augmentation")]
        assert [set(p) for p in changes] == [
            {"subtask_id", "component", "prompt_after"}, {"subtask_id", "component", "value"},
            {"subtask_id", "clause", "prompt_after"}]
        state = replay_trace(trace)
        assert state.run_status == "succeeded"
        assert state.prompts == {"calc": augmented}

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

    @staticmethod
    def failing_calc_run(orch_settings, execution_fails):
        """A run of one numeric subtask whose executions all fail: each
        execution prompt goes to execution_fails, every other prompt to a
        script whose stability draws agree, whose reviewer adds a clause and
        whose plan updater reformulates the subtask. Returns the trace and
        every prompt sent."""
        solo = [{"id": "calc", "description": "Compute the sum.",
                 "dependencies": [], "io_spec": {"output_format": "numeric"}}]
        executor = "## Role\nYou are the executor agent for subtask 'calc'."
        script = ScriptedGenerator(
            behaviors=[planner_behavior(solo)],
            prefix_rules=[
                (executor, ScriptedBehavior(prompt_fingerprint=f"prefix:{executor}",
                                            outcomes=(("about six", 1.0),))),
                prefix_json(ap.REVIEWER_FAILURE_MARK, "Subtask: calc",
                            {"clause": "Print one integer only."}),
                prefix_json(ap.PLAN_UPDATE_FAILURE_MARK, "Subtask: calc",
                            {"description": "Add the numbers."}),
            ],
        )
        prompts = []

        class Recording:
            def generate(self, request):
                prompts.append(request.prompt_text)
                if request.prompt_text.startswith(executor) and request.sample_count == 1:
                    return execution_fails(request)
                return script.generate(request)

        orch = make_orchestrator(Recording(), orch_settings)
        return orch.run_pipeline(TASK, template="linear-chain"), prompts

    def test_a_format_failure_names_its_reason_to_the_reviewer_and_the_updater(self):
        trace, prompts = self.failing_calc_run(self.settings(), lambda request: ["about six"])
        assert replay_trace(trace).run_status == "failed"
        for mark in (ap.REVIEWER_FAILURE_MARK, ap.PLAN_UPDATE_FAILURE_MARK):
            asked = [p for p in prompts if p.startswith(mark)]
            assert asked and all("\nFailure reason: non-numeric\n" in p for p in asked)

    def test_a_transport_failure_gets_no_augmentation_retry(self):
        def hang_up(request):
            raise TransportError("connection reset")

        trace, prompts = self.failing_calc_run(self.settings(), hang_up)
        assert replay_trace(trace).run_status == "failed"
        assert not any(p.startswith(ap.REVIEWER_FAILURE_MARK) for p in prompts)
        assert trace.events_of_type("augmentation") == ()
        # the plan updater still hears why, and the reformulated retry fails alike
        [updater] = [p for p in prompts if p.startswith(ap.PLAN_UPDATE_FAILURE_MARK)]
        assert "\nFailure reason: transport\n" in updater
        failures = [e for e in trace.events_of_type("warning")
                    if e.payload["reason"] == "transport-failure"]
        assert len(failures) == 2

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

            def _apply_update(self, plan, update):
                self.final_plan, update = super()._apply_update(plan, update)
                return self.final_plan, update

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
        # created, then one feedback event per subtask; the optimizer
        # changes nothing, so it records no snapshot
        assert len(trace.events_of_type("plan-update")) == n + 1
        return len(canonical_trace_bytes(trace))

    def test_trace_bytes_grow_linearly_with_the_plan_updater_on(self):
        assert self.chain_trace_bytes(100) / self.chain_trace_bytes(50) <= 2.2

    @pytest.mark.parametrize("metric, ceiling", [("semantic", 2.0), ("kl", 1.0)])
    def test_one_empty_sample_is_scored_maximally_distant(self, metric, ceiling):
        gen = BlankingGenerator(pipeline_generator(), position=2)
        settings = self.settings(reviewer_enabled=False,
                                 refinement=RefinementConfig(metric=metric))
        orch = make_orchestrator(gen, settings)
        trace = orch.run_pipeline(TASK, template="linear-chain")
        assert replay_trace(trace).run_status == "succeeded"
        scores = trace.events_of_type("score")
        assert len(scores) == 3
        for event in scores:
            # four equal samples and one empty: 4 of the 10 pairs at the ceiling
            quarter = ceiling / 4
            assert event.payload["output_distances"] == [quarter, ceiling]
            assert event.payload["value"] == pytest.approx(1.0 - 0.4 * ceiling)
        # the four equal samples are embedded once
        embedded = [e.payload["count"] for e in trace.events_of_type("embedding")]
        assert embedded == ([1, 1, 1] if metric == "semantic" else [])
        assert len(warnings_with_reason(orch, "gate-exhausted")) == 3

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

    def test_a_backend_that_always_fails_fails_the_run_after_two_calls(self):
        # the classifier's call fails, so the default template stands; then
        # the planner's call fails, which is no plan
        counting = CountingGenerator(TransportFailingGenerator())
        orch = make_orchestrator(counting, self.settings())
        state = replay_trace(orch.run_pipeline(TASK))
        assert (state.run_status, counting.calls) == ("failed", 2)
        assert [e.payload for e in orch.trace.trace().events_of_type("warning")] == [
            {"reason": "agent-call-failed", "purpose": "template-selection",
             "subtask_id": "__plan__", "error": "connection reset"},
            {"reason": "template-fallback", "proposed": None, "fallback": ap.DEFAULT_TEMPLATE},
            {"reason": "agent-call-failed", "purpose": "planning", "subtask_id": "__plan__",
             "error": "connection reset"},
            {"reason": "planning-failure",
             "error": "planner produced no valid plan: no parseable response"},
        ]

    @pytest.mark.parametrize("mark, reply, reason", MALFORMED_REPLIES,
                             ids=[f"{r}-{i}" for i, (_, _, r) in enumerate(MALFORMED_REPLIES)])
    def test_a_malformed_agent_reply_never_aborts_the_run(self, mark, reply, reason):
        # failure injection: the site records its own warning and takes its
        # own fallback; only a plan that never parses fails the run
        subtasks = [
            {"id": "coarse", "description": COARSE_DESCRIPTION, "io_spec": FREE_TEXT_SPEC},
            {"id": "report", "description": "Print the report.", "dependencies": ["coarse"],
             "io_spec": FREE_TEXT_SPEC},
        ]
        scripted = ScriptedGenerator(
            behaviors=[json_behavior(ap.classifier_prompt(TASK), {"template": "linear-chain"}),
                       planner_behavior(subtasks)],
            prefix_rules=[
                prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: coarse", {"action": "keep"}),
                prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: coarse",
                            {"payload": "Keep the units."}),
            ] + [prefix_json(ap.SUMMARIZER_MARK, f"Subtask: {sid}", {"summary": "Rows parsed."})
                 for sid in ("coarse", "report")],
            # every executor answer is above the summary pass-through limit
            default=ScriptedBehavior(prompt_fingerprint="default", outcomes=(("row " * 60, 1.0),)),
        )
        orch = make_orchestrator(SequenceGenerator(mark, [json.dumps(reply)], scripted),
                                 self.settings())
        state = replay_trace(orch.run_pipeline(TASK))
        assert warnings_with_reason(orch, reason)
        assert warnings_with_reason(orch, "run-aborted") == []
        planning = mark == ap.PLANNER_MARK
        assert state.run_status == ("failed" if planning else "succeeded")
        assert len(warnings_with_reason(orch, "planning-failure")) == planning


# -- range checks -------------------------------------------------------------------

NAN, INF = math.nan, math.inf
HTTP = dict(kind="http", endpoint_url="http://localhost:1", model_name="m")


@pytest.mark.parametrize("build", [
    lambda: RefinementConfig(kl_alpha=NAN),
    lambda: RefinementConfig(kl_alpha=INF),
    lambda: RefinementConfig(reviewer_temperature=NAN),
    lambda: RefinementConfig(stability_temperature=NAN),
    lambda: RefinementConfig(stability_temperature=INF),
    lambda: OrchestratorSettings(target_granularity=NAN),
    lambda: OrchestratorSettings(target_granularity=INF),
    lambda: OrchestratorSettings(execution_temperature=NAN),
    lambda: OrchestratorSettings(execution_temperature=INF),
    lambda: GenerationRequest("x", temperature=NAN),
    lambda: GenerationRequest("x", temperature=INF),
    lambda: BackendDescriptor(**HTTP, timeout=NAN),
    lambda: BackendDescriptor(**HTTP, timeout=INF),
    # finite, but longer than a socket can wait
    lambda: BackendDescriptor(**HTTP, timeout=1e10),
    lambda: ScriptedBehavior("fp", (("a", NAN), ("b", 1.0))),
    lambda: Subtask("a", "d", granularity=NAN),
    lambda: Subtask("a", "d", granularity=INF),
])
def test_a_range_check_rejects_nan_and_infinity(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: RefinementHistory((StabilityScore(1.0, (0.0, 0.0)),), (), "abandoned", TAU),
     "unknown outcome: 'abandoned'"),
    (lambda: RefinementHistory((StabilityScore(0.5, (0.5, 0.5)),), (), STABILIZED, TAU),
     "at or above tau"),
    (lambda: RefinementHistory((StabilityScore(1.0, (0.0, 0.0)),), ("role",), STABILIZED, TAU),
     "one more score than components"),
    (lambda: Summary(" \n"), "non-empty text"),
], ids=["unknown-outcome", "stabilized-below-tau", "scores-and-components-disagree",
        "blank-summary"])
def test_a_record_built_against_its_invariants_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()

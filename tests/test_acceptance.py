"""Acceptance gate: one test per shipped guarantee, each pinned to explicit
tolerances and a runtime budget. Run with -v (or -s for checklist lines);
every test prints exactly one [PASS] line when its criterion holds."""

import math
import random
import threading
import time

import numpy as np
import pytest

from promptor import agent_prompts as ap
from promptor.backends import (
    GenerationRequest,
    HashEmbedder,
    HttpGenerator,
    ScriptedBehavior,
    ScriptedGenerator,
)
from promptor.deviation import AggregationSpec, deviation_bound
from promptor.errors import TransportError
from promptor.metrics import cosine_distance, kl_stability, semantic_stability
from promptor.orchestrator import (
    Orchestrator,
    OrchestratorSettings,
    RefinementConfig,
)
from promptor.prompt import (
    IoSpec,
    ModularPrompt,
    PromptComponentKind,
    render_prompt,
    replace_component,
)
from promptor.reports import compute_run_metrics, render_run_report
from promptor.trace import TraceWriter, canonical_trace_bytes, read_trace

from .pipeline_fixture import (
    executor_prompt,
    pipeline_generator,
    planner_behavior,
    point_mass,
    prefix_json,
)
from .stub_server import StubApiServer, StubConfig
from .test_backends import http_descriptor
from .test_orchestrator import (
    TAU,
    UNSTABLE_OUTCOMES,
    assert_gate_stays_shut,
    make_orchestrator,
)
from .test_reports import synthetic_trace


def _passed(criterion: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{criterion} took {elapsed:.1f}s, budget {budget}s"
    print(f"[PASS] {criterion} ({elapsed:.2f}s)")


def test_criterion_1_analytic_metric_values():
    t0 = time.monotonic()
    e1, e2 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    assert cosine_distance(e1, e1) == pytest.approx(0.0, abs=1e-9)
    assert cosine_distance(e1, e2) == pytest.approx(1.0, abs=1e-9)
    assert cosine_distance(e1, (-1.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-9)
    assert semantic_stability([e1] * 4).value == pytest.approx(1.0, abs=1e-9)
    # pairs (e1,e1), (e1,e2), (e1,e2): mean distance 2/3
    assert semantic_stability([e1, e1, e2]).value == pytest.approx(1 / 3, abs=1e-9)
    assert semantic_stability([e1, e2]).value == pytest.approx(0.0, abs=1e-9)
    _passed("criterion 1: analytic metric values to 1e-9", t0, budget=1.0)


def test_criterion_2_metric_property_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(424242)
    violations = 0
    for _ in range(10_000):
        suite = rng.normal(size=(4, 8))
        suite /= np.linalg.norm(suite, axis=1, keepdims=True)
        vectors = [tuple(row) for row in suite]
        v, w = vectors[0], vectors[1]
        d = cosine_distance(v, w)
        if abs(d - cosine_distance(w, v)) > 1e-12:
            violations += 1
        a, b = rng.uniform(0.1, 10.0, size=2)
        scaled = cosine_distance(tuple(a * x for x in v), tuple(b * x for x in w))
        if abs(scaled - d) > 1e-9:
            violations += 1
        if not 0.0 <= d <= 2.0:
            violations += 1
        s = semantic_stability(vectors).value
        perm = [vectors[2], vectors[0], vectors[3], vectors[1]]
        if abs(s - semantic_stability(perm).value) > 1e-12:
            violations += 1
        if not -1.0 <= s <= 1.0:
            violations += 1
    assert violations == 0
    _passed("criterion 2: 10^4 random-vector property suites, zero violations",
            t0, budget=30.0)


def test_criterion_3_deviation_bound_grid():
    # the system output is sum_i u_i v_i x_i over n agents whose centered
    # outputs x_i are drawn here; the empirical tail of |s - s_hat| stays
    # below deviation_bound within a 3-sigma binomial margin
    t0 = time.monotonic()
    trials = 100_000
    factors = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    rng = np.random.default_rng(42)
    families = (
        ("gaussian", rng.standard_normal, 1.0),
        ("uniform", lambda size: rng.uniform(-1.0, 1.0, size), 1.0 / 3.0),
    )
    for n in (1, 2, 5, 10):
        for family, draw, var in families:
            spec = AggregationSpec(u=(1.0,) * n, v=(1.0,) * n)
            deviations = np.abs(draw((trials, n)) @ (np.asarray(spec.u) * spec.v))
            scale = math.sqrt(n * var)
            for eps in (c * scale for c in factors):
                bound = deviation_bound(spec, (var,) * n, eps)
                tail = np.count_nonzero(deviations >= eps) / trials
                margin = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
                assert tail <= bound + margin, (
                    f"{family} n={n} eps={eps:.4f}: {tail} > {bound} + {margin}"
                )
    # pinned cell: one standard gaussian at eps=2 has true tail 4.55% while
    # the bound is 2*exp(-2) = 0.2707
    spec = AggregationSpec(u=(1.0,), v=(1.0,))
    deviations = np.abs(np.random.default_rng(42).standard_normal(trials))
    assert deviation_bound(spec, (1.0,), 2.0) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-12)
    assert np.count_nonzero(deviations >= 2.0) / trials == pytest.approx(0.0455, abs=0.005)
    _passed("criterion 3: tail bound holds over the 64-cell grid + pinned cell",
            t0, budget=60.0)


def test_criterion_4_negation_pair_contrast():
    t0 = time.monotonic()
    kept = "I agree with the statement"
    negated = "I do not agree with the statement"
    # hand-derived Jeffreys divergence under add-one smoothing: the sentences
    # share five tokens, the second adds two, union vocabulary has seven, so
    # p = 1/6 per shared token (1/12 absent) against q uniform at 1/7
    expected_j = (
        (5 / 6) * math.log(7 / 6) + (1 / 6) * math.log(7 / 12)
        + (5 / 7) * math.log(6 / 7) + (2 / 7) * math.log(12 / 7)
    )
    j = kl_stability([kept, negated], alpha=1.0)
    assert j == pytest.approx(expected_j, abs=1e-9)
    # token-level threshold: half the divergence of two equal-length sentences
    # with fully disjoint wording, which is (2/3)ln2; the negation pair stays
    # well under it, so the token metric never flags the flipped meaning
    threshold_kl = math.log(2.0) / 3.0
    assert j < threshold_kl

    vectors = HashEmbedder().embed([kept, negated])
    d = cosine_distance(vectors[0], vectors[1])
    # embedding threshold: the largest distance any single-token insertion
    # into the five-token sentence can produce is 1 - 5/sqrt(30); the flip
    # inserts two tokens and lands clearly above that ceiling
    threshold_distance = 1.0 - 5.0 / math.sqrt(30.0)
    assert d > threshold_distance
    # analytic distance for disjoint buckets is 1 - 5/sqrt(35); the embedder's
    # small constant offset only perturbs it in the fourth decimal
    assert d == pytest.approx(1.0 - 5.0 / math.sqrt(35.0), abs=5e-4)
    _passed("criterion 4: negation flip invisible to token KL, visible to "
            "embedding distance", t0, budget=1.0)


def test_criterion_5_refinement_step_counts():
    t0 = time.monotonic()

    # already stable: zero steps
    stable = ModularPrompt(role="You echo numbers.", requirements=("Say 7.",))
    orch = make_orchestrator(
        ScriptedGenerator(behaviors=[point_mass(render_prompt(stable), "7")])
    )
    refined, history = orch.refine_until_stable(stable, subtask_id="sA")
    assert (refined, history.outcome, history.components) == (stable, "stabilized", ())
    assert len(history.scores) == 1

    # one reviewer step lands on a point mass
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
    rules = [prefix_json(ap.REVIEWER_STABILITY_MARK, "Subtask: sB",
                         {"component": "requirements",
                          "replacement": "Respond with the word omega only."})]
    orch = make_orchestrator(ScriptedGenerator(behaviors=behaviors, prefix_rules=rules))
    refined, history = orch.refine_until_stable(base, subtask_id="sB")
    assert (history.outcome, history.components) == ("stabilized", ("requirements",))
    assert len(history.scores) == 2
    assert history.scores[0].value < TAU
    assert history.final_score.value == pytest.approx(1.0)
    assert refined == revised

    # exhaustion: exactly max_iterations steps, never crossing the gate
    looping = ModularPrompt(
        role="You answer questions about colors.",
        requirements=("Pick a color word.",),
        knowledge="Colors vary.",
    )
    behaviors = [ScriptedBehavior.for_prompt(render_prompt(looping), UNSTABLE_OUTCOMES)]
    assert_gate_stays_shut(render_prompt(looping), behaviors, blocks=4)
    rules = [prefix_json(ap.REVIEWER_STABILITY_MARK, "Subtask: sC",
                         {"component": "knowledge", "replacement": "Colors vary."})]
    orch = make_orchestrator(
        ScriptedGenerator(behaviors=behaviors, prefix_rules=rules),
        OrchestratorSettings(refinement=RefinementConfig(max_iterations=3)),
    )
    refined, history = orch.refine_until_stable(looping, subtask_id="sC")
    assert (history.outcome, history.components) == ("exhausted", ("knowledge",) * 3)
    assert len(history.scores) == 4
    assert all(score.value < TAU for score in history.scores)
    _passed("criterion 5: refinement fixtures hit exact step counts "
            "(0, 1, budget)", t0, budget=5.0)


RUN_HEADER = {
    "task": "Compute the final balance after the listed transactions.",
    "seed": 7,
    "reference_answer": "87",
    "reference_match": "exact",
    "reference_tolerance": 1e-6,
}


def _seeded_run(path=None):
    with TraceWriter(dict(RUN_HEADER), path=path) as writer:
        orch = Orchestrator(
            pipeline_generator(run_seed=7), HashEmbedder(), writer,
            OrchestratorSettings(knowledge_enabled=False),
        )
        orch.run_pipeline(RUN_HEADER["task"], template="linear-chain")
    return writer.trace()


def test_criterion_6_deterministic_traces_and_replay(tmp_path):
    t0 = time.monotonic()
    path = tmp_path / "run.jsonl"
    first, second = _seeded_run(path), _seeded_run()
    assert canonical_trace_bytes(first) == canonical_trace_bytes(second)

    run_report = render_run_report(compute_run_metrics([first]))
    replay_report = render_run_report(compute_run_metrics([read_trace(path)]))
    assert replay_report == run_report
    assert "final output: '87'" in run_report
    _passed("criterion 6: same seed gives byte-identical traces; replay "
            "regenerates the report", t0, budget=10.0)


# -- module ablation suite: three tasks, each solvable only with one module --

T1_TASK = "Audit the ledger and report the closing balance."
T1_COARSE = (
    "Load the ledger. Parse each row. Validate the schema. Net the transfers. "
    "Sum the deposits. Sum the withdrawals. Compute the balance. Format the report."
)
T1_PLAN = [{"id": "work", "description": T1_COARSE, "dependencies": [],
            "io_spec": {"output_format": "numeric"}}]
T1_PIECES = [
    {"id": "work.1", "description": "Load the ledger. Parse each row."},
    {"id": "work.2", "description": "Validate the schema. Net the transfers."},
    {"id": "work.3", "description": "Sum the deposits. Sum the withdrawals."},
    {"id": "work.4", "description": "Compute the balance. Format the report."},
]


def t1_generator():
    # left whole, the eight-clause subtask answers 90; split into four
    # pieces it works through to the correct 100
    behaviors = [
        planner_behavior(T1_PLAN, task=T1_TASK),
        point_mass(render_prompt(executor_prompt("work", T1_COARSE)), "90"),
        point_mass(render_prompt(
            executor_prompt("work.1", T1_PIECES[0]["description"])), "12"),
        point_mass(render_prompt(
            executor_prompt("work.2", T1_PIECES[1]["description"],
                            history="- work.1: 12")), "45"),
        point_mass(render_prompt(
            executor_prompt("work.3", T1_PIECES[2]["description"],
                            history="- work.2: 45")), "77"),
        point_mass(render_prompt(
            executor_prompt("work.4", T1_PIECES[3]["description"],
                            history="- work.3: 77")), "100"),
    ]
    rules = [
        prefix_json(ap.OPTIMIZER_SPLIT_MARK, "Subtask: work",
                    {"action": "split", "subtasks": T1_PIECES}),
        prefix_json(ap.OPTIMIZER_CHECK_MARK, "Subtask: work", {"preserved": True}),
    ]
    return ScriptedGenerator(behaviors=behaviors, prefix_rules=rules)


T2_TASK = "Answer the riddle with a single number."
T2_PLAN = [{"id": "answer", "description": "Give the final answer.",
            "dependencies": []}]


def t2_generator():
    # the raw prompt never clears the gate; only the reviewer's rewrite
    # reaches the point mass answering 7
    base = executor_prompt("answer", "Give the final answer.", io_spec=IoSpec())
    revised = replace_component(
        base, PromptComponentKind.REQUIREMENTS, "State only the number 7."
    )
    behaviors = [
        planner_behavior(T2_PLAN, task=T2_TASK),
        ScriptedBehavior.for_prompt(render_prompt(base), UNSTABLE_OUTCOMES),
        point_mass(render_prompt(revised), "7"),
    ]
    rules = [prefix_json(ap.REVIEWER_STABILITY_MARK, "Subtask: answer",
                         {"component": "requirements",
                          "replacement": "State only the number 7."})]
    return ScriptedGenerator(behaviors=behaviors, prefix_rules=rules)


T3_TASK = "Measure the sample and report the doubled value."
T3_PLAN = [
    {"id": "first", "description": "Measure the sample.", "dependencies": [],
     "io_spec": {"output_format": "numeric"}},
    {"id": "second", "description": "Report the doubled value.",
     "dependencies": ["first"], "io_spec": {"output_format": "numeric"}},
]


def t3_generator():
    # the first attempt fails the format check; only the updater's
    # strategy shift reaches the working reformulation
    retry = executor_prompt("first", "Recalibrate and print the integer 5.")
    second = executor_prompt("second", "Report the doubled value.",
                             knowledge="double the measured five.",
                             history="- first: 5")
    behaviors = [
        planner_behavior(T3_PLAN, task=T3_TASK),
        point_mass(render_prompt(
            executor_prompt("first", "Measure the sample.")), "broken output"),
        point_mass(render_prompt(retry), "5"),
        point_mass(render_prompt(second), "10"),
    ]
    rules = [
        prefix_json(ap.PLAN_UPDATE_FAILURE_MARK, "Subtask: first",
                    {"description": "Recalibrate and print the integer 5."}),
        prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: first",
                    {"payload": "double the measured five."}),
    ]
    return ScriptedGenerator(behaviors=behaviors, prefix_rules=rules)


ABLATION_SUITE = (
    dict(task=T1_TASK, reference="100", generator=t1_generator,
         modules={"subtask_optimizer": True, "reviewer": False,
                  "plan_updater": False}),
    dict(task=T2_TASK, reference="7", generator=t2_generator,
         modules={"subtask_optimizer": False, "reviewer": True,
                  "plan_updater": False}),
    dict(task=T3_TASK, reference="10", generator=t3_generator,
         modules={"subtask_optimizer": False, "reviewer": False,
                  "plan_updater": True}),
)


def run_ablation_suite(disable=None):
    traces = []
    for entry in ABLATION_SUITE:
        modules = dict(entry["modules"])
        if disable is not None:
            modules[disable] = False
        settings = OrchestratorSettings(
            subtask_optimizer_enabled=modules["subtask_optimizer"],
            reviewer_enabled=modules["reviewer"],
            plan_updater_enabled=modules["plan_updater"],
            knowledge_enabled=False,
        )
        writer = TraceWriter({"task": entry["task"],
                              "reference_answer": entry["reference"]})
        orch = Orchestrator(entry["generator"](), HashEmbedder(), writer, settings)
        orch.run_pipeline(entry["task"], template="linear-chain")
        traces.append(writer.trace())
    report = compute_run_metrics(traces)
    return report.execution_success_rate, report.completion_rate


def test_criterion_7_module_ablation_pattern():
    t0 = time.monotonic()
    full_esr, full_cr = run_ablation_suite()
    assert (full_esr, full_cr) == (1.0, 1.0)
    drops = {}
    for module in ("subtask_optimizer", "reviewer", "plan_updater"):
        esr, cr = run_ablation_suite(disable=module)
        drops[module] = full_esr - esr
        # every single-module disablement strictly lowers the reference rate
        assert cr < full_cr, f"disabling {module} left CR at {cr}"
    updater_drop = drops.pop("plan_updater")
    assert updater_drop > 0
    # losing the plan updater is the only ablation that sinks whole runs
    assert all(updater_drop > other for other in drops.values())
    _passed("criterion 7: updater ablation worst on ESR; every ablation "
            "lowers CR", t0, budget=60.0)


def test_criterion_8_stability_success_correlation():
    t0 = time.monotonic()
    rng = random.Random(2026)
    stabilities, successes, traces = [], [], []
    for _ in range(200):
        stability = round(rng.uniform(0.2, 1.0), 6)
        succeeded = rng.random() < stability * stability
        stabilities.append(stability)
        successes.append(1.0 if succeeded else 0.0)
        traces.append(synthetic_trace(stability, succeeded))
    report = compute_run_metrics(traces).correlation
    assert report.pair_count == 200

    # brute-force Pearson, spelled out independently of the library
    n = len(stabilities)
    mean_x = math.fsum(stabilities) / n
    mean_y = math.fsum(successes) / n
    cov = math.fsum((x - mean_x) * (y - mean_y)
                    for x, y in zip(stabilities, successes))
    var_x = math.fsum((x - mean_x) ** 2 for x in stabilities)
    var_y = math.fsum((y - mean_y) ** 2 for y in successes)
    brute_force = cov / math.sqrt(var_x * var_y)
    assert report.coefficient == pytest.approx(brute_force, abs=1e-9)
    assert report.coefficient > 0.5
    _passed("criterion 8: correlation harness matches brute force and "
            "exceeds 0.5", t0, budget=10.0)


def test_criterion_9_http_wire_conformance(monkeypatch):
    t0 = time.monotonic()
    monkeypatch.setenv("PROMPTOR_API_KEY", "sk-acceptance")

    # request bodies are bit-exact canonical JSON
    with StubApiServer(StubConfig(canned_text="pong")) as server:
        gen = HttpGenerator(http_descriptor(server.base_url))
        outputs = gen.generate(
            GenerationRequest(prompt_text="ping prompt", temperature=0.5,
                              sample_count=2)
        )
        assert outputs == ["pong", "pong"]
        (record,) = server.records
        assert record.body == (
            '{"model":"test-model",'
            '"messages":[{"role":"user","content":"ping prompt"}],'
            '"temperature":0.5,"n":2,"max_tokens":1024}'
        ).encode()
        assert record.headers["Authorization"] == "Bearer sk-acceptance"

    # transient failures retry up to the configured budget, then surface
    with StubApiServer(StubConfig(fail_first=2)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=2))
        assert gen.generate(GenerationRequest(prompt_text="x")) == ["canned completion"]
        assert server.request_count == 3
    with StubApiServer(StubConfig(always_fail=True)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=1))
        with pytest.raises(TransportError):
            gen.generate(GenerationRequest(prompt_text="x"))
        assert server.request_count == 2

    # the concurrency cap is honored under parallel load
    with StubApiServer(StubConfig(delay=0.15)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_inflight=2))
        threads = [
            threading.Thread(
                target=lambda: gen.generate(GenerationRequest(prompt_text="x"))
            )
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert server.request_count == 6
        assert server.max_inflight_seen <= 2
    _passed("criterion 9: wire bytes, retry budget, and inflight cap verified",
            t0, budget=10.0)

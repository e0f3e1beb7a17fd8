"""Run-ahead execution: independent subtasks run on a thread pool and commit
in plan order, so a trace is byte-identical at any width."""

import hashlib
import json
import random
import sys
import threading
import time

import pytest

from promptor import agent_prompts as ap
from promptor import orchestrator
from promptor.cli import main
from promptor.backends import (
    BackendDescriptor,
    HashEmbedder,
    HttpGenerator,
    ScriptedBehavior,
    ScriptedGenerator,
)
from promptor.errors import TransportError, UnknownPromptError
from promptor.orchestrator import Orchestrator, OrchestratorSettings, RefinementConfig
from promptor.plan import SubtaskStatus
from promptor.trace import TraceWriter, canonical_trace_bytes, read_trace, replay_trace

from .pipeline_fixture import TASK, pipeline_generator, planner_behavior
from .stub_server import StubApiServer, StubConfig
from .test_orchestrator import CountingEmbedder, gate_embeddings
from .test_trace import written_strings

BRANCHES = [f"b{i}" for i in range(6)]
FREE_TEXT = {"output_format": "free-text"}
FAN_SUBTASKS = (
    [{"id": "root", "description": "Collect the inputs.", "dependencies": [],
      "io_spec": FREE_TEXT}]
    + [{"id": b, "description": f"Look up the {b} figure.", "dependencies": ["root"],
        "io_spec": {"output_format": "numeric"} if b == "b2" else FREE_TEXT}
       for b in BRANCHES]
    + [{"id": "sink", "description": "Join the figures.", "dependencies": BRANCHES,
        "io_spec": FREE_TEXT}]
)
EXECUTOR = "## Role\nYou are the executor agent for subtask '"
REFORMULATED_B2 = "Print the b2 figure as a number."
# b2's rewrite lands b2 on a rule of its own
REFORMULATED_B2_PREFIX = (
    f"{EXECUTOR}b2'.\n\n## Requirements\n1. Complete this subtask: {REFORMULATED_B2}"
)
EXECUTION_TEMPERATURE = 0.5

SETTINGS = OrchestratorSettings(
    refinement=RefinementConfig(sample_count=4, max_iterations=2),
    execution_temperature=EXECUTION_TEMPERATURE,
    subtask_optimizer_enabled=False,
)


def rule(prefix, outcomes, seed=0):
    return prefix, ScriptedBehavior(prompt_fingerprint=f"prefix:{prefix}",
                                    outcomes=tuple(outcomes), seed=seed)


def json_rule(prefix, obj):
    return rule(prefix, [(json.dumps(obj), 1.0)])


def fan_out_generator(conflict=False):
    """root, six branches and a sink, every module on. The executor outputs
    are drawn at random, so some gates clear at once and others go to the
    reviewer, who replaces the requirements; b2 answers in words where
    a number is due, is augmented, fails, is rewritten by the plan updater
    and then succeeds. With conflict, b1's updater names b4, a later
    sibling that does not depend on b1, so b1's update is rejected."""
    rules = [
        rule(EXECUTOR, [("alpha beta gamma", 0.4), ("alpha beta delta", 0.3),
                        ("zeta eta theta", 0.3)], seed=1),
        rule(REFORMULATED_B2_PREFIX, [("42", 1.0)]),
        rule(f"{ap.KNOWLEDGE_MARK}\n", [("Figures are integers.", 1.0)]),
        json_rule(f"{ap.REVIEWER_STABILITY_MARK}\n",
                  {"component": "requirements", "replacement": "Answer in three words."}),
        json_rule(f"{ap.REVIEWER_FAILURE_MARK}\n", {"clause": "Print digits only."}),
        json_rule(f"{ap.PLAN_UPDATE_FAILURE_MARK}\n", {"description": REFORMULATED_B2}),
        json_rule(f"{ap.PLAN_UPDATE_SUCCESS_MARK}\n", {"payload": "Keep the units."}),
    ]
    if conflict:
        rules.append(json_rule(f"{ap.PLAN_UPDATE_SUCCESS_MARK}\nSubtask: b1\n",
                               {"payload": "Use the b1 scale.", "targets": ["b4"]}))
    return ScriptedGenerator(
        behaviors=[planner_behavior(FAN_SUBTASKS, template="fan-out-fan-in")],
        prefix_rules=rules, run_seed=3,
    )


class JitterGenerator:
    """Sleeps a seeded random 0 to 2 ms before each call, so that run-ahead
    steps finish out of order, and records the calling threads."""

    def __init__(self, inner, seed=0):
        self.inner = inner
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.threads = set()

    def generate(self, request):
        with self._lock:
            pause = self._rng.uniform(0.0, 0.002)
            self.threads.add(threading.get_ident())
        time.sleep(pause)
        return self.inner.generate(request)


def run(generator, width, monkeypatch, settings=SETTINGS, template="fan-out-fan-in",
        embedder=None, path=None):
    """The run's trace at the given width, also written to path if given; a
    run that raises, even a KeyboardInterrupt, returns the exception with the
    trace written so far."""
    monkeypatch.setattr(orchestrator, "MAX_PARALLEL", width)
    writer = TraceWriter({"run": "parallel"}, path=path)
    errors = []

    def pipeline():
        try:
            with writer:
                Orchestrator(generator, embedder or HashEmbedder(), writer,
                             settings).run_pipeline(TASK, template=template)
        except BaseException as exc:
            errors.append(exc)

    before = set(threading.enumerate())
    runner = threading.Thread(target=pipeline, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the run did not finish"
    # no thread the run started outlives it; a test server's request threads
    # (socketserver names them after process_request_thread) may still be
    # closing a connection the run is done with
    leftover = [t for t in set(threading.enumerate()) - before
                if not t.name.endswith("(process_request_thread)")]
    assert leftover == []
    return writer.trace(), (errors or [None])[0]


def warnings_of(trace, reason):
    return [e for e in trace.events_of_type("warning") if e.payload["reason"] == reason]


@pytest.fixture
def pools(monkeypatch):
    """Counts the thread pools the orchestrator creates."""
    created = []

    class CountingPool(orchestrator.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "ThreadPoolExecutor", CountingPool)
    return created


@pytest.fixture
def frequent_switches():
    """Threads trade the interpreter lock every few microseconds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


# -- width invariance -------------------------------------------------------------


@pytest.mark.parametrize("conflict", [False, True], ids=["plain", "conflict"])
def test_trace_bytes_are_equal_at_every_width(conflict, monkeypatch, pools, frequent_switches):
    traces = {}
    for width in (1, 2, 4, 8):
        gen = JitterGenerator(fan_out_generator(conflict), seed=width)
        trace, error = run(gen, width, monkeypatch)
        assert error is None
        traces[width] = canonical_trace_bytes(trace)
        if width >= 4:
            assert len(gen.threads) > 1, "nothing ran ahead"
    assert traces[2] == traces[1] and traces[4] == traces[1] and traces[8] == traces[1]
    assert len(pools) == 3  # one per width above 1
    state = replay_trace(trace)
    assert state.run_status == "succeeded"
    b2 = state.plan.subtask("b2")
    assert (b2.status, b2.description) == (SubtaskStatus.EXECUTED_OK, REFORMULATED_B2)
    assert state.refinements and state.augmentations["b2"] == 2
    # run-ahead steps write the reviewer's and the augmentations' changes as
    # deltas of the prompts they traced, and texts the trace holds as ordinals
    changes = [e.payload for e in trace.events if e.type in ("revision", "augmentation")
               and e.payload.get("component") != "initial"]
    assert changes and not any("prompt_after" in p for p in changes)
    assert any(type(o) is int for e in trace.events_of_type("generation")
               for o in e.payload["outputs"])
    assert len(warnings_of(trace, "invariant-violation")) == (1 if conflict else 0)
    assert state.plan.subtask("b4").injected_notes == ("Keep the units.",)


def test_each_gate_embeds_a_text_once_at_every_width(monkeypatch, frequent_switches):
    # the reviewer's revisions keep the executor rule, so they draw from the
    # same three texts as the first prompt
    traces, sent = {}, {}
    for width in (1, 4):
        embedder = CountingEmbedder(HashEmbedder())
        trace, error = run(JitterGenerator(fan_out_generator(), seed=width), width,
                           monkeypatch, embedder=embedder)
        assert error is None
        traces[width] = canonical_trace_bytes(trace)
        embedded, idle = gate_embeddings(trace)
        sent[width] = sorted(embedder.texts)
        assert sent[width] == sorted(embedded) and idle > 0
    assert traces[4] == traces[1] and sent[4] == sent[1]


class Overlaps:
    """Records, through a shared generator and two of the orchestrator's
    module-level functions, every time pipeline code runs beside a backend
    call or beside pipeline code on another thread."""

    def __init__(self, inner, monkeypatch):
        self.inner = inner
        self._lock = threading.Lock()
        self.out = self.most_out = 0
        self.running = {}  # thread -> nested pipeline calls
        self.clashes = []
        for name in ("render_prompt", "semantic_stability"):
            monkeypatch.setattr(orchestrator, name, self._program(getattr(orchestrator, name)))

    def _program(self, fn):
        def wrapped(*args, **kwargs):
            me = threading.get_ident()
            with self._lock:
                if self.out or set(self.running) - {me}:
                    self.clashes.append(fn.__name__)
                self.running[me] = self.running.get(me, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self.running[me] -= 1
                    if not self.running[me]:
                        del self.running[me]

        return wrapped

    def generate(self, request):
        with self._lock:
            if self.running:
                self.clashes.append("generate")
            self.out += 1
            self.most_out = max(self.most_out, self.out)
        try:
            time.sleep(0.002)
            return self.inner.generate(request)
        finally:
            with self._lock:
                self.out -= 1


def test_only_backend_calls_overlap(monkeypatch, frequent_switches):
    gen = Overlaps(fan_out_generator(conflict=True), monkeypatch)
    trace, error = run(gen, 4, monkeypatch)
    assert error is None and replay_trace(trace).run_status == "succeeded"
    assert gen.most_out > 1, "no backend calls overlapped"
    assert gen.clashes == []


def test_a_run_ahead_step_shares_only_the_backends_and_the_turns(monkeypatch):
    # a worker is a copy of the commit loop's orchestrator: its trace buffer
    # and its prompt table are its own, the settings are frozen, and its
    # History comes in as a string built when it starts
    commit_loop, shared = [], []
    run_plan, step = Orchestrator._run_plan, Orchestrator._step

    def plan_and_run(self, task, template):
        commit_loop.append(self)
        return run_plan(self, task, template)

    def worker_step(self, plan, subtask_id, history):
        assert type(history) is str
        if self is not commit_loop[0]:
            own = vars(commit_loop[0])
            shared.append({name for name, value in vars(self).items() if value is own[name]})
        return step(self, plan, subtask_id, history)

    monkeypatch.setattr(Orchestrator, "_run_plan", plan_and_run)
    monkeypatch.setattr(Orchestrator, "_step", worker_step)
    trace, error = run(fan_out_generator(), 4, monkeypatch)
    assert error is None and replay_trace(trace).run_status == "succeeded"
    assert shared and all(
        names == {"generator", "embedder", "settings", "_turns"} for names in shared)


def test_a_chain_starts_no_thread(monkeypatch, pools):
    settings = OrchestratorSettings(knowledge_enabled=False)
    trace, error = run(pipeline_generator(), 4, monkeypatch, settings, "linear-chain")
    assert error is None and replay_trace(trace).run_status == "succeeded"
    assert pools == []


# the canonical trace of the pipeline_fixture pipeline, pinned so that any
# change to a trace byte fails here and is made on purpose
PIPELINE_TRACE_SHA256 = "a50481e708034eebbece67242546a37431128134ed47d7eaad451b69bddab5e4"


@pytest.mark.parametrize("width", [1, 4])
def test_pipeline_fixture_trace_digest_is_pinned(monkeypatch, width):
    settings = OrchestratorSettings(knowledge_enabled=False)
    trace, error = run(pipeline_generator(), width, monkeypatch, settings, "linear-chain")
    assert error is None
    assert hashlib.sha256(canonical_trace_bytes(trace)).hexdigest() == PIPELINE_TRACE_SHA256


# -- review failure ---------------------------------------------------------------

REVIEW_SUBTASKS = [
    {"id": "root", "description": "Collect the inputs.", "dependencies": []},
    {"id": "left", "description": "Look up the left figure.", "dependencies": ["root"]},
    {"id": "right", "description": "Look up the right figure.", "dependencies": ["root"]},
    {"id": "sink", "description": "Join the figures.", "dependencies": ["left", "right"]},
]
REVIEW_WARNINGS = ("invalid-review", "unparseable-agent-response")


def unusable_reviewer_generator():
    """Every executor prompt fails the gate and the reviewer never gives a
    usable revision: its replies do not parse, except right's, which name an
    unknown component."""
    rules = [
        rule(EXECUTOR, [("alpha", 0.25), ("beta", 0.25), ("gamma", 0.25),
                        ("delta", 0.25)], seed=4),
        rule(f"{ap.REVIEWER_STABILITY_MARK}\n", [("no structure here", 1.0)]),
        json_rule(f"{ap.REVIEWER_STABILITY_MARK}\nSubtask: right\n",
                  {"component": "tone", "replacement": "cheerful"}),
        json_rule(f"{ap.PLAN_UPDATE_SUCCESS_MARK}\n", {"payload": "Keep the units."}),
    ]
    return ScriptedGenerator(
        behaviors=[planner_behavior(REVIEW_SUBTASKS, template="fan-out-fan-in")],
        prefix_rules=rules, run_seed=2,
    )


def test_review_failure_is_recorded_after_the_last_rejected_review(monkeypatch):
    settings = OrchestratorSettings(
        refinement=RefinementConfig(sample_count=4, max_iterations=2),
        subtask_optimizer_enabled=False, knowledge_enabled=False,
    )
    traces = {}
    for width in (1, 4):
        trace, error = run(unusable_reviewer_generator(), width, monkeypatch, settings)
        assert error is None
        traces[width] = canonical_trace_bytes(trace)
    assert traces[4] == traces[1]
    assert replay_trace(trace).run_status == "succeeded"
    events = trace.events
    # each generation event's fingerprint, ordinals resolved
    fingerprints = {e.seq: strings[0] for e, strings in
                    zip(trace.events_of_type("generation"), written_strings(trace))}
    for sub in ("root", "left", "right", "sink"):
        mine = [k for k, e in enumerate(events) if e.payload.get("subtask_id") == sub]
        reasons = [events[k].payload["reason"] for k in mine if events[k].type == "warning"]
        assert "gate-exhausted" not in reasons
        failures = [k for k in mine if events[k].type == "warning"
                    and events[k].payload["reason"] == "review-failure"]
        assert len(failures) == 1
        assert events[failures[0]].payload == {
            "reason": "review-failure", "subtask_id": sub,
            "error": f"reviewer produced no usable revision for '{sub}'"}
        rejected = [k for k in mine if events[k].type == "warning"
                    and events[k].payload["reason"] in REVIEW_WARNINGS]
        assert rejected and failures[0] == rejected[-1] + 1
        # the executed prompt is the initial one, the only prompt sampled
        generations = [k for k in mine if events[k].type == "generation"
                       and events[k].payload["purpose"] in ("stability", "execution")]
        assert [events[k].payload["purpose"] for k in generations] == ["stability", "execution"]
        assert fingerprints[generations[0]] == fingerprints[generations[1]]
        assert [events[k].payload["component"] for k in mine
                if events[k].type == "revision"] == ["initial"]
    assert len(warnings_of(trace, "invalid-review")) == 3


# -- shared prompts ---------------------------------------------------------------


def shared_prompt_generator():
    """Two branches with equal descriptions whose first prompts fail the
    gate; the reviewer rewrites both roles to one text, so from then on both
    subtasks sample the same prompt at temperature 1."""
    twins = [
        {"id": "root", "description": "Collect the inputs.", "dependencies": []},
        {"id": "left", "description": "Look up the figure.", "dependencies": ["root"]},
        {"id": "right", "description": "Look up the figure.", "dependencies": ["root"]},
        {"id": "sink", "description": "Join the figures.", "dependencies": ["left", "right"]},
    ]
    rules = [
        rule("## Role\n", [("alpha beta", 0.25), ("gamma delta", 0.25),
                           ("epsilon zeta", 0.25), ("eta theta", 0.25)], seed=2),
        json_rule(f"{ap.REVIEWER_STABILITY_MARK}\n",
                  {"component": "role", "replacement": "You are the shared executor."}),
        json_rule(f"{ap.PLAN_UPDATE_SUCCESS_MARK}\n", {"payload": "Keep the units."}),
    ]
    return ScriptedGenerator(
        behaviors=[planner_behavior(twins, template="fan-out-fan-in")],
        prefix_rules=rules, run_seed=5,
    )


def test_branches_sharing_a_prompt_draw_the_same_samples_in_any_thread_order(monkeypatch):
    settings = OrchestratorSettings(
        refinement=RefinementConfig(sample_count=5, max_iterations=3),
        knowledge_enabled=False, subtask_optimizer_enabled=False,
    )
    first, error = run(shared_prompt_generator(), 1, monkeypatch, settings)
    assert error is None
    shared = [e for e in first.events_of_type("generation")
              if e.payload["purpose"] == "stability"
              and e.payload["subtask_id"] in ("left", "right")]
    fingerprints = {(e.payload["subtask_id"], e.payload["fingerprint"]) for e in shared}
    assert len({f for _, f in fingerprints}) < len(fingerprints), "no prompt was shared"
    expected = canonical_trace_bytes(first)
    for seed in range(20):
        trace, error = run(JitterGenerator(shared_prompt_generator(), seed), 4,
                           monkeypatch, settings)
        assert error is None
        assert canonical_trace_bytes(trace) == expected, f"run {seed} differs"


# -- aborts -----------------------------------------------------------------------


class Routed:
    """Sends the requests that match to other, the rest to inner."""

    def __init__(self, inner, matches, other):
        self.inner, self.matches, self.other = inner, matches, other

    def generate(self, request):
        return (self.other if self.matches(request) else self.inner).generate(request)


def assert_abort_parity(make_generator, monkeypatch, error_type):
    traces = []
    for width in (1, 4):
        trace, error = run(make_generator(), width, monkeypatch)
        assert isinstance(error, error_type)
        aborted = warnings_of(trace, "run-aborted")
        assert len(aborted) == 1
        assert aborted[0].payload["error"].startswith(error_type.__name__)
        assert replay_trace(trace).run_status == "failed"
        traces.append(canonical_trace_bytes(trace))
    assert traces[0] == traces[1]


def test_unknown_prompt_at_a_branch_execution_aborts_as_at_width_one(monkeypatch):
    def make():
        # a generator without behaviors knows no prompt
        return Routed(
            JitterGenerator(fan_out_generator()),
            lambda r: r.subtask_id == "b3" and r.temperature == EXECUTION_TEMPERATURE,
            ScriptedGenerator(),
        )

    assert_abort_parity(make, monkeypatch, UnknownPromptError)


def test_transport_error_in_stability_sampling_aborts_as_at_width_one(monkeypatch):
    with StubApiServer(StubConfig(always_fail=True)) as server:
        http = HttpGenerator(BackendDescriptor(
            kind="http", endpoint_url=server.base_url, model_name="test-model",
            timeout=5.0, max_retries=0))

        def make():
            return Routed(
                JitterGenerator(fan_out_generator()),
                lambda r: r.subtask_id == "b2" and r.sample_count > 1,
                http,
            )

        assert_abort_parity(make, monkeypatch, TransportError)
        assert server.request_count >= 2


class InterruptingGenerator:
    """Raises KeyboardInterrupt at its nth call, as a Ctrl-C would land
    there, and passes every other call to inner."""

    def __init__(self, inner, at):
        self.inner, self.at, self.calls = inner, at, 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.calls += 1
            interrupted = self.calls == self.at
        if interrupted:
            raise KeyboardInterrupt
        return self.inner.generate(request)


@pytest.mark.parametrize("width", [1, 4])
def test_an_interrupted_run_ends_failed_with_its_reason(monkeypatch, tmp_path, capsys, width):
    path = tmp_path / "interrupted.jsonl"
    trace, error = run(InterruptingGenerator(JitterGenerator(fan_out_generator()), at=6),
                       width, monkeypatch, path=path)
    assert isinstance(error, KeyboardInterrupt)
    # the run-aborted warning, then the run's one terminal status
    aborted, closed = (e.payload for e in trace.events[-2:])
    assert aborted["reason"] == "run-aborted"
    assert aborted["error"].startswith("KeyboardInterrupt")
    assert (closed["subtask_id"], closed["to"]) == ("__run__", "failed")
    assert read_trace(path).events == trace.events
    assert main(["report", "--trace", str(path)]) == 0
    assert "run 1: failed" in capsys.readouterr().out.splitlines()

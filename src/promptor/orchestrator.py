"""Control loop: planner decomposition, granularity optimization,
stability-gated refinement, execution with requirement augmentation,
summarization, and feedback-driven plan updates.

Every backend interaction and state change is emitted to the trace exactly
once, so a run can be replayed and audited from the trace alone.

A pipeline runs one step per subtask and commits the steps strictly in plan
order. The step at the head of that order runs inline; up to MAX_PARALLEL - 1
later subtasks whose dependencies have all committed executed-ok run ahead
on a thread pool, each against the plan as it stood when it started and
into a private event buffer. An update changes only its source and the
source's pending dependents, which start only once it has committed, so no
commit changes a started step's subtask: the trace is byte-identical at any
width. A step gets its dependencies' summaries as its History when it starts
and shares no state with the commit loop. The threads still take turns, so
that a profiler that keeps one stack of open calls sees calls nested as at
width 1: only backend calls overlap (see _Turns).
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from . import agent_prompts as ap
from .backends import (
    Embedder,
    EmbeddingVector,
    GenerationRequest,
    Generator,
    prompt_fingerprint,
)
from .errors import (
    BackendError,
    PlanningFailure,
    StateError,
    TransportError,
)
from .metrics import (
    LARGEST_DISTANCE,
    SEMANTIC,
    StabilityScore,
    kl_stability_score,
    semantic_stability,
)
from .plan import (
    NO_OP,
    PROPAGATE_SUCCESS,
    STRATEGY_SHIFT,
    Plan,
    PlanUpdate,
    Subtask,
    SubtaskStatus,
    with_status,
    with_subtask,
    with_update,
)
from .prompt import (
    ModularPrompt,
    PromptComponentKind,
    _write_field,
    render_prompt,
    replace_component,
    validate_output,
)
from .trace import ExecutionTrace, TraceWriter

T = TypeVar("T")

# the endings of refine_until_stable
STABILIZED = "stabilized"
EXHAUSTED = "exhausted"
REVIEW_FAILED = "review-failed"

# reviewer tie-break when a response names several components: requirements
# first, then knowledge, role, history
_COMPONENT_PRIORITY = ("requirements", "knowledge", "role", "history")

SUMMARY_PASS_THROUGH_LIMIT = 200

# the keys of a planner's subtask entry that are read; others are ignored
_PLANNED_FIELDS = ("id", "description", "dependencies", "io_spec")

# upper bound on the stability samples per measurement
MAX_SAMPLE_COUNT = 1000

# subtasks in flight at once: the head of the plan order, run inline, plus
# up to MAX_PARALLEL - 1 run-ahead steps; equal to the default of
# BackendDescriptor.max_inflight
MAX_PARALLEL = 4


@dataclass(frozen=True)
class RefinementConfig:
    tau: float = 0.7
    sample_count: int = 5
    max_iterations: int = 5
    reviewer_temperature: float = 0.0
    stability_temperature: float = 1.0
    metric: str = SEMANTIC
    kl_alpha: float = 1.0

    def __post_init__(self):
        # each message opens with the one field it checks, which PipelineConfig reads
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not 2 <= self.sample_count <= MAX_SAMPLE_COUNT:
            raise ValueError(f"sample_count must lie in [2, {MAX_SAMPLE_COUNT}]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 <= self.reviewer_temperature < math.inf:
            raise ValueError("reviewer_temperature must be finite and >= 0")
        if not 0 <= self.stability_temperature < math.inf:
            raise ValueError("stability_temperature must be finite and >= 0")
        if self.metric not in LARGEST_DISTANCE:
            raise ValueError("metric must be " + " or ".join(map(repr, LARGEST_DISTANCE)))
        if not 0 < self.kl_alpha < math.inf:
            raise ValueError("kl_alpha must be positive and finite")


@dataclass(frozen=True)
class RefinementHistory:
    """How a gate ended: the score of its first prompt and then of each
    revision (the last is final_score), the component each revision
    replaced, and its outcome (stabilized, exhausted or review-failed)."""

    scores: tuple[StabilityScore, ...]
    components: tuple[str, ...]
    outcome: str
    tau: float

    def __post_init__(self):
        if len(self.scores) != len(self.components) + 1:
            raise ValueError("a history holds one more score than components")
        if self.outcome not in (STABILIZED, EXHAUSTED, REVIEW_FAILED):
            raise ValueError(f"unknown outcome: {self.outcome!r}")
        if self.outcome == STABILIZED and self.final_score.value < self.tau:
            raise ValueError("a stabilized history must end at or above tau")

    @property
    def final_score(self) -> StabilityScore:
        return self.scores[-1]


TRANSPORT = "transport"


@dataclass(frozen=True)
class ExecutionResult:
    """One execution's output and why it failed: None on success, else the
    validator's reason or TRANSPORT when the generation failed in transport."""

    subtask_id: str
    output: str
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def status(self) -> SubtaskStatus:
        return SubtaskStatus.EXECUTED_OK if self.ok else SubtaskStatus.EXECUTED_FAILED


@dataclass(frozen=True)
class Summary:
    structured_text: str
    preserved_keys: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.structured_text.strip():
            raise ValueError("a summary must carry non-empty text")
        object.__setattr__(self, "preserved_keys", tuple(self.preserved_keys))


@dataclass(frozen=True)
class OrchestratorSettings:
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    execution_temperature: float = 1.0
    max_tokens: int = 1024
    reask_budget: int = 2  # extra attempts after the first, per agent call
    augmentation_retries: int = 2
    target_granularity: float = 2.0
    subtask_optimizer_enabled: bool = True
    reviewer_enabled: bool = True
    plan_updater_enabled: bool = True
    knowledge_enabled: bool = True

    def __post_init__(self):
        # each message opens with the one field it checks, which PipelineConfig reads
        if self.reask_budget < 0:
            raise ValueError("reask_budget must be >= 0")
        if self.augmentation_retries < 0:
            raise ValueError("augmentation_retries must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not 0 < self.target_granularity < math.inf:
            raise ValueError("target_granularity must be positive and finite")
        if not 0 <= self.execution_temperature < math.inf:
            raise ValueError("execution_temperature must be finite and >= 0")


def _rewire(plan: Plan, replaced_ids: tuple[str, ...], pieces: list[Subtask]) -> Plan:
    """The plan with the replaced subtasks swapped for the pieces, which
    stand where the first replaced subtask stood; every other subtask that
    depended on a replaced one depends on the last piece instead."""
    replaced = frozenset(replaced_ids)
    rewired = []
    for other in plan.subtasks:
        if other.id == replaced_ids[0]:
            rewired.extend(pieces)
        elif other.id in replaced:
            continue
        elif replaced & other.dependencies:
            deps = (other.dependencies - replaced) | {pieces[-1].id}
            rewired.append(dataclasses.replace(other, dependencies=deps))
        else:
            rewired.append(other)
    return dataclasses.replace(plan, subtasks=tuple(rewired))


def _history(plan: Plan, subtask_id: str, summaries: dict[str, str]) -> str:
    """A subtask's History: the summaries of its summarized dependencies, in
    plan order."""
    done = sorted((d for d in plan.subtask(subtask_id).dependencies if d in summaries),
                  key=plan.position)
    return "\n".join(f"- {d}: {summaries[d]}" for d in done)


def _reply_text(response: dict | None, key: str) -> str:
    """An agent reply's JSON string at key, stripped, or "" for anything else."""
    value = (response or {}).get(key)
    return value.strip() if isinstance(value, str) else ""


def _group_samples(texts: list[str]) -> tuple[list[str], list[int]]:
    """The distinct texts in first-seen order, and each text's position among
    them."""
    position: dict[str, int] = {}
    rows = [position.setdefault(text, len(position)) for text in texts]
    return list(position), rows


class _EventBuffer:
    """The trace sink of a run-ahead step: its events wait here until the
    commit loop writes them to the run's TraceWriter."""

    def __init__(self):
        self.events: list[tuple[str, dict]] = []

    def emit(self, event_type: str, payload: dict) -> None:
        self.events.append((event_type, payload))

    def warning(self, reason: str, **payload) -> None:
        self.emit("warning", {"reason": reason, **payload})


def _always() -> bool:
    return True


class _Turns:
    """Takes turns between the threads of a run while steps run ahead.

    One thread at a time runs the pipeline's own code. A thread that calls a
    backend gives up its turn, and its call waits until no thread runs or
    waits to run pipeline code; then every waiting call goes out at once,
    and pipeline code runs again only when the last of them is back. The
    steps share no state with the commit loop, so the turns remain only so
    that an outside profiler that keeps one stack of open calls
    (perfbench/spans.py) sees calls nested as at width 1, with only backend
    calls overlapping.

    The thread that creates it holds the first turn."""

    def __init__(self):
        self._cond = threading.Condition()
        self._running = True   # a thread holds the turn
        # per thread waiting for a turn: the condition it waits for besides
        self._wanting: list[Callable[[], bool]] = []
        self._waiting = 0      # backend calls waiting to go out
        self._out = 0          # backend calls out
        self._batches = 0      # batches of calls sent so far

    def _free(self) -> bool:
        return not self._running and not self._out

    def _changed(self) -> None:
        # with the lock held: send the waiting calls once no thread that
        # could run wants a turn
        if self._waiting and self._free() and not any(ready() for ready in self._wanting):
            self._out, self._waiting = self._waiting, 0
            self._batches += 1
        self._cond.notify_all()

    def _take(self, ready: Callable[[], bool]) -> None:
        # with the lock held
        self._wanting.append(ready)
        self._changed()
        self._cond.wait_for(lambda: ready() and self._free())
        self._wanting.remove(ready)
        self._running = True

    def acquire(self) -> None:
        with self._cond:
            self._take(_always)

    def release(self) -> None:
        with self._cond:
            self._running = False
            self._changed()

    def wait_until(self, ready: Callable[[], bool]) -> None:
        """Give up the turn until ready() holds and take it again. Only a
        turn holder may make ready() true, and it must release its turn
        after."""
        with self._cond:
            self._running = False
            self._take(ready)

    def call(self, fn: Callable[..., T], *args) -> T:
        """fn(*args) in the next batch of backend calls, by the turn holder;
        the caller holds the turn again when this returns or raises."""
        with self._cond:
            self._running = False
            self._waiting += 1
            batch = self._batches
            self._changed()
            self._cond.wait_for(lambda: self._batches != batch)
        try:
            return fn(*args)
        finally:
            with self._cond:
                self._out -= 1
                self._take(_always)


@dataclass(frozen=True)
class _StepOutcome:
    """What one subtask's step leaves for its commit: the subtask as the
    step left it, the execution result and, on success, the summary and the
    proposed plan update (None with the plan updater off)."""

    subtask: Subtask
    result: ExecutionResult
    summary: Summary | None = None
    update: PlanUpdate | None = None


@dataclass
class _RunAhead:
    """A step started ahead of its commit turn. The step sets done to
    (outcome, None) or (None, the exception it raised) while it holds its
    turn."""

    buffer: _EventBuffer = field(default_factory=_EventBuffer)
    done: tuple[_StepOutcome | None, BaseException | None] | None = None


class Orchestrator:
    def __init__(
        self,
        generator: Generator,
        embedder: Embedder,
        trace: TraceWriter,
        settings: OrchestratorSettings | None = None,
    ):
        self.generator = generator
        self.embedder = embedder
        self.trace = trace
        self.settings = settings or OrchestratorSettings()
        # set while steps run ahead
        self._turns: _Turns | None = None
        # each subtask's prompt as its last revision or augmentation left it;
        # only a subtask's own step reads or writes its entry
        self._traced_prompts: dict[str, ModularPrompt] = {}

    # -- backend plumbing -------------------------------------------------

    def _backend(self, fn: Callable[..., T], *args) -> T:
        return fn(*args) if self._turns is None else self._turns.call(fn, *args)

    def _generate(
        self, prompt_text: str, *, temperature: float, sample_count: int,
        purpose: str, subtask_id: str,
    ) -> tuple[list[str], list[int]]:
        """The distinct outputs in first-seen order and each sample's position
        among them, as the generation event records them."""
        request = GenerationRequest(
            prompt_text=prompt_text,
            temperature=temperature,
            sample_count=sample_count,
            max_tokens=self.settings.max_tokens,
            subtask_id=subtask_id,
        )
        outputs = self._backend(self.generator.generate, request)
        distinct, sample_index = _group_samples(outputs)
        payload = {
            "subtask_id": subtask_id,
            "purpose": purpose,
            "fingerprint": prompt_fingerprint(prompt_text),
            "temperature": temperature,
            "sample_count": sample_count,
            "outputs": distinct,
        }
        # outputs lists every sample unless one repeats
        if len(distinct) < len(outputs):
            payload["sample_index"] = sample_index
        self.trace.emit("generation", payload)
        return distinct, sample_index

    def _ask_json(
        self, prompt_text: str, *, temperature: float, purpose: str, subtask_id: str,
        accept: Callable[[dict], T | None] | None = None,
    ) -> dict | T | None:
        """One agent call: the reply parsed as JSON and passed through accept,
        re-asked with the identical prompt until accept takes it. An
        unparseable reply and a rejected one (accept records its own warning
        and returns None) each spend one of reask_budget + 1 attempts. None
        when the attempts are spent, or at once on a backend error."""
        for _ in range(self.settings.reask_budget + 1):
            try:
                outputs, _ = self._generate(
                    prompt_text,
                    temperature=temperature,
                    sample_count=1,
                    purpose=purpose,
                    subtask_id=subtask_id,
                )
            except BackendError as exc:
                self.trace.warning("agent-call-failed", purpose=purpose,
                                   subtask_id=subtask_id, error=str(exc))
                return None
            try:
                response = ap.extract_json(outputs[0])
            except ValueError:
                self.trace.warning("unparseable-agent-response", purpose=purpose,
                                   subtask_id=subtask_id, response=outputs[0][:200])
                continue
            value = response if accept is None else accept(response)
            if value is not None:
                return value
        return None

    # -- planning ----------------------------------------------------------

    def select_interaction_template(self, task: str) -> str:
        response = self._ask_json(
            ap.classifier_prompt(task), temperature=0.0,
            purpose="template-selection", subtask_id="__plan__",
        )
        name = (response or {}).get("template")
        if isinstance(name, str) and name in ap.TEMPLATES:
            return name
        self.trace.warning("template-fallback", proposed=name,
                           fallback=ap.DEFAULT_TEMPLATE)
        return ap.DEFAULT_TEMPLATE

    def _parse_plan(self, response: dict, task: str, template: str, created_from: str) -> Plan:
        entries = response["subtasks"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("plan must list at least one subtask")
        plan = Plan.from_json_dict({
            "task_description": task, "interaction_template": template,
            "created_from": created_from,
            "subtasks": [{key: entry[key] for key in _PLANNED_FIELDS if key in entry}
                         if isinstance(entry, dict) else entry for entry in entries],
        })
        for entry in entries:
            if "io_spec" not in entry:
                self.trace.warning("io-spec-defaulted", subtask_id=entry["id"])
        return plan

    def decompose_task(self, task: str, template: str | None = None) -> Plan:
        if not task.strip():
            raise ValueError("task must be non-empty")
        if template is None:
            template = self.select_interaction_template(task)
        elif template not in ap.TEMPLATES:
            raise ValueError(f"unknown template: {template!r}")
        prompt_text = ap.planner_prompt(task, template)
        created_from = prompt_fingerprint(prompt_text)
        last_problem = "no parseable response"

        def accept(response: dict) -> Plan | None:
            nonlocal last_problem
            try:
                return self._parse_plan(response, task, template, created_from)
            except (KeyError, TypeError, ValueError, PlanningFailure) as exc:
                last_problem = str(exc)
                self.trace.warning("invalid-plan", error=last_problem)
                return None

        plan = self._ask_json(prompt_text, temperature=0.0, purpose="planning",
                              subtask_id="__plan__", accept=accept)
        if plan is None:
            raise PlanningFailure(f"planner produced no valid plan: {last_problem}")
        violations = ap.TEMPLATES[template](plan)
        if violations:
            self.trace.warning("template-violation", template=template,
                               violations=violations)
        self._emit_plan_event("created", plan=plan)
        return plan

    # -- granularity optimization -------------------------------------------

    def _rewrite(self, plan: Plan, replaced: tuple[Subtask, ...], pieces: list[Subtask],
                 reason: str) -> Plan | None:
        """The plan with replaced swapped for pieces (see _rewire) if the check
        agent finds their descriptions mean the same; else None, after a warning."""
        sub_id = replaced[0].id
        response = self._ask_json(
            ap.optimizer_check_prompt(sub_id, "\n".join(s.description for s in replaced),
                                      "\n".join(p.description for p in pieces)),
            temperature=0.0, purpose="optimizer-check", subtask_id=sub_id,
        )
        if not (response and response.get("preserved") is True):
            self.trace.warning(reason, subtask_id=sub_id)
            return None
        return _rewire(plan, tuple(s.id for s in replaced), pieces)

    def _try_split(self, plan: Plan, sub: Subtask) -> Plan | None:
        target = self.settings.target_granularity
        response = self._ask_json(
            ap.optimizer_split_prompt(sub, target),
            temperature=0.0, purpose="optimizer-split", subtask_id=sub.id,
        )
        if not response or response.get("action") != "split":
            return None
        entries = response.get("subtasks") or []
        try:
            # a piece gives its description and maybe its id; the rest is sub's
            pieces = [
                Subtask.from_json_dict({"id": f"{sub.id}.{k + 1}", **{
                    key: entry[key] for key in ("id", "description") if key in entry}}
                    if isinstance(entry, dict) else entry)
                for k, entry in enumerate(entries)
            ]
        except (TypeError, ValueError) as exc:
            self.trace.warning("invalid-split", subtask_id=sub.id, error=str(exc))
            return None
        if len(pieces) < 2 or any(p.granularity > 2 * target for p in pieces):
            self.trace.warning("invalid-split", subtask_id=sub.id,
                               error="pieces missing or still too coarse")
            return None
        # the pieces form a chain standing where the original stood
        chained = [
            dataclasses.replace(
                piece, dependencies=frozenset({pieces[k - 1].id}) if k else sub.dependencies,
                io_spec=sub.io_spec, injected_notes=sub.injected_notes,
            )
            for k, piece in enumerate(pieces)
        ]
        return self._rewrite(plan, (sub,), chained, "split-not-preserving")

    def _try_merge(self, plan: Plan, a: Subtask, b: Subtask) -> Plan | None:
        response = self._ask_json(
            ap.optimizer_merge_prompt(a, b, self.settings.target_granularity),
            temperature=0.0, purpose="optimizer-merge", subtask_id=a.id,
        )
        if not response or response.get("action") != "merge":
            return None
        description = _reply_text(response, "description")
        if not description:
            self.trace.warning("invalid-merge", subtask_id=a.id, error="no description text")
            return None
        merged = Subtask(
            id=f"{a.id}+{b.id}",
            description=description,
            dependencies=a.dependencies,
            io_spec=b.io_spec,
            injected_notes=a.injected_notes + b.injected_notes,
        )
        return self._rewrite(plan, (a, b), [merged], "merge-not-preserving")

    def optimize_subtasks(self, plan: Plan) -> Plan:
        """Bring every subtask's granularity into [target/2, 2*target] by
        scripted splits and merges; anything still outside the band is flagged
        and left as-is. Only valid before execution starts."""
        target = self.settings.target_granularity
        original = plan
        if any(s.status is not SubtaskStatus.PENDING for s in plan.subtasks):
            raise StateError("optimize_subtasks requires an unexecuted plan")
        for sub in list(plan.subtasks):
            if sub.granularity > 2 * target:
                plan = self._try_split(plan, plan.subtask(sub.id)) or plan
        # a merge can pair an earlier subtask anew, so the scan restarts
        offered: set[tuple[str, str]] = set()
        while True:
            for a in plan.subtasks:
                if a.granularity >= target / 2:
                    continue
                dependents = plan.dependents(a.id)
                if len(dependents) != 1:
                    continue
                b = dependents[0]
                if (b.granularity >= target / 2 or b.dependencies != frozenset({a.id})
                        or (a.id, b.id) in offered):
                    continue
                offered.add((a.id, b.id))
                if (merged := self._try_merge(plan, a, b)) is not None:
                    plan = merged
                    break
            else:
                break
        for sub in plan.subtasks:
            if not (target / 2 <= sub.granularity <= 2 * target):
                self.trace.warning("unoptimizable-granularity", subtask_id=sub.id,
                                   granularity=sub.granularity, target=target)
        if plan is not original:
            self._emit_plan_event("optimized", plan=plan)
        return plan

    # -- stability and refinement ---------------------------------------------

    def _measure(
        self, p: ModularPrompt, subtask_id: str, vectors: dict[str, EmbeddingVector]
    ) -> tuple[StabilityScore, tuple]:
        """The score of N samples of p, and (outputs, sample_index,
        output_distances): the distinct outputs, each sample's position among
        them, and each output's mean distance to the other samples, taken
        from its first sample. vectors is the gate's memo from text to
        embedding: only the texts it lacks are embedded, and added to it."""
        cfg = self.settings.refinement
        rendered = render_prompt(p)
        outputs, sample_index = self._generate(
            rendered,
            temperature=cfg.stability_temperature,
            sample_count=cfg.sample_count,
            purpose="stability",
            subtask_id=subtask_id,
        )
        # each distinct text is embedded once per gate and scored once; a
        # blank sample is scored as maximally distant, not embedded
        texts = [text for text in outputs if text.strip()]
        position = {text: k for k, text in enumerate(texts)}
        rows = [position.get(outputs[k], -1) for k in sample_index]
        if cfg.metric == SEMANTIC:
            if new := [text for text in texts if text not in vectors]:
                reply = self._backend(self.embedder.embed, new)
                dims = {v.dim for v in reply} | {v.dim for v in vectors.values()}
                if len(dims) > 1:
                    raise BackendError(f"embedding dimensions disagree: {sorted(dims)}")
                vectors.update(zip(new, reply))
                self.trace.emit(
                    "embedding",
                    {"subtask_id": subtask_id, "purpose": "stability",
                     "count": len(reply), "dim": reply[0].dim},
                )
            score = semantic_stability([vectors[text] for text in texts], rows=rows)
        else:
            score = kl_stability_score(texts, alpha=cfg.kl_alpha, rows=rows)
        first = {}  # output position -> its first sample
        for sample, k in enumerate(sample_index):
            first.setdefault(k, sample)
        distances = [score.sample_distances[first[k]] for k in range(len(outputs))]
        self.trace.emit(
            "score",
            {"subtask_id": subtask_id, "metric": cfg.metric, "value": score.value,
             "sample_count": score.sample_count, "output_distances": distances},
        )
        return score, (outputs, sample_index, distances)

    def evaluate_prompt_stability(
        self, p: ModularPrompt, subtask_id: str = "adhoc"
    ) -> StabilityScore:
        """N samples of the rendered prompt, each distinct one embedded and
        scored once. The samples come back from one generate() call, so
        concurrency in the backend cannot reorder them."""
        score, _ = self._measure(p, subtask_id, {})
        return score

    def _pick_component(self, named) -> PromptComponentKind | None:
        if isinstance(named, str):
            candidates = [named.strip().lower()]
        elif isinstance(named, list):
            candidates = [str(n).strip().lower() for n in named]
        else:
            return None
        for preferred in _COMPONENT_PRIORITY:
            if preferred in candidates:
                return PromptComponentKind(preferred)
        return None

    def _reviewer_revision(
        self, p: ModularPrompt, score: StabilityScore, outputs: tuple, subtask_id: str,
    ) -> tuple[ModularPrompt, PromptComponentKind] | None:
        """One reviewer cycle: name a component, apply its replacement.
        None when the reviewer never produced a usable revision."""

        def accept(response: dict) -> tuple[ModularPrompt, PromptComponentKind] | None:
            kind = self._pick_component(response.get("component"))
            replacement = response.get("replacement")
            if kind is None or not isinstance(replacement, str):
                self.trace.warning("invalid-review", subtask_id=subtask_id,
                                   component=response.get("component"))
                return None
            try:
                return replace_component(p, kind, replacement), kind
            except ValueError as exc:
                self.trace.warning("invalid-review", subtask_id=subtask_id, error=str(exc))
                return None

        return self._ask_json(
            ap.reviewer_stability_prompt(subtask_id, p, score.value, *outputs),
            temperature=self.settings.refinement.reviewer_temperature,
            purpose="review", subtask_id=subtask_id, accept=accept,
        )

    def refine_until_stable(
        self, p: ModularPrompt, subtask_id: str = "adhoc"
    ) -> tuple[ModularPrompt, RefinementHistory]:
        """Evaluate-and-revise until the stability gate passes (stabilized,
        with the passing revision), the iteration budget runs out
        (exhausted) or the reviewer gives no usable revision
        (review-failed). Below tau it returns the best-scoring revision seen
        and records why in the trace: a review-failure warning, or a
        gate-exhausted warning with the best score, after a
        reviewer-disabled warning when the reviewer is off."""
        cfg = self.settings.refinement
        reviewer = self.settings.reviewer_enabled
        # the gate's own memo, so no state is shared between run-ahead steps
        vectors: dict[str, EmbeddingVector] = {}
        current, (score, outputs) = p, self._measure(p, subtask_id, vectors)
        best_prompt, best_value = current, score.value
        scores, components = [score], []
        while score.value < cfg.tau:
            if len(components) == (cfg.max_iterations if reviewer else 0):
                if not reviewer:
                    self.trace.warning("reviewer-disabled", subtask_id=subtask_id,
                                       value=score.value)
                # executing below tau is always visible in the trace
                self.trace.warning("gate-exhausted", subtask_id=subtask_id,
                                   best_score=best_value)
                return best_prompt, RefinementHistory(
                    tuple(scores), tuple(components), EXHAUSTED, cfg.tau)
            revised = self._reviewer_revision(current, score, outputs, subtask_id)
            if revised is None:
                self.trace.warning(
                    "review-failure", subtask_id=subtask_id,
                    error=f"reviewer produced no usable revision for {subtask_id!r}")
                return best_prompt, RefinementHistory(
                    tuple(scores), tuple(components), REVIEW_FAILED, cfg.tau)
            revised_prompt, kind = revised
            self._emit_prompt("revision", subtask_id, current, revised_prompt,
                              {"component": kind.value,
                               "value": _write_field(revised_prompt, kind.value)})
            score, outputs = self._measure(revised_prompt, subtask_id, vectors)
            current = revised_prompt
            scores.append(score)
            components.append(kind.value)
            if score.value > best_value:
                best_prompt, best_value = current, score.value
        return current, RefinementHistory(tuple(scores), tuple(components), STABILIZED, cfg.tau)

    # -- execution --------------------------------------------------------------

    def execute_subtask(self, sub: Subtask, p: ModularPrompt) -> ExecutionResult:
        if sub.status is not SubtaskStatus.STABLE_PROMPT_READY:
            raise StateError(
                f"subtask {sub.id!r} must be stable-prompt-ready, is {sub.status.value}"
            )
        try:
            outputs, _ = self._generate(
                render_prompt(p),
                temperature=self.settings.execution_temperature,
                sample_count=1,
                purpose="execution",
                subtask_id=sub.id,
            )
        except TransportError as exc:
            self.trace.warning("transport-failure", subtask_id=sub.id, error=str(exc))
            return ExecutionResult(sub.id, "", TRANSPORT)
        return ExecutionResult(sub.id, outputs[0], validate_output(outputs[0], sub.io_spec).reason)

    def augment_requirements(
        self, p: ModularPrompt, failure: ExecutionResult
    ) -> ModularPrompt:
        """Append one reviewer-derived requirement clause; on any reviewer
        problem the prompt comes back unchanged with a warning recorded."""
        if failure.ok:
            raise StateError("augment_requirements needs a failed result")
        response = self._ask_json(
            ap.reviewer_failure_prompt(failure.subtask_id, p, failure.reason, failure.output),
            temperature=self.settings.refinement.reviewer_temperature,
            purpose="augmentation", subtask_id=failure.subtask_id,
        )
        clause = _reply_text(response, "clause")
        if not clause:
            self.trace.warning("augmentation-rejected", subtask_id=failure.subtask_id)
            return p
        augmented = replace_component(
            p, PromptComponentKind.REQUIREMENTS, p.requirements + (clause,)
        )
        self._emit_prompt("augmentation", failure.subtask_id, p, augmented, {"clause": clause})
        return augmented

    def summarize(self, raw_output: str, plan: Plan, sub: Subtask) -> Summary:
        """Distill a completed subtask's output; short outputs pass through
        verbatim, and so does anything whose summarization fails."""
        if len(raw_output) <= SUMMARY_PASS_THROUGH_LIMIT:
            return Summary(raw_output)
        response = self._ask_json(
            ap.summarizer_prompt(plan, sub, raw_output),
            temperature=0.0, purpose="summarize", subtask_id=sub.id,
        )
        text = _reply_text(response, "summary")
        keys = (response or {}).get("preserved_keys", [])
        if (not text or len(text) >= len(raw_output) or not isinstance(keys, list)
                or not all(isinstance(key, str) for key in keys)):
            self.trace.warning("summary-fallback", subtask_id=sub.id)
            return Summary(raw_output)
        return Summary(text, preserved_keys=tuple(keys))

    def generate_domain_knowledge(self, sub: Subtask) -> str:
        try:
            outputs, _ = self._generate(
                ap.knowledge_prompt(sub), temperature=0.0, sample_count=1,
                purpose="knowledge", subtask_id=sub.id,
            )
        except BackendError as exc:
            self.trace.warning("knowledge-failed", subtask_id=sub.id, error=str(exc))
            return ""
        text = outputs[0].strip()
        if not text:
            self.trace.warning("knowledge-failed", subtask_id=sub.id, error="empty")
        return text

    # -- plan updates -------------------------------------------------------------

    def _emit_plan_event(
        self, note: str, *, plan: Plan | None = None, update: PlanUpdate | None = None
    ) -> None:
        """A plan-update event. A new plan structure is recorded as a full
        plan_after snapshot: 'created', and 'optimized' only when a split or
        merge changed the plan. A feedback step records only its update,
        which replay applies to the current plan. Plan records leave out the
        fields that hold their defaults (see prompt._write_record)."""
        payload = {"note": note, "update": update.to_json_dict() if update else None}
        if plan is not None:
            payload["plan_after"] = plan.to_json_dict()
        self.trace.emit("plan-update", payload)

    def update_plan(
        self, plan: Plan, result: ExecutionResult, summary_text: str = ""
    ) -> tuple[Plan, PlanUpdate]:
        """Feedback step after a subtask completes: inject a success payload
        into pending dependents, or reformulate a failed subtask. Generator
        trouble degrades to a recorded no-op update."""
        return self._apply_update(plan, self._propose_update(plan, result, summary_text))

    def _propose_update(
        self, plan: Plan, result: ExecutionResult, summary_text: str
    ) -> PlanUpdate:
        """The plan updater's update for a completed subtask, not yet
        applied; a no-op, already recorded, when there is nothing to update
        or the updater gave no usable answer."""
        source = plan.subtask(result.subtask_id)
        no_op = PlanUpdate(source.id, NO_OP, (), "")
        if result.ok:
            pending = [
                s.id for s in plan.dependents(source.id)
                if s.status is SubtaskStatus.PENDING
            ]
            if not pending:
                self._emit_plan_event("no-pending-dependents", update=no_op)
                return no_op
            response = self._ask_json(
                ap.plan_update_success_prompt(plan, source, summary_text),
                temperature=0.0, purpose="plan-update", subtask_id=source.id,
            )
            payload = _reply_text(response, "payload")
            if not payload:
                self._emit_plan_event("updater-failed", update=no_op)
                return no_op
            targets = (response or {}).get("targets", [])
            # a non-list names one target, rejected unless it is a dependent
            targets = tuple(map(str, targets)) if isinstance(targets, list) else (str(targets),)
            return PlanUpdate(source.id, PROPAGATE_SUCCESS, targets or tuple(pending), payload)
        response = self._ask_json(
            ap.plan_update_failure_prompt(plan, source, result.reason, result.output),
            temperature=0.0, purpose="plan-update", subtask_id=source.id,
        )
        description = _reply_text(response, "description")
        if not description:
            self._emit_plan_event("updater-failed", update=no_op)
            return no_op
        return PlanUpdate(source.id, STRATEGY_SHIFT, (source.id,), description)

    def _apply_update(self, plan: Plan, update: PlanUpdate) -> tuple[Plan, PlanUpdate]:
        """Validate, apply and record a proposed update. One that violates
        the plan's invariants (wrong source status, executed targets, success
        targets that are not dependents of the source, an unknown subtask) is
        recorded as rejected, and the plan stays as it was."""
        if update.kind == NO_OP:
            return plan, update
        try:
            updated = with_update(plan, update)
            outside = set(update.targets) - {s.id for s in plan.dependents(update.source_subtask)}
            if update.kind == PROPAGATE_SUCCESS and outside:
                raise StateError(f"update targets non-dependents of "
                                 f"{update.source_subtask!r}: {sorted(outside)}")
        except (StateError, KeyError) as exc:
            no_op = PlanUpdate(update.source_subtask, NO_OP, (), "")
            self.trace.warning("invariant-violation", subtask_id=update.source_subtask,
                               update=update.to_json_dict(), error=str(exc))
            self._emit_plan_event("update-rejected", update=no_op)
            return plan, no_op
        self._emit_plan_event(update.kind, update=update)
        if update.kind == STRATEGY_SHIFT:
            updated = self._apply_status(
                updated, update.source_subtask, SubtaskStatus.REFORMULATED
            )
        return updated, update

    # -- pipeline ------------------------------------------------------------------

    def _apply_status(self, plan: Plan, subtask_id: str, status: SubtaskStatus) -> Plan:
        before = plan.subtask(subtask_id).status
        plan = with_status(plan, subtask_id, status)
        self.trace.emit(
            "status-change",
            {"subtask_id": subtask_id, "from": before.value, "to": status.value},
        )
        return plan

    def build_subtask_prompt(self, sub: Subtask, history: str = "") -> ModularPrompt:
        knowledge_parts = []
        if self.settings.knowledge_enabled:
            generated = self.generate_domain_knowledge(sub)
            if generated:
                knowledge_parts.append(generated)
        knowledge_parts.extend(sub.injected_notes)
        prompt = ModularPrompt(
            role=f"You are the executor agent for subtask '{sub.id}'.",
            requirements=(f"Complete this subtask: {sub.description}",),
            knowledge="\n".join(knowledge_parts),
            history=history,
            io_spec=sub.io_spec,
        )
        self._emit_prompt("revision", sub.id, None, prompt, {"component": "initial"})
        return prompt

    def _emit_prompt(
        self, event_type: str, subtask_id: str, before: ModularPrompt | None,
        after: ModularPrompt, change: dict,
    ) -> None:
        """Record a subtask's prompt change from before to after: change
        alone when before is the prompt the trace last holds for the subtask,
        else with after in full as prompt_after."""
        payload = {"subtask_id": subtask_id, **change}
        if before is None or self._traced_prompts.get(subtask_id) is not before:
            payload["prompt_after"] = after.to_json_dict()
        self.trace.emit(event_type, payload)
        self._traced_prompts[subtask_id] = after

    def _execute_with_augmentation(
        self, plan: Plan, subtask_id: str, history: str
    ) -> tuple[Plan, ExecutionResult]:
        prompt, _ = self.refine_until_stable(
            self.build_subtask_prompt(plan.subtask(subtask_id), history), subtask_id)
        plan = self._apply_status(plan, subtask_id, SubtaskStatus.STABLE_PROMPT_READY)
        result = self.execute_subtask(plan.subtask(subtask_id), prompt)
        retries = 0
        while (
            not result.ok
            and result.reason != TRANSPORT
            and retries < self.settings.augmentation_retries
            and self.settings.reviewer_enabled
        ):
            augmented = self.augment_requirements(prompt, result)
            if augmented is prompt:
                break
            prompt = augmented
            retries += 1
            result = self.execute_subtask(plan.subtask(subtask_id), prompt)
        plan = self._apply_status(plan, subtask_id, result.status)
        return plan, result

    def _step(self, plan: Plan, subtask_id: str, history: str) -> _StepOutcome:
        """One subtask's cycle against plan, with history as its prompt's
        History: refine, execute with augmentation, one strategy-shift retry
        on failure when the plan updater is on, and on success the summary
        and the updater's proposed update. It changes no other subtask of
        the plan."""
        plan, result = self._execute_with_augmentation(plan, subtask_id, history)
        if not result.ok and self.settings.plan_updater_enabled:
            plan, update = self.update_plan(plan, result)
            if update.kind == STRATEGY_SHIFT:
                plan, result = self._execute_with_augmentation(plan, subtask_id, history)
        sub = plan.subtask(subtask_id)
        if not result.ok:
            return _StepOutcome(sub, result)
        summary = self.summarize(result.output, plan, sub)
        update = None
        if self.settings.plan_updater_enabled:
            update = self._propose_update(plan, result, summary.structured_text)
        return _StepOutcome(sub, result, summary, update)

    def _run_ahead(
        self, pool: ThreadPoolExecutor, plan: Plan, subtask_id: str, history: str
    ) -> _RunAhead:
        """Start a subtask's step on the pool against plan, on a copy of this
        orchestrator whose trace is a private buffer and whose prompt table
        is its own."""
        started = _RunAhead()
        worker = copy.copy(self)
        worker.trace = started.buffer
        worker._traced_prompts = {}
        turns = self._turns

        def step():
            turns.acquire()
            try:
                started.done = worker._step(plan, subtask_id, history), None
            except BaseException as exc:  # re-raised at the step's commit turn
                started.done = None, exc
            finally:
                turns.release()

        pool.submit(step)
        return started

    def _take_run_ahead(self, started: _RunAhead) -> _StepOutcome:
        """A run-ahead step's outcome at its commit turn, after its events are
        written. An exception the step raised is raised here."""
        self._turns.wait_until(lambda: started.done is not None)
        outcome, error = started.done
        for event_type, payload in started.buffer.events:
            self.trace.emit(event_type, payload)
        if error is not None:
            raise error
        return outcome

    def run_pipeline(self, task: str, template: str | None = None) -> ExecutionTrace:
        """The full loop: plan, optimize, then per subtask refine-execute-
        summarize with feedback plan updates; failed subtasks get one
        strategy-shift retry when the plan updater is enabled. Independent
        subtasks run ahead on up to MAX_PARALLEL - 1 threads, which are all
        gone when this returns or raises; the trace is the same at any width.

        The run's terminal status is written in one place, whatever happens:
        an unexpected exception, a KeyboardInterrupt or SystemExit included,
        is recorded as a run-aborted warning, the run ends failed, and the
        exception propagates."""
        self.trace.emit(
            "status-change", {"subtask_id": "__run__", "from": None, "to": "running"}
        )
        status, final_output = "failed", ""
        try:
            status, final_output = self._run_plan(task, template)
        except BaseException as exc:
            self.trace.warning("run-aborted", error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self.trace.emit(
                "status-change",
                {"subtask_id": "__run__", "from": "running", "to": status,
                 "final_output": final_output},
            )
        return self.trace.trace()

    def _run_plan(self, task: str, template: str | None) -> tuple[str, str]:
        """Plan and execute the task; returns the run's terminal status and
        final output."""
        try:
            plan = self.decompose_task(task, template)
        except PlanningFailure as exc:
            self.trace.warning("planning-failure", error=str(exc))
            return "failed", ""
        if self.settings.subtask_optimizer_enabled:
            plan = self.optimize_subtasks(plan)
        summaries: dict[str, str] = {}
        outputs: dict[str, str] = {}
        order = [s.id for s in plan.subtasks]
        # a subtask is ready once all its dependencies committed executed-ok;
        # ready holds the positions of ready subtasks not yet started
        unmet = {s.id: len(s.dependencies) for s in plan.subtasks}
        ready = [pos for pos, s in enumerate(plan.subtasks) if not s.dependencies]
        ahead: dict[str, _RunAhead] = {}
        pool = None
        try:
            for head, subtask_id in enumerate(order):
                started = ahead.pop(subtask_id, None)
                sub = plan.subtask(subtask_id)
                blocked = [
                    dep for dep in sub.dependencies
                    if plan.subtask(dep).status is not SubtaskStatus.EXECUTED_OK
                ]
                if blocked:
                    self.trace.warning("blocked", subtask_id=subtask_id,
                                       unmet=sorted(blocked))
                    continue
                while ready and len(ahead) < MAX_PARALLEL - 1:
                    pos = heapq.heappop(ready)
                    if pos > head:
                        if pool is None:
                            pool = ThreadPoolExecutor(MAX_PARALLEL - 1)
                            self._turns = _Turns()
                        ahead[order[pos]] = self._run_ahead(
                            pool, plan, order[pos], _history(plan, order[pos], summaries))
                outcome = (self._take_run_ahead(started) if started else
                           self._step(plan, subtask_id, _history(plan, subtask_id, summaries)))
                plan = with_subtask(plan, outcome.subtask)
                if not outcome.result.ok:
                    continue
                outputs[subtask_id] = outcome.result.output
                summaries[subtask_id] = outcome.summary.structured_text
                if outcome.update is not None:
                    plan, _ = self._apply_update(plan, outcome.update)
                for dependent in plan.dependents(subtask_id):
                    unmet[dependent.id] -= 1
                    if not unmet[dependent.id]:
                        heapq.heappush(ready, plan.position(dependent.id))
        finally:
            if pool is not None:
                self._turns.release()
                self._turns = None
                pool.shutdown(cancel_futures=True)
        succeeded = all(s.status is SubtaskStatus.EXECUTED_OK for s in plan.subtasks)
        return "succeeded" if succeeded else "failed", outputs.get(plan.subtasks[-1].id, "")

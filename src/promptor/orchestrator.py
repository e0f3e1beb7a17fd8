"""Control loop: planner decomposition, granularity optimization,
stability-gated refinement, execution with requirement augmentation,
summarization, and feedback-driven plan updates.

Every backend interaction and state change is emitted to the trace exactly
once, so a run can be replayed and audited from the trace alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from . import agent_prompts as ap
from .backends import (
    Embedder,
    GenerationRequest,
    Generator,
    prompt_fingerprint,
)
from .errors import (
    BackendError,
    PlanningFailure,
    ReviewFailure,
    StateError,
    TransportError,
)
from .metrics import StabilityScore, kl_stability_score, semantic_stability
# with_subtask is unused here but stays importable: perfbench's span
# recorder wraps orchestrator.with_subtask by name
from .plan import (  # noqa: F401
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
    IoSpec,
    ModularPrompt,
    PromptComponentKind,
    ValidationResult,
    render_prompt,
    replace_component,
    validate_output,
)
from .trace import ExecutionTrace, TraceWriter

SEMANTIC = "semantic"
KL = "kl"

STABILIZED = "stabilized"
EXHAUSTED = "exhausted"

# reviewer tie-break when a response names several components: requirements
# first, then knowledge, role, history
_COMPONENT_PRIORITY = ("requirements", "knowledge", "role", "history")

SUMMARY_PASS_THROUGH_LIMIT = 200


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
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.reviewer_temperature < 0 or self.stability_temperature < 0:
            raise ValueError("temperatures must be >= 0")
        if self.metric not in (SEMANTIC, KL):
            raise ValueError(f"metric must be '{SEMANTIC}' or '{KL}'")
        if self.kl_alpha <= 0:
            raise ValueError("kl_alpha must be positive")


@dataclass(frozen=True)
class RefinementStep:
    revision: int
    component: str
    score_before: StabilityScore
    score_after: StabilityScore


@dataclass(frozen=True)
class RefinementHistory:
    steps: tuple[RefinementStep, ...]
    outcome: str
    final_score: StabilityScore
    tau: float

    def __post_init__(self):
        if self.outcome not in (STABILIZED, EXHAUSTED):
            raise ValueError(f"unknown outcome: {self.outcome!r}")
        if self.outcome == STABILIZED and self.final_score.value < self.tau:
            raise ValueError("a stabilized history must end at or above tau")

    @property
    def best_score(self) -> float:
        values = [s.score_before.value for s in self.steps]
        values.append(self.final_score.value)
        return max(values)


@dataclass(frozen=True)
class ExecutionResult:
    subtask_id: str
    status: SubtaskStatus
    output: str
    validation: ValidationResult | None
    cause: str | None = None  # "format" | "transport" on failure

    @property
    def ok(self) -> bool:
        return self.status is SubtaskStatus.EXECUTED_OK


@dataclass(frozen=True)
class Summary:
    source_subtask: str
    structured_text: str
    preserved_keys: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.structured_text.strip():
            raise ValueError("a summary must carry non-empty text")
        object.__setattr__(self, "preserved_keys", tuple(self.preserved_keys))


class ContextStore:
    """Summaries of completed subtasks, consumed as History by dependents."""

    def __init__(self):
        self._summaries: dict[str, Summary] = {}

    def add(self, summary: Summary) -> None:
        self._summaries[summary.source_subtask] = summary

    def history_for(self, sub: Subtask, plan: Plan) -> str:
        lines = []
        for other in plan.subtasks:
            if other.id in sub.dependencies and other.id in self._summaries:
                lines.append(f"- {other.id}: {self._summaries[other.id].structured_text}")
        return "\n".join(lines)


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
        if self.reask_budget < 0 or self.augmentation_retries < 0:
            raise ValueError("budgets must be >= 0")
        if self.target_granularity <= 0:
            raise ValueError("target_granularity must be positive")
        if self.execution_temperature < 0:
            raise ValueError("execution_temperature must be >= 0")


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

    # -- backend plumbing -------------------------------------------------

    def _generate(
        self, prompt_text: str, *, temperature: float, sample_count: int,
        purpose: str, subtask_id: str,
    ) -> list[str]:
        request = GenerationRequest(
            prompt_text=prompt_text,
            temperature=temperature,
            sample_count=sample_count,
            max_tokens=self.settings.max_tokens,
        )
        outputs = self.generator.generate(request)
        self.trace.emit(
            "generation",
            {
                "subtask_id": subtask_id,
                "purpose": purpose,
                "fingerprint": prompt_fingerprint(prompt_text),
                "temperature": temperature,
                "sample_count": sample_count,
                "outputs": outputs,
            },
        )
        return outputs

    def _ask_json(
        self, prompt_text: str, *, temperature: float, purpose: str, subtask_id: str
    ) -> dict | None:
        """One agent call parsed as JSON, re-asked with the identical prompt up
        to the budget; None when the budget is spent."""
        for _ in range(self.settings.reask_budget + 1):
            try:
                outputs = self._generate(
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
                return ap.extract_json(outputs[0])
            except ValueError:
                self.trace.warning("unparseable-agent-response", purpose=purpose,
                                   subtask_id=subtask_id, response=outputs[0][:200])
        return None

    # -- planning ----------------------------------------------------------

    def select_interaction_template(self, task: str) -> str:
        response = self._ask_json(
            ap.classifier_prompt(task), temperature=0.0,
            purpose="template-selection", subtask_id="__plan__",
        )
        name = (response or {}).get("template")
        if name in ap.TEMPLATES:
            return name
        self.trace.warning("template-fallback", proposed=name,
                           fallback=ap.DEFAULT_TEMPLATE)
        return ap.DEFAULT_TEMPLATE

    def _parse_plan(self, response: dict, task: str, template: str, created_from: str) -> Plan:
        entries = response["subtasks"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("plan must list at least one subtask")
        subtasks = []
        defaulted = []
        for entry in entries:
            if "io_spec" in entry:
                io_spec = IoSpec.from_json_dict(entry["io_spec"])
            else:
                io_spec = IoSpec()
                defaulted.append(entry["id"])
            subtasks.append(
                Subtask(
                    id=entry["id"],
                    description=entry["description"],
                    dependencies=frozenset(entry.get("dependencies", ())),
                    io_spec=io_spec,
                )
            )
        plan = Plan(
            task_description=task,
            subtasks=tuple(subtasks),
            interaction_template=template,
            created_from=created_from,
        )
        for sid in defaulted:
            self.trace.warning("io-spec-defaulted", subtask_id=sid)
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
        for _ in range(self.settings.reask_budget + 1):
            response = self._ask_json(
                prompt_text, temperature=0.0, purpose="planning", subtask_id="__plan__"
            )
            if response is None:
                break
            try:
                plan = self._parse_plan(response, task, template, created_from)
            except (KeyError, TypeError, ValueError, PlanningFailure) as exc:
                last_problem = str(exc)
                self.trace.warning("invalid-plan", error=last_problem)
                continue
            violations = ap.TEMPLATES[template].violations(plan)
            if violations:
                self.trace.warning("template-violation", template=template,
                                   violations=violations)
            self._emit_plan_event("created", plan=plan)
            return plan
        raise PlanningFailure(f"planner produced no valid plan: {last_problem}")

    # -- granularity optimization -------------------------------------------

    def _semantics_preserved(self, sub_id: str, before: str, after: str) -> bool:
        response = self._ask_json(
            ap.optimizer_check_prompt(sub_id, before, after),
            temperature=0.0, purpose="optimizer-check", subtask_id=sub_id,
        )
        return bool(response and response.get("preserved") is True)

    def _try_split(self, plan: Plan, sub: Subtask, target: float) -> Plan | None:
        response = self._ask_json(
            ap.optimizer_split_prompt(sub, target),
            temperature=0.0, purpose="optimizer-split", subtask_id=sub.id,
        )
        if not response or response.get("action") != "split":
            return None
        entries = response.get("subtasks") or []
        try:
            pieces = [
                Subtask(
                    id=entry.get("id", f"{sub.id}.{k + 1}"),
                    description=entry["description"],
                    io_spec=sub.io_spec,
                    injected_notes=sub.injected_notes,
                )
                for k, entry in enumerate(entries)
            ]
        except (KeyError, TypeError, ValueError) as exc:
            self.trace.warning("invalid-split", subtask_id=sub.id, error=str(exc))
            return None
        if len(pieces) < 2 or any(p.granularity > 2 * target for p in pieces):
            self.trace.warning("invalid-split", subtask_id=sub.id,
                               error="pieces missing or still too coarse")
            return None
        if not self._semantics_preserved(
            sub.id, sub.description, "\n".join(p.description for p in pieces)
        ):
            self.trace.warning("split-not-preserving", subtask_id=sub.id)
            return None
        # pieces form a chain standing where the original stood
        chained = []
        for k, piece in enumerate(pieces):
            deps = sub.dependencies if k == 0 else frozenset({pieces[k - 1].id})
            chained.append(dataclasses.replace(piece, dependencies=deps))
        last_id = chained[-1].id
        rewired = []
        for other in plan.subtasks:
            if other.id == sub.id:
                rewired.extend(chained)
            elif sub.id in other.dependencies:
                deps = (other.dependencies - {sub.id}) | {last_id}
                rewired.append(dataclasses.replace(other, dependencies=deps))
            else:
                rewired.append(other)
        return dataclasses.replace(plan, subtasks=tuple(rewired))

    def _try_merge(self, plan: Plan, a: Subtask, b: Subtask, target: float) -> Plan | None:
        response = self._ask_json(
            ap.optimizer_merge_prompt(a, b, target),
            temperature=0.0, purpose="optimizer-merge", subtask_id=a.id,
        )
        if not response or response.get("action") != "merge":
            return None
        description = str(response.get("description", "")).strip()
        if not description:
            self.trace.warning("invalid-merge", subtask_id=a.id, error="empty description")
            return None
        if not self._semantics_preserved(
            a.id, f"{a.description}\n{b.description}", description
        ):
            self.trace.warning("merge-not-preserving", subtask_id=a.id)
            return None
        merged = Subtask(
            id=f"{a.id}+{b.id}",
            description=description,
            dependencies=a.dependencies,
            io_spec=b.io_spec,
            injected_notes=a.injected_notes + b.injected_notes,
        )
        rewired = []
        for other in plan.subtasks:
            if other.id == a.id:
                rewired.append(merged)
            elif other.id == b.id:
                continue
            elif b.id in other.dependencies or a.id in other.dependencies:
                deps = (other.dependencies - {a.id, b.id}) | {merged.id}
                rewired.append(dataclasses.replace(other, dependencies=deps))
            else:
                rewired.append(other)
        return dataclasses.replace(plan, subtasks=tuple(rewired))

    def optimize_subtasks(self, plan: Plan, target_granularity: float | None = None) -> Plan:
        """Bring every subtask's granularity into [target/2, 2*target] by
        scripted splits and merges; anything still outside the band is flagged
        and left as-is. Only valid before execution starts."""
        target = target_granularity or self.settings.target_granularity
        if any(s.status is not SubtaskStatus.PENDING for s in plan.subtasks):
            raise StateError("optimize_subtasks requires an unexecuted plan")
        for sub in list(plan.subtasks):
            if sub.granularity > 2 * target:
                split = self._try_split(plan, plan.subtask(sub.id), target)
                if split is not None:
                    plan = split
        while True:
            for a in plan.subtasks:
                if a.granularity >= target / 2:
                    continue
                dependents = plan.dependents(a.id)
                if len(dependents) != 1:
                    continue
                b = dependents[0]
                if b.granularity >= target / 2 or b.dependencies != frozenset({a.id}):
                    continue
                merged = self._try_merge(plan, a, b, target)
                if merged is not None:
                    plan = merged
                    break
            else:
                break
        for sub in plan.subtasks:
            if not (target / 2 <= sub.granularity <= 2 * target):
                self.trace.warning("unoptimizable-granularity", subtask_id=sub.id,
                                   granularity=sub.granularity, target=target)
        self._emit_plan_event("optimized", plan=plan)
        return plan

    # -- stability and refinement ---------------------------------------------

    def _measure(
        self, p: ModularPrompt, cfg: RefinementConfig, subtask_id: str
    ) -> tuple[StabilityScore, list[str]]:
        rendered = render_prompt(p)
        outputs = self._generate(
            rendered,
            temperature=cfg.stability_temperature,
            sample_count=cfg.sample_count,
            purpose="stability",
            subtask_id=subtask_id,
        )
        if cfg.metric == SEMANTIC:
            vectors = self.embedder.embed(outputs)
            self.trace.emit(
                "embedding",
                {"subtask_id": subtask_id, "purpose": "stability",
                 "count": len(vectors), "dim": vectors[0].dim},
            )
            score = semantic_stability(vectors)
        else:
            score = kl_stability_score(outputs, alpha=cfg.kl_alpha)
        self.trace.emit(
            "score",
            {
                "subtask_id": subtask_id,
                "metric": cfg.metric,
                "value": score.value,
                "sample_count": score.sample_count,
                "pair_distances": [[i, j, d] for i, j, d in score.pair_distances],
            },
        )
        return score, outputs

    def evaluate_prompt_stability(
        self, p: ModularPrompt, cfg: RefinementConfig | None = None,
        subtask_id: str = "adhoc",
    ) -> StabilityScore:
        """N samples of the rendered prompt, embedded and scored. The samples
        come back from one generate() call, so concurrency in the backend
        cannot reorder them."""
        score, _ = self._measure(p, cfg or self.settings.refinement, subtask_id)
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
        self, p: ModularPrompt, score: StabilityScore, samples: list[str],
        cfg: RefinementConfig, subtask_id: str,
    ) -> tuple[ModularPrompt, PromptComponentKind] | None:
        """One reviewer cycle: name a component, apply its replacement.
        None when the reviewer never produced a usable revision."""
        prompt_text = ap.reviewer_stability_prompt(subtask_id, p, score, samples)
        for _ in range(self.settings.reask_budget + 1):
            response = self._ask_json(
                prompt_text, temperature=cfg.reviewer_temperature,
                purpose="review", subtask_id=subtask_id,
            )
            if response is None:
                return None
            kind = self._pick_component(response.get("component"))
            replacement = response.get("replacement")
            if kind is None or not isinstance(replacement, str):
                self.trace.warning("invalid-review", subtask_id=subtask_id,
                                   component=response.get("component"))
                continue
            try:
                return replace_component(p, kind, replacement), kind
            except ValueError as exc:
                self.trace.warning("invalid-review", subtask_id=subtask_id, error=str(exc))
        return None

    def refine_until_stable(
        self, p: ModularPrompt, cfg: RefinementConfig | None = None,
        subtask_id: str = "adhoc",
    ) -> tuple[ModularPrompt, RefinementHistory]:
        """Evaluate-and-revise until the stability gate passes or the
        iteration budget runs out; returns the best-scoring revision seen.
        Raises ReviewFailure (carrying best prompt and history) when the
        reviewer never names a usable component."""
        cfg = cfg or self.settings.refinement
        current, (score, samples) = p, self._measure(p, cfg, subtask_id)
        best_prompt, best_value = current, score.value
        steps: list[RefinementStep] = []
        if score.value >= cfg.tau:
            return current, RefinementHistory((), STABILIZED, score, cfg.tau)
        if not self.settings.reviewer_enabled:
            self.trace.warning("reviewer-disabled", subtask_id=subtask_id,
                               value=score.value)
            return current, RefinementHistory((), EXHAUSTED, score, cfg.tau)
        for _ in range(cfg.max_iterations):
            revised = self._reviewer_revision(current, score, samples, cfg, subtask_id)
            if revised is None:
                history = RefinementHistory(tuple(steps), EXHAUSTED, score, cfg.tau)
                raise ReviewFailure(
                    f"reviewer produced no usable revision for {subtask_id!r}",
                    best_prompt=best_prompt, history=history,
                )
            revised_prompt, kind = revised
            self.trace.emit(
                "revision",
                {"subtask_id": subtask_id, "component": kind.value,
                 "revision": revised_prompt.revision,
                 "prompt_after": revised_prompt.to_json_dict()},
            )
            new_score, samples = self._measure(revised_prompt, cfg, subtask_id)
            steps.append(
                RefinementStep(revised_prompt.revision, kind.value, score, new_score)
            )
            current, score = revised_prompt, new_score
            if score.value > best_value:
                best_prompt, best_value = current, score.value
            if score.value >= cfg.tau:
                return current, RefinementHistory(tuple(steps), STABILIZED, score, cfg.tau)
        return best_prompt, RefinementHistory(tuple(steps), EXHAUSTED, score, cfg.tau)

    # -- execution --------------------------------------------------------------

    def execute_subtask(self, sub: Subtask, p: ModularPrompt) -> ExecutionResult:
        if sub.status is not SubtaskStatus.STABLE_PROMPT_READY:
            raise StateError(
                f"subtask {sub.id!r} must be stable-prompt-ready, is {sub.status.value}"
            )
        try:
            outputs = self._generate(
                render_prompt(p),
                temperature=self.settings.execution_temperature,
                sample_count=1,
                purpose="execution",
                subtask_id=sub.id,
            )
        except TransportError as exc:
            self.trace.warning("transport-failure", subtask_id=sub.id, error=str(exc))
            return ExecutionResult(
                sub.id, SubtaskStatus.EXECUTED_FAILED, "", None, cause="transport"
            )
        output = outputs[0]
        validation = validate_output(output, sub.io_spec)
        if validation.ok:
            return ExecutionResult(sub.id, SubtaskStatus.EXECUTED_OK, output, validation)
        return ExecutionResult(
            sub.id, SubtaskStatus.EXECUTED_FAILED, output, validation, cause="format"
        )

    def augment_requirements(
        self, p: ModularPrompt, failure: ExecutionResult
    ) -> ModularPrompt:
        """Append one reviewer-derived requirement clause; on any reviewer
        problem the prompt comes back unchanged with a warning recorded."""
        if failure.ok:
            raise StateError("augment_requirements needs a failed result")
        reason = failure.validation.reason if failure.validation else failure.cause
        response = self._ask_json(
            ap.reviewer_failure_prompt(failure.subtask_id, p, reason or "", failure.output),
            temperature=self.settings.refinement.reviewer_temperature,
            purpose="augmentation", subtask_id=failure.subtask_id,
        )
        clause = str((response or {}).get("clause", "")).strip()
        if not clause:
            self.trace.warning("augmentation-rejected", subtask_id=failure.subtask_id)
            return p
        augmented = replace_component(
            p, PromptComponentKind.REQUIREMENTS, p.requirements + (clause,)
        )
        self.trace.emit(
            "augmentation",
            {"subtask_id": failure.subtask_id, "clause": clause,
             "revision": augmented.revision,
             "prompt_after": augmented.to_json_dict()},
        )
        return augmented

    def summarize(self, raw_output: str, plan: Plan, sub: Subtask) -> Summary:
        """Distill a completed subtask's output; short outputs pass through
        verbatim, and so does anything whose summarization fails."""
        if len(raw_output) <= SUMMARY_PASS_THROUGH_LIMIT:
            return Summary(sub.id, raw_output)
        response = self._ask_json(
            ap.summarizer_prompt(plan, sub, raw_output),
            temperature=0.0, purpose="summarize", subtask_id=sub.id,
        )
        text = str((response or {}).get("summary", "")).strip()
        if not text or len(text) >= len(raw_output):
            self.trace.warning("summary-fallback", subtask_id=sub.id)
            return Summary(sub.id, raw_output)
        keys = tuple(str(k) for k in (response or {}).get("preserved_keys", ()))
        return Summary(sub.id, text, preserved_keys=keys)

    def generate_domain_knowledge(self, sub: Subtask) -> str:
        try:
            outputs = self._generate(
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

    def apply_plan_update(self, plan: Plan, update: PlanUpdate) -> Plan:
        """Validate, apply and record one update. Raises StateError when the
        update violates plan invariants (wrong source status, executed
        targets); nothing is recorded then."""
        updated = with_update(plan, update)
        self._emit_plan_event(update.kind, update=update)
        if update.kind == STRATEGY_SHIFT:
            updated = self._apply_status(
                updated, update.source_subtask, SubtaskStatus.REFORMULATED
            )
        return updated

    def _emit_plan_event(
        self, note: str, *, plan: Plan | None = None, update: PlanUpdate | None = None
    ) -> None:
        """A plan-update event. A new plan structure ('created', 'optimized')
        is recorded as a full plan_after snapshot; a feedback step records
        only its update, which replay applies to the current plan."""
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
        source = plan.subtask(result.subtask_id)
        no_op = PlanUpdate(source.id, NO_OP, (), "")
        if result.ok:
            pending = [
                s.id for s in plan.dependents(source.id)
                if s.status is SubtaskStatus.PENDING
            ]
            if not pending:
                self._emit_plan_event("no-pending-dependents", update=no_op)
                return plan, no_op
            response = self._ask_json(
                ap.plan_update_success_prompt(plan, source, summary_text),
                temperature=0.0, purpose="plan-update", subtask_id=source.id,
            )
            payload = str((response or {}).get("payload", "")).strip()
            if not payload:
                self._emit_plan_event("updater-failed", update=no_op)
                return plan, no_op
            targets = tuple(str(t) for t in (response or {}).get("targets", ())) or tuple(pending)
            update = PlanUpdate(source.id, PROPAGATE_SUCCESS, targets, payload)
        else:
            response = self._ask_json(
                ap.plan_update_failure_prompt(
                    plan, source,
                    (result.validation.reason if result.validation else result.cause) or "",
                    result.output,
                ),
                temperature=0.0, purpose="plan-update", subtask_id=source.id,
            )
            description = str((response or {}).get("description", "")).strip()
            if not description:
                self._emit_plan_event("updater-failed", update=no_op)
                return plan, no_op
            update = PlanUpdate(source.id, STRATEGY_SHIFT, (source.id,), description)
        try:
            return self.apply_plan_update(plan, update), update
        except (StateError, KeyError) as exc:
            self.trace.warning("invariant-violation", subtask_id=source.id,
                               update=update.to_json_dict(), error=str(exc))
            self._emit_plan_event("update-rejected", update=no_op)
            return plan, no_op

    # -- pipeline ------------------------------------------------------------------

    def _apply_status(self, plan: Plan, subtask_id: str, status: SubtaskStatus) -> Plan:
        before = plan.subtask(subtask_id).status
        plan = with_status(plan, subtask_id, status)
        self.trace.emit(
            "status-change",
            {"subtask_id": subtask_id, "from": before.value, "to": status.value},
        )
        return plan

    def build_subtask_prompt(self, plan: Plan, sub: Subtask, context: ContextStore) -> ModularPrompt:
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
            history=context.history_for(sub, plan),
            io_spec=sub.io_spec,
        )
        self.trace.emit(
            "revision",
            {"subtask_id": sub.id, "component": "initial", "revision": 0,
             "prompt_after": prompt.to_json_dict()},
        )
        return prompt

    def _refine_for_subtask(
        self, plan: Plan, sub: Subtask, context: ContextStore
    ) -> ModularPrompt:
        prompt = self.build_subtask_prompt(plan, sub, context)
        try:
            prompt, history = self.refine_until_stable(prompt, subtask_id=sub.id)
        except ReviewFailure as exc:
            self.trace.warning("review-failure", subtask_id=sub.id, error=str(exc))
            return exc.best_prompt
        if history.outcome == EXHAUSTED:
            # gate soundness: executing below tau is always visible in the trace
            self.trace.warning("gate-exhausted", subtask_id=sub.id,
                               best_score=history.best_score)
        return prompt

    def _execute_with_augmentation(
        self, plan: Plan, subtask_id: str, context: ContextStore
    ) -> tuple[Plan, ExecutionResult]:
        sub = plan.subtask(subtask_id)
        prompt = self._refine_for_subtask(plan, sub, context)
        plan = self._apply_status(plan, subtask_id, SubtaskStatus.STABLE_PROMPT_READY)
        result = self.execute_subtask(plan.subtask(subtask_id), prompt)
        retries = 0
        while (
            not result.ok
            and result.cause == "format"
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

    def _after_success(
        self, plan: Plan, result: ExecutionResult, context: ContextStore
    ) -> Plan:
        sub = plan.subtask(result.subtask_id)
        summary = self.summarize(result.output, plan, sub)
        context.add(summary)
        if self.settings.plan_updater_enabled:
            plan, _ = self.update_plan(plan, result, summary.structured_text)
        return plan

    def run_pipeline(self, task: str, template: str | None = None) -> ExecutionTrace:
        """The full loop: plan, optimize, then per subtask refine-execute-
        summarize with feedback plan updates; failed subtasks get one
        strategy-shift retry when the plan updater is enabled."""
        self.trace.emit(
            "status-change", {"subtask_id": "__run__", "from": None, "to": "running"}
        )
        try:
            plan = self.decompose_task(task, template)
        except PlanningFailure as exc:
            self.trace.warning("planning-failure", error=str(exc))
            self.trace.emit(
                "status-change",
                {"subtask_id": "__run__", "from": "running", "to": "failed",
                 "final_output": ""},
            )
            return self.trace.trace()
        if self.settings.subtask_optimizer_enabled:
            plan = self.optimize_subtasks(plan)
        context = ContextStore()
        outputs: dict[str, str] = {}
        for subtask_id in [s.id for s in plan.subtasks]:
            sub = plan.subtask(subtask_id)
            if sub.status is not SubtaskStatus.PENDING:
                continue
            blocked = [
                dep for dep in sub.dependencies
                if plan.subtask(dep).status is not SubtaskStatus.EXECUTED_OK
            ]
            if blocked:
                self.trace.warning("blocked", subtask_id=subtask_id,
                                   unmet=sorted(blocked))
                continue
            plan, result = self._execute_with_augmentation(plan, subtask_id, context)
            if not result.ok and self.settings.plan_updater_enabled:
                plan, update = self.update_plan(plan, result)
                if update.kind == STRATEGY_SHIFT:
                    plan, result = self._execute_with_augmentation(plan, subtask_id, context)
            if result.ok:
                outputs[subtask_id] = result.output
                plan = self._after_success(plan, result, context)
        succeeded = all(s.status is SubtaskStatus.EXECUTED_OK for s in plan.subtasks)
        final_output = outputs.get(plan.subtasks[-1].id, "")
        self.trace.emit(
            "status-change",
            {"subtask_id": "__run__", "from": "running",
             "to": "succeeded" if succeeded else "failed",
             "final_output": final_output},
        )
        return self.trace.trace()

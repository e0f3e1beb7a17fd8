"""Task plans: subtasks with dependencies, granularity, and a status machine.

A Plan is immutable; every mutation helper returns a new Plan. Construction
re-sorts subtasks into a deterministic topological order (original order
breaks ties), so two plans with the same subtasks serialize identically.
Replacing a subtask without touching its dependencies keeps that order, so
status, note and description changes skip the re-sort.
"""

from __future__ import annotations

import copy
import enum
import heapq
import re
from dataclasses import dataclass, field, replace

from .errors import PlanningFailure, StateError
from .prompt import IoSpec


PROPAGATE_SUCCESS = "propagate-success"
STRATEGY_SHIFT = "strategy-shift"
NO_OP = "no-op"


class SubtaskStatus(str, enum.Enum):
    PENDING = "pending"
    STABLE_PROMPT_READY = "stable-prompt-ready"
    EXECUTED_OK = "executed-ok"
    EXECUTED_FAILED = "executed-failed"
    REFORMULATED = "reformulated"


# reformulated may re-enter stable-prompt-ready: a rewritten subtask gets one
# fresh refinement pass.
_TRANSITIONS: dict[SubtaskStatus, frozenset[SubtaskStatus]] = {
    SubtaskStatus.PENDING: frozenset({SubtaskStatus.STABLE_PROMPT_READY}),
    SubtaskStatus.STABLE_PROMPT_READY: frozenset(
        {SubtaskStatus.EXECUTED_OK, SubtaskStatus.EXECUTED_FAILED}
    ),
    SubtaskStatus.EXECUTED_FAILED: frozenset({SubtaskStatus.REFORMULATED}),
    SubtaskStatus.REFORMULATED: frozenset({SubtaskStatus.STABLE_PROMPT_READY}),
    SubtaskStatus.EXECUTED_OK: frozenset(),
}


_CLAUSE_SPLIT = re.compile(r"[.;!?\n]+|\bthen\b", re.IGNORECASE)


def estimate_granularity(description: str) -> int:
    """Proxy for how much work a description packs: the number of clause
    segments, splitting on sentence punctuation and the connective 'then'."""
    segments = [s for s in _CLAUSE_SPLIT.split(description) if s.strip()]
    return max(1, len(segments))


@dataclass(frozen=True)
class Subtask:
    id: str
    description: str
    dependencies: frozenset[str] = frozenset()
    granularity: float | None = None
    io_spec: IoSpec = field(default_factory=IoSpec)
    status: SubtaskStatus = SubtaskStatus.PENDING
    injected_notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id or not self.id.strip():
            raise ValueError("subtask id must be non-empty")
        if not self.description.strip():
            raise ValueError(f"subtask {self.id!r} has an empty description")
        object.__setattr__(self, "dependencies", frozenset(self.dependencies))
        object.__setattr__(self, "status", SubtaskStatus(self.status))
        object.__setattr__(self, "injected_notes", tuple(self.injected_notes))
        if self.granularity is None:
            object.__setattr__(self, "granularity", estimate_granularity(self.description))
        elif self.granularity <= 0:
            raise ValueError("granularity must be positive")

    def with_status(self, status: SubtaskStatus) -> "Subtask":
        status = SubtaskStatus(status)
        if status not in _TRANSITIONS[self.status]:
            raise StateError(
                f"subtask {self.id!r}: illegal transition "
                f"{self.status.value} -> {status.value}"
            )
        return replace(self, status=status)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "dependencies": sorted(self.dependencies),
            "granularity": self.granularity,
            "io_spec": self.io_spec.to_json_dict(),
            "status": self.status.value,
            "injected_notes": list(self.injected_notes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Subtask":
        return cls(
            id=data["id"],
            description=data["description"],
            dependencies=frozenset(data.get("dependencies", ())),
            granularity=data.get("granularity"),
            io_spec=IoSpec.from_json_dict(data.get("io_spec", {})),
            status=SubtaskStatus(data.get("status", "pending")),
            injected_notes=tuple(data.get("injected_notes", ())),
        )


def _topological(subtasks: tuple[Subtask, ...]) -> tuple[Subtask, ...]:
    index = {s.id: i for i, s in enumerate(subtasks)}
    if len(index) != len(subtasks):
        seen = set()
        dup = next(s.id for s in subtasks if s.id in seen or seen.add(s.id))
        raise ValueError(f"duplicate subtask id: {dup!r}")
    for s in subtasks:
        unknown = [dep for dep in s.dependencies if dep not in index]
        if unknown:
            raise ValueError(
                f"subtask {s.id!r} depends on unknown ids: {sorted(unknown)}"
            )
    # Kahn's algorithm; the heap of original positions makes ties resolve to
    # the order the planner produced.
    indegree = {s.id: len(s.dependencies) for s in subtasks}
    dependents: dict[str, list[str]] = {s.id: [] for s in subtasks}
    for s in subtasks:
        for dep in s.dependencies:
            dependents[dep].append(s.id)
    ready = [index[sid] for sid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    ordered: list[Subtask] = []
    while ready:
        pos = heapq.heappop(ready)
        current = subtasks[pos]
        ordered.append(current)
        for child in dependents[current.id]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, index[child])
    if len(ordered) != len(subtasks):
        stuck = sorted(sid for sid, deg in indegree.items() if deg > 0)
        raise PlanningFailure(f"dependency cycle among subtasks: {stuck}")
    return tuple(ordered)


@dataclass(frozen=True)
class Plan:
    task_description: str
    subtasks: tuple[Subtask, ...]
    interaction_template: str = "linear-chain"
    created_from: str = ""
    # subtask id -> position in subtasks
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subtasks = _topological(tuple(self.subtasks))
        object.__setattr__(self, "subtasks", subtasks)
        object.__setattr__(self, "_index", {s.id: i for i, s in enumerate(subtasks)})

    def subtask(self, subtask_id: str) -> Subtask:
        return self.subtasks[self._index[subtask_id]]

    def dependents(self, subtask_id: str) -> tuple[Subtask, ...]:
        self.subtask(subtask_id)
        return tuple(s for s in self.subtasks if subtask_id in s.dependencies)

    def transitive_dependents(self, subtask_id: str) -> tuple[Subtask, ...]:
        reached = {subtask_id}
        # subtasks are topologically ordered, so one forward pass suffices
        out = []
        for s in self.subtasks:
            if s.id != subtask_id and s.dependencies & reached:
                reached.add(s.id)
                out.append(s)
        return tuple(out)

    def ready_subtasks(self) -> tuple[Subtask, ...]:
        done = {s.id for s in self.subtasks if s.status is SubtaskStatus.EXECUTED_OK}
        return tuple(
            s
            for s in self.subtasks
            if s.status is SubtaskStatus.PENDING and s.dependencies <= done
        )

    def to_json_dict(self) -> dict:
        return {
            "task_description": self.task_description,
            "interaction_template": self.interaction_template,
            "created_from": self.created_from,
            "subtasks": [s.to_json_dict() for s in self.subtasks],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Plan":
        return cls(
            task_description=data["task_description"],
            subtasks=tuple(Subtask.from_json_dict(s) for s in data.get("subtasks", ())),
            interaction_template=data.get("interaction_template", "linear-chain"),
            created_from=data.get("created_from", ""),
        )


def with_subtask(plan: Plan, new_subtask: Subtask) -> Plan:
    """Replace the subtask with the same id. The plan is re-sorted and
    re-validated only when the dependency set changes; otherwise the order
    and validity of the old plan carry over."""
    pos = plan._index[new_subtask.id]
    updated = plan.subtasks[:pos] + (new_subtask,) + plan.subtasks[pos + 1:]
    if new_subtask.dependencies != plan.subtasks[pos].dependencies:
        return replace(plan, subtasks=updated)
    clone = copy.copy(plan)
    object.__setattr__(clone, "subtasks", updated)
    return clone


def with_status(plan: Plan, subtask_id: str, status: SubtaskStatus) -> Plan:
    return with_subtask(plan, plan.subtask(subtask_id).with_status(status))


@dataclass(frozen=True)
class PlanUpdate:
    """One feedback step: inject a success payload into pending subtasks,
    rewrite a failed subtask, or change nothing."""

    source_subtask: str
    kind: str
    targets: tuple[str, ...]
    payload: str

    def __post_init__(self):
        if self.kind not in (PROPAGATE_SUCCESS, STRATEGY_SHIFT, NO_OP):
            raise ValueError(f"unknown update kind: {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))

    def to_json_dict(self) -> dict:
        return {
            "source_subtask": self.source_subtask,
            "kind": self.kind,
            "targets": list(self.targets),
            "payload": self.payload,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlanUpdate":
        return cls(
            source_subtask=data["source_subtask"],
            kind=data["kind"],
            targets=data["targets"],
            payload=data["payload"],
        )


def with_update(plan: Plan, update: PlanUpdate) -> Plan:
    """Apply one update. Raises StateError when the update violates plan
    invariants (wrong source status, already-processed targets) and KeyError
    when it names an unknown subtask. A strategy shift rewrites the failed
    subtask's description only; its move to reformulated is a separate
    status change."""
    source = plan.subtask(update.source_subtask)
    if update.kind == NO_OP:
        return plan
    if update.kind == PROPAGATE_SUCCESS:
        if source.status is not SubtaskStatus.EXECUTED_OK:
            raise StateError("propagate-success requires an executed-ok source")
        for target_id in update.targets:
            if plan.subtask(target_id).status is not SubtaskStatus.PENDING:
                raise StateError(
                    f"update targets already-processed subtask {target_id!r}"
                )
        for target_id in update.targets:
            target = plan.subtask(target_id)
            plan = with_subtask(
                plan, replace(target, injected_notes=target.injected_notes + (update.payload,))
            )
        return plan
    if source.status is not SubtaskStatus.EXECUTED_FAILED:
        raise StateError("strategy-shift requires an executed-failed source")
    if update.targets != (source.id,):
        raise StateError("strategy-shift must target exactly the failed subtask")
    return with_subtask(
        plan,
        Subtask(
            id=source.id,
            description=update.payload,
            dependencies=source.dependencies,
            io_spec=source.io_spec,
            status=source.status,
            injected_notes=source.injected_notes,
        ),
    )

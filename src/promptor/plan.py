"""Task plans: subtasks with dependencies, granularity, and a status machine.

A Plan is immutable; every mutation helper returns a new Plan. Construction
re-sorts subtasks into a deterministic topological order (original order
breaks ties), so two plans with the same subtasks serialize identically.
Replacing a subtask without touching its dependencies keeps that order and
the id and dependents indexes, so status, note and description changes skip
the re-sort.

Subtasks, plans and plan updates are read from JSON (planner replies, trace
records) by prompt._read_record, as strictly as prompt files: a string where
a list belongs is a ValueError, never read as its characters. They are
written by prompt._write_record, by the same field table.
"""

from __future__ import annotations

import copy
import enum
import heapq
import math
import re
from dataclasses import dataclass, field, replace

from .errors import PlanningFailure, StateError
from .prompt import IoSpec, _JsonRecord


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
class Subtask(_JsonRecord):
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
        elif not 0 < self.granularity < math.inf:
            raise ValueError("granularity must be positive and finite")

    def with_status(self, status: SubtaskStatus) -> "Subtask":
        status = SubtaskStatus(status)
        if status not in _TRANSITIONS[self.status]:
            raise StateError(
                f"subtask {self.id!r}: illegal transition "
                f"{self.status.value} -> {status.value}"
            )
        return replace(self, status=status)


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
class Plan(_JsonRecord):
    task_description: str
    subtasks: tuple[Subtask, ...]
    interaction_template: str = "linear-chain"
    created_from: str = ""
    # subtask id -> position in subtasks
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    # subtask id -> ids of its direct dependents, in plan order
    _dependents: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subtasks = _topological(tuple(self.subtasks))
        index: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for pos, s in enumerate(subtasks):
            index[s.id] = pos
            dependents[s.id] = []
            # topological order: every dependency already has its entry
            for dep in s.dependencies:
                dependents[dep].append(s.id)
        object.__setattr__(self, "subtasks", subtasks)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_dependents", dependents)

    def subtask(self, subtask_id: str) -> Subtask:
        return self.subtasks[self._index[subtask_id]]

    def position(self, subtask_id: str) -> int:
        return self._index[subtask_id]

    def dependents(self, subtask_id: str) -> tuple[Subtask, ...]:
        return tuple(self.subtask(sid) for sid in self._dependents[subtask_id])


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
class PlanUpdate(_JsonRecord):
    """One feedback step: inject a success payload into pending dependents
    of the source, rewrite the failed source, or change nothing.

    with_update checks only what replaying a trace needs; the rule that a
    success payload targets dependents of its source is the orchestrator's
    (Orchestrator._apply_update), so traces written before it replay."""

    source_subtask: str
    kind: str
    targets: tuple[str, ...]
    payload: str

    def __post_init__(self):
        if self.kind not in (PROPAGATE_SUCCESS, STRATEGY_SHIFT, NO_OP):
            raise ValueError(f"unknown update kind: {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))


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
    # granularity None: the new description's is estimated afresh
    return with_subtask(plan, replace(source, description=update.payload, granularity=None))

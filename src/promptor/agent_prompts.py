"""Prompt builders for the internal agents (planner, reviewer, summarizer,
plan updater, optimizer, classifier) plus interaction templates.

Every builder puts a fixed marker on the first line and, where applicable,
the subtask id on the second, so scripted backends can register prefix rules
that keep matching after the variable sections change.
"""

from __future__ import annotations

import json
from typing import Callable

from .plan import Plan, Subtask
from .prompt import ModularPrompt, render_prompt

PLANNER_MARK = "### Planner"
CLASSIFIER_MARK = "### Template Classifier"
REVIEWER_STABILITY_MARK = "### Reviewer (stability)"
REVIEWER_FAILURE_MARK = "### Reviewer (failure)"
SUMMARIZER_MARK = "### Summarizer"
PLAN_UPDATE_SUCCESS_MARK = "### Plan Updater (success)"
PLAN_UPDATE_FAILURE_MARK = "### Plan Updater (failure)"
KNOWLEDGE_MARK = "### Domain Knowledge"
OPTIMIZER_SPLIT_MARK = "### Subtask Optimizer (split)"
OPTIMIZER_MERGE_MARK = "### Subtask Optimizer (merge)"
OPTIMIZER_CHECK_MARK = "### Subtask Optimizer (check)"


def extract_json(text: str) -> dict:
    """First JSON object embedded anywhere in the text, or ValueError."""
    decoder = json.JSONDecoder()
    for start, char in enumerate(text):
        if char != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, start)
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    raise ValueError("no JSON object found in response")


def planner_prompt(task: str, template: str) -> str:
    return (
        f"{PLANNER_MARK}\n"
        f"Template: {template}\n"
        f"Task: {task}\n\n"
        "Decompose the task into subtasks following the template's interaction "
        "structure. Respond with a JSON object:\n"
        '{"subtasks": [{"id": "...", "description": "...", "dependencies": ["..."], '
        '"io_spec": {"output_format": "free-text|json-object|code-block|numeric", '
        '"required_keys": ["..."], "output_constraint": "..."}}]}'
    )


def classifier_prompt(task: str) -> str:
    names = ", ".join(sorted(TEMPLATES))
    return (
        f"{CLASSIFIER_MARK}\n"
        f"Task: {task}\n\n"
        f"Pick the best interaction template among: {names}. "
        'Respond with {"template": "..."}.'
    )


def reviewer_stability_prompt(
    subtask_id: str, p: ModularPrompt, value: float, outputs: list[str],
    sample_index: list[int], distances: list[float],
) -> str:
    """The reviewer's view of one measure: each distinct output once, in
    first-seen order, with the samples that gave it (sample s gave output
    sample_index[s]) and its mean distance to the other samples."""
    positions: list[list[str]] = [[] for _ in outputs]
    for sample, k in enumerate(sample_index):
        positions[k].append(str(sample))
    listed = "\n\n".join(
        f"[output {k}: samples {', '.join(at)} ({len(at)} of {len(sample_index)}),"
        f" mean distance {d:.6f}]\n{text}"
        for k, (text, at, d) in enumerate(zip(outputs, positions, distances))
    )
    farthest = max(range(len(outputs)), key=distances.__getitem__)
    return (
        f"{REVIEWER_STABILITY_MARK}\n"
        f"Subtask: {subtask_id}\n"
        f"Stability: {value:.6f} over {len(sample_index)} samples\n\n"
        f"Current prompt:\n{render_prompt(p)}\n\n"
        f"Distinct outputs:\n{listed}\n\n"
        f"Farthest from the rest: output {farthest}\n\n"
        "The outputs diverge. Name the one prompt component responsible and give "
        "its full replacement. Respond with "
        '{"component": "role|requirements|knowledge|history", "replacement": "..."}. '
        "For requirements, the replacement is the complete clause list, one per line."
    )


def reviewer_failure_prompt(subtask_id: str, p: ModularPrompt, reason: str, output: str) -> str:
    return (
        f"{REVIEWER_FAILURE_MARK}\n"
        f"Subtask: {subtask_id}\n"
        f"Failure reason: {reason}\n\n"
        f"Current prompt:\n{render_prompt(p)}\n\n"
        f"Rejected output:\n{output}\n\n"
        "Write one new requirement clause that prevents this failure. "
        'Respond with {"clause": "..."}.'
    )


def summarizer_prompt(plan: Plan, sub: Subtask, raw_output: str) -> str:
    return (
        f"{SUMMARIZER_MARK}\n"
        f"Subtask: {sub.id}\n"
        f"Task: {plan.task_description}\n\n"
        f"Raw output:\n{raw_output}\n\n"
        "Distill the raw output into a structured summary that downstream "
        "subtasks can consume, preserving identifiers, schemas, and numeric "
        'results. Respond with {"summary": "...", "preserved_keys": ["..."]}.'
    )


def plan_update_success_prompt(plan: Plan, sub: Subtask, summary_text: str) -> str:
    pending = ", ".join(s.id for s in plan.dependents(sub.id)) or "(none)"
    return (
        f"{PLAN_UPDATE_SUCCESS_MARK}\n"
        f"Subtask: {sub.id}\n"
        f"Task: {plan.task_description}\n"
        f"Dependents: {pending}\n\n"
        f"Completed subtask summary:\n{summary_text}\n\n"
        "State the structural patterns, technical details, or constraints that "
        "dependent subtasks must honor. Respond with "
        '{"payload": "...", "targets": ["subtask-id", "..."]} '
        "(omit targets to address every pending dependent)."
    )


def plan_update_failure_prompt(plan: Plan, sub: Subtask, reason: str, output: str) -> str:
    return (
        f"{PLAN_UPDATE_FAILURE_MARK}\n"
        f"Subtask: {sub.id}\n"
        f"Task: {plan.task_description}\n"
        f"Failure reason: {reason}\n\n"
        f"Failed subtask description:\n{sub.description}\n\n"
        f"Last output:\n{output}\n\n"
        "The subtask failed after requirement augmentation. Reformulate it with "
        "a different strategy. Respond with "
        '{"description": "...", "payload": "..."} where payload is optional '
        "guidance for the retry."
    )


def knowledge_prompt(sub: Subtask) -> str:
    return (
        f"{KNOWLEDGE_MARK}\n"
        f"Subtask: {sub.id}\n\n"
        f"Subtask description:\n{sub.description}\n\n"
        "Recall the domain facts an executor needs for this subtask. "
        "Respond with plain text."
    )


def optimizer_split_prompt(sub: Subtask, target: float) -> str:
    return (
        f"{OPTIMIZER_SPLIT_MARK}\n"
        f"Subtask: {sub.id}\n"
        f"Granularity: {sub.granularity} (target {target})\n\n"
        f"Description:\n{sub.description}\n\n"
        "The subtask is too coarse. Split it into sequential pieces near the "
        "target granularity. Respond with "
        '{"action": "split", "subtasks": [{"id": "...", "description": "..."}]} '
        'or {"action": "keep"}.'
    )


def optimizer_merge_prompt(a: Subtask, b: Subtask, target: float) -> str:
    return (
        f"{OPTIMIZER_MERGE_MARK}\n"
        f"Subtasks: {a.id}, {b.id}\n"
        f"Granularities: {a.granularity}, {b.granularity} (target {target})\n\n"
        f"First description:\n{a.description}\n\n"
        f"Second description:\n{b.description}\n\n"
        "Both subtasks are too fine. Merge them into one description covering "
        'both, or keep them. Respond with {"action": "merge", "description": "..."} '
        'or {"action": "keep"}.'
    )


def optimizer_check_prompt(sub_id: str, before: str, after: str) -> str:
    return (
        f"{OPTIMIZER_CHECK_MARK}\n"
        f"Subtask: {sub_id}\n\n"
        f"Original description(s):\n{before}\n\n"
        f"Rewritten description(s):\n{after}\n\n"
        "Do the rewritten descriptions preserve the combined meaning of the "
        'originals? Respond with {"preserved": true} or {"preserved": false}.'
    )


# -- interaction templates -------------------------------------------------------


def _linear_chain_violations(plan: Plan) -> list[str]:
    problems = []
    for i, sub in enumerate(plan.subtasks):
        expected = frozenset() if i == 0 else frozenset({plan.subtasks[i - 1].id})
        if sub.dependencies != expected:
            problems.append(f"{sub.id}: a linear chain must depend on exactly the previous subtask")
    return problems


def _fan_out_fan_in_violations(plan: Plan) -> list[str]:
    if len(plan.subtasks) < 3:
        return ["fan-out/fan-in needs a root, at least one branch, and a sink"]
    # a Plan's subtasks are in topological order, so the root has no dependencies
    root, *middle, sink = plan.subtasks
    problems = []
    for sub in middle:
        if sub.dependencies != frozenset({root.id}):
            problems.append(f"{sub.id}: branches must depend on the root only")
    if sink.dependencies != frozenset(s.id for s in middle):
        problems.append(f"{sink.id}: the sink must depend on every branch")
    return problems


# each interaction template's name and the checker that lists a plan's
# departures from its dependency structure
TEMPLATES: dict[str, Callable[[Plan], list[str]]] = {
    "linear-chain": _linear_chain_violations,
    "fan-out-fan-in": _fan_out_fan_in_violations,
    "review-loop": _linear_chain_violations,
}

DEFAULT_TEMPLATE = "linear-chain"

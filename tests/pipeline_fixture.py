"""Shared scripted fixtures: a three-subtask pipeline whose every backend
interaction is a point mass, plus helpers for building scripted behaviors."""

import json

from promptor import agent_prompts as ap
from promptor.backends import ScriptedBehavior, ScriptedGenerator
from promptor.prompt import IoSpec, ModularPrompt, render_prompt

TASK = "Compute the final balance after the listed transactions."

PIPELINE_SUBTASKS = [
    {"id": "parse", "description": "Parse the transaction list.",
     "dependencies": [], "io_spec": {"output_format": "numeric"}},
    {"id": "net", "description": "Net out the transfers.",
     "dependencies": ["parse"], "io_spec": {"output_format": "numeric"}},
    {"id": "balance", "description": "Report the final balance.",
     "dependencies": ["net"], "io_spec": {"output_format": "numeric"}},
]

NUMERIC_SPEC = IoSpec(output_format="numeric")


def point_mass(prompt_text, output, seed=0):
    return ScriptedBehavior.for_prompt(prompt_text, [(output, 1.0)], seed=seed)


def json_behavior(prompt_text, obj):
    return point_mass(prompt_text, json.dumps(obj))


def prefix_json(mark, second_line, obj):
    """Prefix rule answering every prompt of one agent kind for one subtask."""
    prefix = f"{mark}\n{second_line}\n"
    behavior = ScriptedBehavior(
        prompt_fingerprint=f"prefix:{prefix}", outcomes=((json.dumps(obj), 1.0),)
    )
    return (prefix, behavior)


def executor_prompt(sub_id, description, io_spec=NUMERIC_SPEC, knowledge="", history=""):
    # mirrors Orchestrator.build_subtask_prompt(sub, history) for fixtures
    return ModularPrompt(
        role=f"You are the executor agent for subtask '{sub_id}'.",
        requirements=(f"Complete this subtask: {description}",),
        knowledge=knowledge,
        history=history,
        io_spec=io_spec,
    )


def planner_behavior(subtasks, task=TASK, template="linear-chain"):
    return json_behavior(ap.planner_prompt(task, template), {"subtasks": subtasks})


def pipeline_prompts():
    parse_prompt = executor_prompt("parse", "Parse the transaction list.")
    net_prompt = executor_prompt(
        "net", "Net out the transfers.",
        knowledge="keep totals as integers.", history="- parse: 100",
    )
    balance_prompt = executor_prompt(
        "balance", "Report the final balance.",
        knowledge="carry the net forward.", history="- net: 93",
    )
    return parse_prompt, net_prompt, balance_prompt


def _success_update_rules():
    return [
        prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: parse",
                    {"payload": "keep totals as integers."}),
        prefix_json(ap.PLAN_UPDATE_SUCCESS_MARK, "Subtask: net",
                    {"payload": "carry the net forward."}),
    ]


def pipeline_generator(run_seed=0):
    """Scripted backends for the three-subtask happy path: every executor
    prompt is a point mass, updater payloads flow downstream."""
    parse_prompt, net_prompt, balance_prompt = pipeline_prompts()
    behaviors = [
        planner_behavior(PIPELINE_SUBTASKS),
        point_mass(render_prompt(parse_prompt), "100"),
        point_mass(render_prompt(net_prompt), "93"),
        point_mass(render_prompt(balance_prompt), "87"),
    ]
    return ScriptedGenerator(behaviors=behaviors, prefix_rules=_success_update_rules(),
                             run_seed=run_seed)


# two clauses where the original has one, so the rewrite changes granularity
REFORMULATED_PARSE = "Split the list into lines. Sum the signed amounts."


def strategy_shift_generator():
    """The happy path, except that parse first answers in words: with the
    reviewer off, the plan updater rewrites parse (strategy shift), the
    rewrite succeeds, and success payloads then reach net and balance
    (propagate success)."""
    parse_prompt, net_prompt, balance_prompt = pipeline_prompts()
    behaviors = [
        planner_behavior(PIPELINE_SUBTASKS),
        point_mass(render_prompt(parse_prompt), "one hundred"),
        point_mass(render_prompt(executor_prompt("parse", REFORMULATED_PARSE)), "100"),
        point_mass(render_prompt(net_prompt), "93"),
        point_mass(render_prompt(balance_prompt), "87"),
    ]
    rules = _success_update_rules() + [
        prefix_json(ap.PLAN_UPDATE_FAILURE_MARK, "Subtask: parse",
                    {"description": REFORMULATED_PARSE}),
    ]
    return ScriptedGenerator(behaviors=behaviors, prefix_rules=rules)


def pipeline_config_dict(**overrides):
    """The same happy path expressed as a loadable JSON config."""
    parse_prompt, net_prompt, balance_prompt = pipeline_prompts()
    behaviors = [
        {"prompt": ap.planner_prompt(TASK, "linear-chain"),
         "outcomes": [[json.dumps({"subtasks": PIPELINE_SUBTASKS}), 1.0]]},
        {"prompt": render_prompt(parse_prompt), "outcomes": [["100", 1.0]]},
        {"prompt": render_prompt(net_prompt), "outcomes": [["93", 1.0]]},
        {"prompt": render_prompt(balance_prompt), "outcomes": [["87", 1.0]]},
    ]
    prefix_rules = [
        {"prefix": f"{ap.PLAN_UPDATE_SUCCESS_MARK}\nSubtask: parse\n",
         "outcomes": [[json.dumps({"payload": "keep totals as integers."}), 1.0]]},
        {"prefix": f"{ap.PLAN_UPDATE_SUCCESS_MARK}\nSubtask: net\n",
         "outcomes": [[json.dumps({"payload": "carry the net forward."}), 1.0]]},
    ]
    config = {
        "task": TASK,
        "template": "linear-chain",
        "seed": 0,
        "modules": {"knowledge_generator": False},
        "reference_answer": "87",
        "reference_match": "exact",
        "generator": {"kind": "scripted", "behaviors": behaviors,
                      "prefix_rules": prefix_rules},
        "embedder": {"kind": "hash-embedder"},
    }
    config.update(overrides)
    return config

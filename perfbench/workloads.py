"""Scripted tables for the benchmark workloads, generated from a seed.

A seed changes only the words the scripts use: subtask descriptions, sample
texts and answers. Plan shape, sample counts and gate outcomes are fixed per
workload, so every count the benchmark reports is the same for every seed and
only the bytes of text vary. Every word has the same length, so trace sizes
vary little between seeds either.

The program under test receives only what `build` returns: a task, a
template, module toggles and the ScriptedGenerator tables. The rules are kept
few (under ten per workload) because ScriptedGenerator scans prefix rules
linearly; the stand-in backend should cost little next to the orchestrator.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from promptor import agent_prompts as ap
from promptor.backends import ScriptedBehavior, ScriptedGenerator
from promptor.orchestrator import RefinementConfig

CHAIN_UPDATER = "chain-updater"
REFINE_HEAVY = "refine-heavy"
HTTP_FANOUT = "http-fanout"

# subtask count and stability sample count per workload, at full and smoke size
SIZES = {
    "full": {CHAIN_UPDATER: (200, 5), REFINE_HEAVY: (40, 50), HTTP_FANOUT: (64, 5)},
    "smoke": {CHAIN_UPDATER: (6, 5), REFINE_HEAVY: (4, 6), HTTP_FANOUT: (5, 5)},
}

TAU = 0.7
MAX_ITERATIONS = 5

_EXECUTOR_ROLE = "## Role\nYou are the executor agent for subtask '"
_CAREFUL_ROLE = "You are the careful executor for this step."
_CLOSING_ROLE = "You are the closing executor for this task."


@dataclass(frozen=True)
class Script:
    """One pipeline's inputs and what a correct run of it must produce."""

    workload: str
    seed: int
    task: str
    template: str
    metric: str
    samples: int
    modules: dict
    behaviors: tuple
    prefix_rules: tuple
    expected_final: str
    # subtask id -> reviewer revisions the stability gate must take
    expected_refinements: dict = field(default_factory=dict)

    def generator(self) -> ScriptedGenerator:
        return ScriptedGenerator(
            behaviors=self.behaviors, prefix_rules=self.prefix_rules, run_seed=self.seed
        )

    def settings_kwargs(self) -> dict:
        return {
            "refinement": RefinementConfig(
                tau=TAU, sample_count=self.samples,
                max_iterations=MAX_ITERATIONS, metric=self.metric,
            ),
            "subtask_optimizer_enabled": self.modules["subtask_optimizer"],
            "reviewer_enabled": self.modules["reviewer"],
            "plan_updater_enabled": self.modules["plan_updater"],
            "knowledge_enabled": self.modules["knowledge_generator"],
        }

    def header(self) -> dict:
        return {
            "task": self.task,
            "seed": self.seed,
            "workload": self.workload,
            "metric": self.metric,
            "samples": self.samples,
            "tau": TAU,
            "modules": dict(self.modules),
        }


class _Words:
    """Distinct six-letter pseudo-words drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: set[str] = set()

    def take(self, count: int) -> list[str]:
        out = []
        while len(out) < count:
            word = "".join(
                self._rng.choice("bdfgklmnprstvz") + self._rng.choice("aeiou")
                for _ in range(3)
            )
            if word not in self._seen:
                self._seen.add(word)
                out.append(word)
        return out


def _rule(prefix: str, text: str) -> tuple[str, ScriptedBehavior]:
    return prefix, ScriptedBehavior(
        prompt_fingerprint=f"prefix:{prefix}", outcomes=((text, 1.0),)
    )


def _json_rule(prefix: str, obj: dict) -> tuple[str, ScriptedBehavior]:
    return _rule(prefix, json.dumps(obj))


def _spread_rule(prefix: str, texts: list[str], seed: int) -> tuple[str, ScriptedBehavior]:
    share = 1.0 / len(texts)
    outcomes = tuple((t, share) for t in texts[:-1])
    outcomes += ((texts[-1], 1.0 - share * (len(texts) - 1)),)
    return prefix, ScriptedBehavior(
        prompt_fingerprint=f"prefix:{prefix}", outcomes=outcomes, seed=seed
    )


def _executor_prefix(subtask_id: str) -> str:
    return f"{_EXECUTOR_ROLE}{subtask_id}'.\n"


def _near_copies(words: list[str], spares: list[str], repeat: int = 1) -> list[str]:
    """The sentence `words` (repeated), plus one copy per spare word with
    that word swapped in: texts that clear any stability gate."""
    base = " ".join(words)
    texts = [" ".join([base] * repeat)]
    for k, spare in enumerate(spares):
        swapped = list(words)
        swapped[k % len(words)] = spare
        texts.append(" ".join([" ".join(swapped)] + [base] * (repeat - 1)))
    return texts


def _planner(task: str, template: str, subtasks: list[dict]) -> ScriptedBehavior:
    return ScriptedBehavior.for_prompt(
        ap.planner_prompt(task, template), [(json.dumps({"subtasks": subtasks}), 1.0)]
    )


def _subtask(sid: str, words: list[str], deps: list[str]) -> dict:
    return {
        "id": sid,
        "description": f"Derive the {' '.join(words)} figure from its inputs.",
        "dependencies": deps,
        "io_spec": {"output_format": "free-text"},
    }


def _chain_updater(seed: int, size: tuple[int, int], words: _Words) -> Script:
    count, samples = size
    ids = [f"s{i:03d}" for i in range(count)]
    subtasks = [
        _subtask(sid, words.take(2), [ids[i - 1]] if i else [])
        for i, sid in enumerate(ids)
    ]
    task = f"Carry a running figure through {count} dependent steps ({' '.join(words.take(3))})."
    expected = f"final figure {' '.join(words.take(4))}"
    rules = (
        _rule(f"{ap.KNOWLEDGE_MARK}\n", f"Keep the {' '.join(words.take(3))} units."),
        _json_rule(f"{ap.PLAN_UPDATE_SUCCESS_MARK}\n",
                   {"payload": f"Reuse the {' '.join(words.take(2))} identifiers."}),
        _spread_rule(_EXECUTOR_ROLE, _near_copies(words.take(10), words.take(2)), seed),
        _rule(_executor_prefix(ids[-1]), expected),
    )
    return Script(
        workload=CHAIN_UPDATER, seed=seed, task=task, template="linear-chain",
        metric="semantic", samples=samples,
        modules={"subtask_optimizer": True, "reviewer": True,
                 "plan_updater": True, "knowledge_generator": True},
        behaviors=(_planner(task, "linear-chain", subtasks),),
        prefix_rules=rules, expected_final=expected,
        expected_refinements={sid: 0 for sid in ids},
    )


def _refine_heavy(seed: int, size: tuple[int, int], words: _Words, metric: str) -> Script:
    count, samples = size
    # alternate classes so the last subtask is an "ok" one with a fixed answer
    ids = [f"{'ok' if (count - 1 - i) % 2 == 0 else 'hard'}-{i:02d}" for i in range(count)]
    subtasks = [
        _subtask(sid, words.take(2), [ids[i - 1]] if i else [])
        for i, sid in enumerate(ids)
    ]
    task = f"Write {count} consistent step reports ({' '.join(words.take(3))})."
    # five variants over disjoint vocabularies: eight words repeated five
    # times, about 40 tokens, so neither metric can clear tau=0.7
    variants = [" ".join([" ".join(words.take(8))] * 5) for _ in range(5)]
    stable = _near_copies(words.take(8), words.take(2), repeat=5)
    expected = " ".join([" ".join(words.take(8))] * 5)
    review = f"{ap.REVIEWER_STABILITY_MARK}\nSubtask: "
    rules = (
        _spread_rule(_EXECUTOR_ROLE, variants, seed),
        _spread_rule(f"## Role\n{_CAREFUL_ROLE}", stable, seed + 1),
        _rule(f"## Role\n{_CLOSING_ROLE}", expected),
        _json_rule(f"{review}ok-", {"component": "role", "replacement": _CAREFUL_ROLE}),
        _json_rule(f"{review}{ids[-1]}\n", {"component": "role", "replacement": _CLOSING_ROLE}),
        _json_rule(f"{review}hard-", {
            "component": "requirements",
            "replacement": f"Report the {' '.join(words.take(2))} figure.\nKeep one wording.",
        }),
        # outputs are longer than the summarizer's pass-through limit
        _json_rule(f"{ap.SUMMARIZER_MARK}\n", {
            "summary": f"Reported the {' '.join(words.take(2))} figure.",
            "preserved_keys": words.take(1),
        }),
    )
    return Script(
        workload=REFINE_HEAVY, seed=seed, task=task, template="linear-chain",
        metric=metric, samples=samples,
        modules={"subtask_optimizer": True, "reviewer": True,
                 "plan_updater": False, "knowledge_generator": False},
        behaviors=(_planner(task, "linear-chain", subtasks),),
        prefix_rules=rules, expected_final=expected,
        expected_refinements={
            sid: 1 if sid.startswith("ok-") else MAX_ITERATIONS for sid in ids
        },
    )


def _http_fanout(seed: int, size: tuple[int, int], words: _Words) -> Script:
    count, samples = size
    branches = [f"b{i:02d}" for i in range(count - 2)]
    subtasks = [_subtask("root", words.take(2), [])]
    subtasks += [_subtask(b, words.take(2), ["root"]) for b in branches]
    subtasks.append(_subtask("sink", words.take(2), branches))
    task = f"Fan {len(branches)} independent lookups out and join them ({' '.join(words.take(3))})."
    expected = f"joined figure {' '.join(words.take(4))}"
    rules = (
        _json_rule(f"{ap.PLAN_UPDATE_SUCCESS_MARK}\n",
                   {"payload": f"Reuse the {' '.join(words.take(2))} identifiers."}),
        _spread_rule(_EXECUTOR_ROLE, _near_copies(words.take(10), words.take(2)), seed),
        _rule(_executor_prefix("sink"), expected),
    )
    return Script(
        workload=HTTP_FANOUT, seed=seed, task=task, template="fan-out-fan-in",
        metric="semantic", samples=samples,
        modules={"subtask_optimizer": True, "reviewer": True,
                 "plan_updater": True, "knowledge_generator": False},
        behaviors=(_planner(task, "fan-out-fan-in", subtasks),),
        prefix_rules=rules, expected_final=expected,
        expected_refinements={s["id"]: 0 for s in subtasks},
    )


def build(workload: str, seed: int, scale: str = "full") -> list[Script]:
    """The pipelines one run of `workload` executes, in order."""
    size = SIZES[scale][workload]
    if workload == CHAIN_UPDATER:
        return [_chain_updater(seed, size, _Words(random.Random(f"{workload}:{seed}")))]
    if workload == REFINE_HEAVY:
        # the same script once per gate metric
        return [
            _refine_heavy(seed, size, _Words(random.Random(f"{workload}:{seed}")), metric)
            for metric in ("semantic", "kl")
        ]
    if workload == HTTP_FANOUT:
        return [_http_fanout(seed, size, _Words(random.Random(f"{workload}:{seed}")))]
    raise ValueError(f"unknown workload: {workload!r}")

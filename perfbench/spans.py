"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program, around calls into each module's
public functions: the injected generator, embedder and trace writer, the names
the orchestrator module calls through, Plan.subtask and Plan construction, and
the report path. Spans stay in memory; `dump` writes them once at the end.

A span is [name, start, end, parent index]. A span's layer is its name up to
the first dot, so "plan.with_status" belongs to the "plan" layer.
"""

from __future__ import annotations

import json
import statistics
import time

# functions in promptor.agent_prompts the orchestrator builds prompts with
AGENT_PROMPT_BUILDERS = (
    "planner_prompt", "classifier_prompt", "reviewer_stability_prompt",
    "reviewer_failure_prompt", "summarizer_prompt", "plan_update_success_prompt",
    "plan_update_failure_prompt", "knowledge_prompt", "optimizer_split_prompt",
    "optimizer_merge_prompt", "optimizer_check_prompt",
)

RUN_SPAN = "orchestrator.run_pipeline"

# percentiles tried for the tail, highest first
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


class _Proxy:
    """Forwards one method of an injected backend or writer through a span."""

    def __init__(self, target, method: str, wrapped):
        self._target = target
        setattr(self, method, wrapped)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def traced_generator(gen, rec: Recorder):
    return _Proxy(gen, "generate", rec.wrap("backends.generate", gen.generate))


def traced_embedder(emb, rec: Recorder):
    return _Proxy(emb, "embed", rec.wrap("backends.embed", emb.embed))


def trace_writer(writer, rec: Recorder):
    # warning() calls self.emit, so one instance attribute covers both
    writer.emit = rec.wrap("trace.emit", writer.emit)
    return writer


class Patches:
    """Module- and class-level wrappers, installed for traced repetitions
    only and removed again, so untraced repetitions run the bare program."""

    def __init__(self, rec: Recorder):
        import promptor.agent_prompts as ap
        import promptor.orchestrator as orch
        import promptor.plan as plan
        import promptor.reports as reports
        import promptor.trace as trace

        targets = [
            (orch, "semantic_stability", "metrics.semantic_stability"),
            (orch, "kl_stability_score", "metrics.kl_stability_score"),
            (orch, "with_status", "plan.with_status"),
            (orch, "with_subtask", "plan.with_subtask"),
            (orch, "render_prompt", "prompt.render_prompt"),
            (plan.Plan, "subtask", "plan.subtask"),
            (plan.Plan, "__init__", "plan.Plan"),
            (reports, "replay_trace", "reports.replay_trace"),
            # replay's status folds rebuild the plan once per status change
            (trace, "with_status", "reports.replay.with_status"),
        ]
        targets += [(ap, b, f"agent_prompts.{b}") for b in AGENT_PROMPT_BUILDERS]
        self._saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        self._wrapped = [
            (owner, attr, rec.wrap(name, getattr(owner, attr)))
            for owner, attr, name in targets
        ]

    def __enter__(self):
        for owner, attr, fn in self._wrapped:
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc_info):
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)


def tail(durations_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest tried percentile whose value has at
    least ten samples after it in sorted order; the median when there are
    too few samples."""
    n = len(durations_ms)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(durations_ms)
    for level in TAIL_LEVELS:
        if n - int(n * level / 100) - 1 >= 10:
            break
    else:
        level = 50.0
    return level, ordered[min(n - 1, int(n * level / 100))]


def summarize(spans: list[list], ranges) -> dict:
    """Per-name and per-layer figures over the given (first, end) index
    ranges of top-level spans. A range that opens with a run span is one
    pipeline run; root_child_s sums the durations of its direct children."""
    by_name: dict[str, list[float]] = {}
    busy: dict[str, float] = {}
    layer_busy: dict[str, float] = {}
    child_s = 0.0
    for first, end in ranges:
        root = first if first < end and spans[first][0] == RUN_SPAN else -1
        for i in range(first, end):
            if i == root:
                continue
            name, start, stop, parent = spans[i]
            duration = stop - start
            by_name.setdefault(name, []).append(duration * 1e3)
            if parent == root >= 0:
                child_s += duration
            # a span nested in one of its own name or layer adds no busy time
            same_name = same_layer = False
            layer = layer_of(name)
            p = parent
            while p > root:
                same_name |= spans[p][0] == name
                same_layer |= layer_of(spans[p][0]) == layer
                p = spans[p][3]
            if not same_name:
                busy[name] = busy.get(name, 0.0) + duration
            if not same_layer:
                layer_busy[layer] = layer_busy.get(layer, 0.0) + duration
    out = {}
    for name, durations in by_name.items():
        level, value = tail(durations)
        out[name] = {
            "calls": len(durations),
            "busy_s": busy.get(name, 0.0),
            "p50_ms": statistics.median(durations),
            "tail_ms": value,
            "tail_pct": level,
        }
    return {"names": out, "layers": layer_busy, "root_child_s": child_s}

"""Append-only JSON-lines execution traces.

A trace is one header record followed by typed event records with strictly
increasing sequence numbers. Timestamps are excluded from determinism
comparisons via canonicalize(); everything else is replayable state.

Version 2 records a plan-update as a full plan_after snapshot only when the
plan's structure is new: when it is created, and when the optimizer split or
merged a subtask. Feedback steps carry just their update, which replay
applies to the current plan. Version 1 traces, with a snapshot on
every plan-update, still replay. Version 3 summarizes a score event per
sample (sample_distances) where earlier versions listed every pair
(pair_distances); replay reads only the score value, so both replay.

Version 4 stores each distinct output of a generation event once: outputs
holds the distinct texts in first-seen order, and when some sample repeats,
sample_index gives, for each of the sample_count samples, its text's
position in outputs. Without sample_index, as in earlier versions, outputs
lists every sample. Either way an execution's output is outputs[0]. An
embedding event's count is the number of texts embedded, which from
version 4 on is the distinct non-blank samples.

Version 5 scores the same way but records a score event per distinct
output: output_distances holds one mean distance per entry of outputs in
the subtask's last stability generation event, that of the output's first
sample, so sample p's is output_distances[sample_index[p]]. Replay checks
the length; earlier versions' sample_distances and pair_distances are not
read. The plan, subtask, I/O spec and prompt records inside events leave out
each field that holds its default, which the reader fills back in, so the
same records written in full, as earlier version 5 traces hold them, read
the same.

Version 6 writes each output text and each prompt once. The writer numbers
the texts of generation outputs 0, 1, 2... in the order they first appear
in the trace; a text new to the trace is written in full, and a later copy
as its ordinal, a JSON int. A reviewer revision writes its component and
value, the component's JSON form after replace_component, and an
augmentation its clause; replay applies each to the subtask's current
prompt with replace_component. The initial revision, and a change to a
prompt other than the one the trace last holds for the subtask, also write
the full prompt_after, which replay then takes as it is. Replay checks that
every output is a text (from version 6 on, or the ordinal of an earlier
one), that a score's value is a number and a run's final_output a text.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import MalformedTraceError
from .plan import Plan, PlanUpdate, SubtaskStatus, with_status, with_update
from .prompt import ModularPrompt, PromptComponentKind, replace_component

TRACE_VERSION = 6

EVENT_TYPES = (
    "generation",
    "embedding",
    "score",
    "revision",
    "augmentation",
    "plan-update",
    "status-change",
    "warning",
)

_EVENT_KEYS = {"kind", "seq", "ts", "type", "payload"}


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    type: str
    payload: dict
    ts: float

    def __post_init__(self):
        if self.type not in EVENT_TYPES:
            raise ValueError(f"unknown event type: {self.type!r}")

    def to_json_dict(self) -> dict:
        return {"kind": "event", "seq": self.seq, "ts": self.ts, "type": self.type, "payload": self.payload}


@dataclass(frozen=True)
class ExecutionTrace:
    header: dict
    events: tuple[TraceEvent, ...]

    def events_of_type(self, event_type: str) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.type == event_type)


class TraceWriter:
    """Single ordered sink for one run. Concurrent emitters funnel through an
    internal lock that assigns sequence numbers; optional live file append."""

    def __init__(self, header: dict, path: str | Path | None = None):
        self._header = {
            "version": TRACE_VERSION,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            **header,
        }
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._next_seq = 0
        # each generation output text written so far -> its ordinal
        self._ordinals: dict[str, int] = {}
        self._file = open(path, "w", encoding="utf-8") if path is not None else None
        if self._file is not None:
            self._file.write(json.dumps({"kind": "header", **self._header}, sort_keys=True) + "\n")
            self._file.flush()

    def emit(self, event_type: str, payload: dict) -> TraceEvent:
        with self._lock:
            if event_type == "generation" and type(payload.get("outputs")) is list:
                payload = self._by_reference(payload)
            event = TraceEvent(seq=self._next_seq, type=event_type, payload=payload, ts=time.time())
            self._next_seq += 1
            self._events.append(event)
            if self._file is not None:
                self._file.write(json.dumps(event.to_json_dict(), sort_keys=True) + "\n")
                self._file.flush()
        return event

    def _by_reference(self, payload: dict) -> dict:
        """payload with each output text the trace already holds replaced by
        its ordinal; payload itself when every text is new."""
        ordinals, outputs, seen = self._ordinals, [], False
        for text in payload["outputs"]:
            ordinal = ordinals.get(text)
            if ordinal is None:
                ordinals[text] = len(ordinals)
                outputs.append(text)
            else:
                outputs.append(ordinal)
                seen = True
        return {**payload, "outputs": outputs} if seen else payload

    def warning(self, reason: str, **payload) -> TraceEvent:
        return self.emit("warning", {"reason": reason, **payload})

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None

    def trace(self) -> ExecutionTrace:
        with self._lock:
            return ExecutionTrace(header=dict(self._header), events=tuple(self._events))

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info):
        self.close()


def parse_trace_lines(lines: Iterable[str]) -> ExecutionTrace:
    header = None
    events: list[TraceEvent] = []
    last_seq = -1
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise MalformedTraceError(f"line {line_no}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedTraceError(f"line {line_no}: record is not an object")
        kind = record.get("kind")
        if header is None:
            if kind != "header":
                raise MalformedTraceError(f"line {line_no}: first record must be the header")
            if "version" not in record:
                raise MalformedTraceError("header lacks a version field")
            if type(record["version"]) is not int:
                raise MalformedTraceError(f"trace version {record['version']!r} is not an integer")
            header = {k: v for k, v in record.items() if k != "kind"}
            continue
        if kind != "event":
            raise MalformedTraceError(f"line {line_no}: expected an event record, got kind={kind!r}")
        # checked inline, not by prompt._read_record: this runs once per event
        if record.keys() != _EVENT_KEYS:
            raise MalformedTraceError(f"line {line_no}: bad event record: keys {sorted(record)},"
                                      f" expected {sorted(_EVENT_KEYS)}")
        seq, ts, payload = record["seq"], record["ts"], record["payload"]
        if type(seq) is not int or type(ts) not in (int, float):
            raise MalformedTraceError(f"line {line_no}: bad event record: seq must be an integer"
                                      f" and ts a number, got {seq!r} and {ts!r}")
        if type(payload) is not dict:
            raise MalformedTraceError(f"line {line_no}: event payload must be an object")
        if record["type"] not in EVENT_TYPES:
            raise MalformedTraceError(
                f"line {line_no}: bad event record: unknown type {record['type']!r}"
            )
        event = TraceEvent(seq=seq, type=record["type"], payload=payload, ts=ts)
        if event.seq <= last_seq:
            raise MalformedTraceError(
                f"line {line_no}: sequence numbers must strictly increase ({event.seq} after {last_seq})"
            )
        last_seq = event.seq
        events.append(event)
    if header is None:
        raise MalformedTraceError("trace is empty")
    return ExecutionTrace(header=header, events=tuple(events))


def read_trace(path: str | Path) -> ExecutionTrace:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedTraceError(f"cannot read trace {path}: {exc}") from exc
    return parse_trace_lines(text.splitlines())


def canonicalize(trace: ExecutionTrace) -> dict:
    """Timestamp-free view of a trace; equal canonical forms mean equal runs."""
    header = {k: v for k, v in trace.header.items() if k != "created_at"}
    return {
        "header": header,
        "events": [
            {"seq": e.seq, "type": e.type, "payload": e.payload} for e in trace.events
        ],
    }


def canonical_trace_bytes(trace: ExecutionTrace) -> bytes:
    return json.dumps(canonicalize(trace), sort_keys=True).encode("utf-8")


@dataclass
class ReplayState:
    """State reconstructed by folding a trace's events in order. Refinements
    count each subtask's revisions other than its initial prompt."""

    plan: Plan | None = None
    prompts: dict[str, ModularPrompt] = field(default_factory=dict)
    scores: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    run_status: str | None = None
    final_output: str = ""
    refinements: dict[str, int] = field(default_factory=dict)
    augmentations: dict[str, int] = field(default_factory=dict)


def _check_sample_index(event: TraceEvent) -> None:
    """A version 4 generation event's sample_index, one position per output
    when it has none, is a list of one integer position per sample, and every
    output is some sample's text."""
    outputs, count = event.payload["outputs"], event.payload["sample_count"]
    index = event.payload.get("sample_index", range(len(outputs)))
    # a bool or a float would pass the set comparison below (True == 1)
    if not isinstance(index, (list, range)) or not all(type(k) is int for k in index):
        raise MalformedTraceError(f"event {event.seq}: sample_index is not a list of integers")
    if len(index) != count:
        raise MalformedTraceError(
            f"event {event.seq}: sample_index has {len(index)} entries for {count} samples"
        )
    if set(index) != set(range(len(outputs))):
        raise MalformedTraceError(
            f"event {event.seq}: sample_index does not map the samples onto the outputs"
        )


def _read_outputs(event: TraceEvent, texts: list[str] | None) -> list[str]:
    """A generation event's outputs as texts. Before version 6 (texts is
    None) each must be a text. From version 6 on, texts holds every text the
    trace wrote in full before this one: a text is appended to it, and an
    int must be the ordinal of one of them."""
    outputs = event.payload["outputs"]
    if type(outputs) is not list:
        raise MalformedTraceError(f"event {event.seq}: outputs must be a list")
    resolved = []
    for output in outputs:
        if type(output) is str:
            if texts is not None:
                texts.append(output)
        elif texts is not None and type(output) is int and 0 <= output < len(texts):
            output = texts[output]
        else:
            raise MalformedTraceError(
                f"event {event.seq}: output {output!r} is not a text"
                + ("" if texts is None else " or the ordinal of an earlier one"))
        resolved.append(output)
    return resolved


def _changed_prompt(event: TraceEvent, current: ModularPrompt | None) -> ModularPrompt:
    """The prompt a version 6 revision or augmentation without prompt_after
    leaves: its delta applied to the subtask's current prompt."""
    payload = event.payload
    if current is None:
        raise MalformedTraceError(f"event {event.seq}: {event.type} delta before any prompt"
                                  f" of subtask {payload['subtask_id']!r}")
    if event.type == "augmentation":
        clause = payload["clause"]
        kind, value = PromptComponentKind.REQUIREMENTS, current.requirements + (clause,)
        well_typed = type(clause) is str
    else:
        kind, value = PromptComponentKind(payload["component"]), payload["value"]
        well_typed = (type(value) is list and all(type(c) is str for c in value)
                      if kind is PromptComponentKind.REQUIREMENTS else type(value) is str)
    if not well_typed:
        raise MalformedTraceError(f"event {event.seq}: bad {kind.value} change {payload!r}")
    return replace_component(current, kind, value)


def replay_trace(trace: ExecutionTrace) -> ReplayState:
    """Rebuild plan and prompt states from the recorded events. Raises
    MalformedTraceError if the events do not fold into consistent state."""
    state = ReplayState()
    version = trace.header["version"]
    # the output count of each subtask's last stability generation
    measured: dict[str, int] = {}
    # from version 6 on, every output text written in full so far
    texts: list[str] | None = [] if version >= 6 else None
    for event in trace.events:
        payload = event.payload
        try:
            if event.type == "plan-update":
                if "plan_after" in payload:
                    state.plan = Plan.from_json_dict(payload["plan_after"])
                elif state.plan is None:
                    raise MalformedTraceError(
                        f"event {event.seq}: plan-update delta before any plan"
                    )
                elif not payload.get("update"):
                    raise MalformedTraceError(
                        f"event {event.seq}: plan-update carries neither plan_after nor update"
                    )
                else:
                    state.plan = with_update(
                        state.plan, PlanUpdate.from_json_dict(payload["update"])
                    )
                # only version 1 traces carry run_status here
                if payload.get("run_status"):
                    state.run_status = payload["run_status"]
            elif event.type == "status-change":
                if payload.get("subtask_id") == "__run__":
                    state.run_status = payload["to"]
                    state.final_output = payload.get("final_output", state.final_output)
                    if type(state.final_output) is not str:
                        raise MalformedTraceError(f"event {event.seq}: final_output"
                                                  f" {state.final_output!r} is not a text")
                else:
                    if state.plan is None:
                        raise MalformedTraceError(
                            f"event {event.seq}: status-change before any plan"
                        )
                    state.plan = with_status(
                        state.plan, payload["subtask_id"], SubtaskStatus(payload["to"])
                    )
            elif event.type in ("revision", "augmentation"):
                sid = payload["subtask_id"]
                if version < 6 or "prompt_after" in payload:
                    state.prompts[sid] = ModularPrompt.from_json_dict(payload["prompt_after"])
                else:
                    state.prompts[sid] = _changed_prompt(event, state.prompts.get(sid))
                if event.type == "augmentation":
                    state.augmentations[sid] = state.augmentations.get(sid, 0) + 1
                elif payload.get("component") != "initial":
                    state.refinements[sid] = state.refinements.get(sid, 0) + 1
            elif event.type == "score":
                sid = payload["subtask_id"]
                if version >= 5 and len(payload["output_distances"]) != measured.get(sid):
                    raise MalformedTraceError(
                        f"event {event.seq}: {len(payload['output_distances'])} output"
                        f" distances for {measured.get(sid, 'no')} stability outputs"
                    )
                value = payload["value"]
                if type(value) not in (int, float):
                    raise MalformedTraceError(f"event {event.seq}: score value {value!r}"
                                              " is not a number")
                state.scores.setdefault(sid, []).append(value)
            elif event.type == "generation":
                outputs = _read_outputs(event, texts)
                if version >= 4:
                    _check_sample_index(event)
                if payload.get("purpose") == "execution":
                    state.outputs[payload["subtask_id"]] = outputs[0]
                elif payload.get("purpose") == "stability":
                    measured[payload["subtask_id"]] = len(outputs)
        except MalformedTraceError:
            raise
        except Exception as exc:
            raise MalformedTraceError(f"event {event.seq}: replay failed: {exc}") from exc
    return state

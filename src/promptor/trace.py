"""Append-only JSON-lines execution traces.

A trace is one header record followed by typed event records, numbered by
their position. Timestamps are excluded from determinism comparisons via
canonicalize(); everything else is replayable state.

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
position in outputs; else the writer drops it and, as in earlier versions,
outputs lists every sample. Either way an execution's output is
outputs[0]. An embedding event's count is the number of texts embedded,
which from version 4 on is the distinct non-blank samples. Since a
stability gate embeds each text once, a version 7 trace may count only the
texts new to the gate, and a measurement with none writes no embedding
event; replay does not read count.

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
as its ordinal, a JSON int. A revision or augmentation reaches the writer
with its change (a reviewer revision's component, an augmentation's clause)
and prompt_after, the ModularPrompt after it. The writer writes the change
alone, a revision's with its value (the component's JSON form after
replace_component), exactly when replay's _changed_prompt gives prompt_after
back from the subtask's prompt so far; else prompt_after in full, as for an
initial revision, which replay takes as it is. Replay checks that every
output is a text (from version 6 on, or the ordinal of an earlier one),
that a score's value is a number, a semantic score's within [-1, 1], and
that a run's final_output is a text.

Version 7 writes an event line as exactly its type, payload and ts: ts is
the whole microseconds since the writer opened, read from a monotonic
clock, and an event's number is its position among the events, so the
kind and seq of earlier versions are gone. The fingerprint of a generation
event shares the one table that numbers output texts, and is numbered
before the event's outputs: its first occurrence is written in full and a
later one as its ordinal. Replay resolves it through the same list of
texts, so a fingerprint that is neither a text nor the ordinal of an
earlier one is malformed. A score's value must be finite, and a kl score's
within [0, 1].
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import MalformedTraceError
from .metrics import LARGEST_DISTANCE, SEMANTIC
from .plan import Plan, PlanUpdate, SubtaskStatus, with_status, with_update
from .prompt import ModularPrompt, PromptComponentKind, _write_field, replace_component

TRACE_VERSION = 7

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

# an event line's keys, from version 7 on and before it
_EVENT_KEYS = {"payload", "ts", "type"}
_EVENT_KEYS_BEFORE_7 = {"kind", "seq", "ts", "type", "payload"}


@dataclass(frozen=True)
class TraceEvent:
    """seq is the event's number and ts its time. From version 7 on, seq is
    the event's position and ts the whole microseconds since the writer
    opened; before it, they are the line's own seq and epoch seconds."""

    seq: int
    type: str
    payload: dict
    ts: float

    def __post_init__(self):
        if self.type not in EVENT_TYPES:
            raise ValueError(f"unknown event type: {self.type!r}")


@dataclass(frozen=True)
class ExecutionTrace:
    header: dict
    events: tuple[TraceEvent, ...]

    def events_of_type(self, event_type: str) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.type == event_type)


class TraceWriter:
    """Single ordered sink for one run. Concurrent emitters funnel through an
    internal lock that orders the events; optional live file append. It
    alone picks each event's compact form (see the notes above); a payload
    with none is written as it is."""

    def __init__(self, header: dict, path: str | Path | None = None):
        # the version is the format this writer writes, whatever header says
        self._header = {
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            **header,
            "version": TRACE_VERSION,
        }
        self._opened_ns = time.monotonic_ns()
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()
        # each generation fingerprint and output text written so far -> its ordinal
        self._ordinals: dict[str, int] = {}
        # each subtask's prompt as replay holds it after the events so far
        self._prompts: dict[str, ModularPrompt] = {}
        self._file = open(path, "w", encoding="utf-8") if path is not None else None
        if self._file is not None:
            self._file.write(json.dumps({"kind": "header", **self._header}, sort_keys=True) + "\n")
            self._file.flush()

    def emit(self, event_type: str, payload: dict) -> TraceEvent:
        with self._lock:
            if event_type == "generation":
                payload = self._by_reference(payload)
            elif event_type in ("revision", "augmentation") and isinstance(
                    payload.get("prompt_after"), ModularPrompt):
                payload = self._prompt_change(event_type, payload)
            ts = (time.monotonic_ns() - self._opened_ns) // 1000
            event = TraceEvent(seq=len(self._events), type=event_type, payload=payload, ts=ts)
            self._events.append(event)
            if self._file is not None:
                self._file.write(json.dumps({"payload": payload, "ts": ts, "type": event_type},
                                            sort_keys=True) + "\n")
                self._file.flush()
        return event

    def _ordinal(self, text: str) -> int | None:
        """text's ordinal if the trace already holds it; else None, and text
        takes the next ordinal."""
        ordinal = self._ordinals.get(text)
        if ordinal is None:
            self._ordinals[text] = len(self._ordinals)
        return ordinal

    def _by_reference(self, payload: dict) -> dict:
        """payload with its fingerprint, then each output text, replaced by
        its ordinal where the trace already holds it, and without a
        sample_index that maps every sample to its own output; payload
        itself when nothing changes."""
        changed = {}
        fingerprint, outputs = payload.get("fingerprint"), payload.get("outputs")
        if type(fingerprint) is str and (ordinal := self._ordinal(fingerprint)) is not None:
            changed["fingerprint"] = ordinal
        if type(outputs) is list:
            ordinals = [self._ordinal(text) for text in outputs]
            if ordinals.count(None) < len(ordinals):
                changed["outputs"] = [text if ordinal is None else ordinal
                                      for text, ordinal in zip(outputs, ordinals)]
        index = payload.get("sample_index")
        if type(index) is list and index == list(range(len(index))):
            return {key: v for key, v in {**payload, **changed}.items() if key != "sample_index"}
        return {**payload, **changed} if changed else payload

    def _prompt_change(self, event_type: str, payload: dict) -> dict:
        """A prompt change's payload as the version 6 note above writes it,
        given the ModularPrompt after the change as prompt_after."""
        sid, after = payload["subtask_id"], payload["prompt_after"]
        before, self._prompts[sid] = self._prompts.get(sid), after
        change = {key: value for key, value in payload.items() if key != "prompt_after"}
        if before is not None and change.get("component") != "initial":
            if event_type == "revision":
                change["value"] = _write_field(after, change["component"])
            if _changed_prompt(TraceEvent(len(self._events), event_type, change, 0),
                               before) == after:
                return change
        return {**payload, "prompt_after": after.to_json_dict()}

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


# The envelope rules are checked here, not by prompt._read_record: they run
# once per event.
def _read_event(line_no: int, record: dict, events: list[TraceEvent]) -> TraceEvent:
    """A version 7 event line: exactly type, payload and a ts of whole
    microseconds; the event's number is its position."""
    if record.keys() != _EVENT_KEYS:
        raise MalformedTraceError(f"line {line_no}: bad event record: keys {sorted(record)},"
                                  f" expected {sorted(_EVENT_KEYS)}")
    ts = record["ts"]
    if type(ts) is not int or ts < 0:
        raise MalformedTraceError(f"line {line_no}: bad event record: ts must be a"
                                  f" non-negative integer, got {ts!r}")
    return _typed_event(line_no, len(events), record, ts)


def _read_event_before_7(line_no: int, record: dict, events: list[TraceEvent]) -> TraceEvent:
    """An event line of versions 1 to 6: kind, a seq above the last one, a
    ts of any number, type and payload."""
    kind = record.get("kind")
    if kind != "event":
        raise MalformedTraceError(f"line {line_no}: expected an event record, got kind={kind!r}")
    if record.keys() != _EVENT_KEYS_BEFORE_7:
        raise MalformedTraceError(f"line {line_no}: bad event record: keys {sorted(record)},"
                                  f" expected {sorted(_EVENT_KEYS_BEFORE_7)}")
    seq, ts = record["seq"], record["ts"]
    if type(seq) is not int or type(ts) not in (int, float):
        raise MalformedTraceError(f"line {line_no}: bad event record: seq must be an integer"
                                  f" and ts a number, got {seq!r} and {ts!r}")
    if events and seq <= events[-1].seq:
        raise MalformedTraceError(f"line {line_no}: sequence numbers must strictly increase"
                                  f" ({seq} after {events[-1].seq})")
    return _typed_event(line_no, seq, record, ts)


def _typed_event(line_no: int, seq: int, record: dict, ts: float) -> TraceEvent:
    if type(record["payload"]) is not dict:
        raise MalformedTraceError(f"line {line_no}: event payload must be an object")
    if record["type"] not in EVENT_TYPES:
        raise MalformedTraceError(
            f"line {line_no}: bad event record: unknown type {record['type']!r}"
        )
    return TraceEvent(seq=seq, type=record["type"], payload=record["payload"], ts=ts)


def parse_trace_lines(lines: Iterable[str]) -> ExecutionTrace:
    header = None
    events: list[TraceEvent] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise MalformedTraceError(f"line {line_no}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedTraceError(f"line {line_no}: record is not an object")
        if header is not None:
            events.append(read_event(line_no, record, events))
            continue
        if record.get("kind") != "header":
            raise MalformedTraceError(f"line {line_no}: first record must be the header")
        if "version" not in record:
            raise MalformedTraceError("header lacks a version field")
        if type(record["version"]) is not int:
            raise MalformedTraceError(f"trace version {record['version']!r} is not an integer")
        if not 1 <= record["version"] <= TRACE_VERSION:
            raise MalformedTraceError(f"trace version {record['version']} is not supported:"
                                      f" this code reads versions 1 to {TRACE_VERSION}")
        header = {k: v for k, v in record.items() if k != "kind"}
        read_event = _read_event if header["version"] >= 7 else _read_event_before_7
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
    """Timestamp-free view of a trace; equal canonical forms mean equal runs.
    An event's number is its position, so seq is left out too."""
    header = {k: v for k, v in trace.header.items() if k != "created_at"}
    return {
        "header": header,
        "events": [{"type": e.type, "payload": e.payload} for e in trace.events],
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
    # each scored subtask's executed score: the first highest score of its
    # last gate to score, as refine_until_stable picks the revision it executes
    executed_scores: dict[str, float] = field(default_factory=dict)
    # each executed score as an output variance: 1 - value of a semantic score
    # whose stability generation held no blank sample, or else why it gives none
    variances: dict[str, float | str] = field(default_factory=dict)


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


def _read_texts(event: TraceEvent, name: str, entries: list, texts: list[str] | None) -> list[str]:
    """A generation event's entries of one field (its outputs, or from
    version 7 on its fingerprint) as texts. Before version 6 (texts is None)
    each must be a text. From version 6 on, texts holds every string the
    trace wrote in full before this one: a text is appended to it, and an
    int must be the ordinal of one of them."""
    resolved = []
    for entry in entries:
        if type(entry) is str:
            if texts is not None:
                texts.append(entry)
        elif texts is not None and type(entry) is int and 0 <= entry < len(texts):
            entry = texts[entry]
        else:
            raise MalformedTraceError(
                f"event {event.seq}: {name} {entry!r} is not a text"
                + ("" if texts is None else " or the ordinal of an earlier one"))
        resolved.append(entry)
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
    # the outputs of each subtask's last stability generation
    measured: dict[str, list[str]] = {}
    # the subtasks whose gate restarted at an initial revision and has not scored
    restarted: set[str] = set()
    # from version 6 on, every output text (and from version 7 on, every
    # fingerprint) written in full so far
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
                elif payload.get("component") == "initial":
                    restarted.add(sid)
                else:
                    state.refinements[sid] = state.refinements.get(sid, 0) + 1
            elif event.type == "score":
                sid = payload["subtask_id"]
                outputs = measured.get(sid)
                if version >= 5 and (outputs is None
                                     or len(payload["output_distances"]) != len(outputs)):
                    raise MalformedTraceError(
                        f"event {event.seq}: {len(payload['output_distances'])} output"
                        f" distances for {'no' if outputs is None else len(outputs)}"
                        " stability outputs"
                    )
                value, metric = payload["value"], payload.get("metric")
                if type(value) not in (int, float):
                    raise MalformedTraceError(f"event {event.seq}: score value {value!r}"
                                              " is not a number")
                largest = LARGEST_DISTANCE.get(metric)
                if largest is not None and not 1 - largest <= value <= 1:
                    raise MalformedTraceError(f"event {event.seq}: {metric} score value"
                                              f" {value!r} is outside [{1 - largest:g}, 1]")
                if type(value) is float and not math.isfinite(value):
                    raise MalformedTraceError(f"event {event.seq}: score value {value!r}"
                                              " is not finite")
                state.scores.setdefault(sid, []).append(value)
                if metric != SEMANTIC:
                    variance = f"was scored by {metric}"
                elif any(not text.strip() for text in outputs or ()):
                    variance = "had a blank stability sample"
                else:
                    variance = 1.0 - value
                if (sid in restarted or sid not in state.executed_scores
                        or value > state.executed_scores[sid]):
                    restarted.discard(sid)
                    state.executed_scores[sid], state.variances[sid] = value, variance
            elif event.type == "generation":
                if version >= 7 and "fingerprint" in payload:
                    _read_texts(event, "fingerprint", [payload["fingerprint"]], texts)
                outputs = payload["outputs"]
                if type(outputs) is not list:
                    raise MalformedTraceError(f"event {event.seq}: outputs must be a list")
                outputs = _read_texts(event, "output", outputs, texts)
                if version >= 4:
                    _check_sample_index(event)
                if payload.get("purpose") == "execution":
                    state.outputs[payload["subtask_id"]] = outputs[0]
                elif payload.get("purpose") == "stability":
                    measured[payload["subtask_id"]] = outputs
        except MalformedTraceError:
            raise
        except Exception as exc:
            raise MalformedTraceError(f"event {event.seq}: replay failed: {exc}") from exc
    return state

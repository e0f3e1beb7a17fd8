"""Append-only JSON-lines execution traces.

A trace is one header record followed by typed event records with strictly
increasing sequence numbers. Timestamps are excluded from determinism
comparisons via canonicalize(); everything else is replayable state.

Version 2 records a plan-update as a full plan_after snapshot only when the
plan's structure is new; feedback steps carry just their update, which
replay applies to the current plan. Version 1 traces, with a snapshot on
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
from .prompt import ModularPrompt

TRACE_VERSION = 4

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
        self._file = open(path, "w", encoding="utf-8") if path is not None else None
        if self._file is not None:
            self._file.write(json.dumps({"kind": "header", **self._header}, sort_keys=True) + "\n")
            self._file.flush()

    def emit(self, event_type: str, payload: dict) -> TraceEvent:
        with self._lock:
            event = TraceEvent(seq=self._next_seq, type=event_type, payload=payload, ts=time.time())
            self._next_seq += 1
            self._events.append(event)
            if self._file is not None:
                self._file.write(json.dumps(event.to_json_dict(), sort_keys=True) + "\n")
                self._file.flush()
        return event

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
        try:
            event = TraceEvent(
                seq=int(record["seq"]),
                type=record["type"],
                payload=record["payload"],
                ts=float(record.get("ts", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedTraceError(f"line {line_no}: bad event record: {exc}") from exc
        if not isinstance(event.payload, dict):
            raise MalformedTraceError(f"line {line_no}: event payload must be an object")
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
    when it has none, holds one position per sample, and every output is some
    sample's text."""
    outputs, count = event.payload["outputs"], event.payload["sample_count"]
    index = event.payload.get("sample_index", range(len(outputs)))
    if len(index) != count:
        raise MalformedTraceError(
            f"event {event.seq}: sample_index has {len(index)} entries for {count} samples"
        )
    if set(index) != set(range(len(outputs))):
        raise MalformedTraceError(
            f"event {event.seq}: sample_index does not map the samples onto the outputs"
        )


def replay_trace(trace: ExecutionTrace) -> ReplayState:
    """Rebuild plan and prompt states from the recorded events. Raises
    MalformedTraceError if the events do not fold into consistent state."""
    state = ReplayState()
    indexed = trace.header["version"] >= 4
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
                state.prompts[sid] = ModularPrompt.from_json_dict(payload["prompt_after"])
                if event.type == "augmentation":
                    state.augmentations[sid] = state.augmentations.get(sid, 0) + 1
                elif payload.get("component") != "initial":
                    state.refinements[sid] = state.refinements.get(sid, 0) + 1
            elif event.type == "score":
                state.scores.setdefault(payload["subtask_id"], []).append(payload["value"])
            elif event.type == "generation":
                if indexed:
                    _check_sample_index(event)
                if payload.get("purpose") == "execution":
                    state.outputs[payload["subtask_id"]] = payload["outputs"][0]
        except MalformedTraceError:
            raise
        except Exception as exc:
            raise MalformedTraceError(f"event {event.seq}: replay failed: {exc}") from exc
    return state

"""Append-only JSON-lines execution traces.

A trace is one header record followed by typed event records with strictly
increasing sequence numbers. Timestamps are excluded from determinism
comparisons via canonicalize(); everything else is replayable state.

Version 2 records a plan-update as a full plan_after snapshot only when the
plan's structure is new; feedback steps carry just their update, which
replay applies to the current plan. Version 1 traces, with a snapshot on
every plan-update, still replay.
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

TRACE_VERSION = 2

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

    def to_lines(self) -> list[str]:
        lines = [json.dumps({"kind": "header", **self.header}, sort_keys=True)]
        lines.extend(json.dumps(e.to_json_dict(), sort_keys=True) for e in self.events)
        return lines


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


def write_trace(trace: ExecutionTrace, path: str | Path) -> None:
    Path(path).write_text("\n".join(trace.to_lines()) + "\n", encoding="utf-8")


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
    """State reconstructed by folding a trace's events in order."""

    plan: Plan | None = None
    prompts: dict[str, ModularPrompt] = field(default_factory=dict)
    scores: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    run_status: str | None = None


def replay_trace(trace: ExecutionTrace) -> ReplayState:
    """Rebuild plan and prompt states from the recorded events. Raises
    MalformedTraceError if the events do not fold into consistent state."""
    state = ReplayState()
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
                else:
                    if state.plan is None:
                        raise MalformedTraceError(
                            f"event {event.seq}: status-change before any plan"
                        )
                    state.plan = with_status(
                        state.plan, payload["subtask_id"], SubtaskStatus(payload["to"])
                    )
            elif event.type in ("revision", "augmentation"):
                state.prompts[payload["subtask_id"]] = ModularPrompt.from_json_dict(
                    payload["prompt_after"]
                )
            elif event.type == "score":
                state.scores.setdefault(payload["subtask_id"], []).append(payload["value"])
            elif event.type == "generation":
                if payload.get("purpose") == "execution":
                    state.outputs[payload["subtask_id"]] = payload["outputs"][0]
        except MalformedTraceError:
            raise
        except Exception as exc:
            raise MalformedTraceError(f"event {event.seq}: replay failed: {exc}") from exc
    return state

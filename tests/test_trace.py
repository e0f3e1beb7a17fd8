import json
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptor.backends import HashEmbedder
from promptor.errors import MalformedTraceError
from promptor.orchestrator import Orchestrator, OrchestratorSettings
from promptor.plan import Plan, Subtask, SubtaskStatus
from promptor.prompt import ModularPrompt
from promptor.reports import compute_run_metrics, render_run_report
from promptor.trace import (
    EVENT_TYPES,
    TRACE_VERSION,
    ExecutionTrace,
    TraceEvent,
    TraceWriter,
    canonical_trace_bytes,
    canonicalize,
    parse_trace_lines,
    read_trace,
    replay_trace,
)

from .pipeline_fixture import REFORMULATED_PARSE, TASK, strategy_shift_generator

# The strategy-shift fixture run as written by trace version 1, which put a
# full plan_after snapshot (and a null run_status) on every plan-update.
V1_TRACE = Path(__file__).parent / "data" / "trace_v1_strategy_shift.jsonl"
# The same run as written by trace version 2, whose score events list every
# pair distance (pair_distances) instead of one mean per sample.
V2_TRACE = Path(__file__).parent / "data" / "trace_v2_strategy_shift.jsonl"
# The same run as written by trace version 3, whose generation events list
# every sample and whose embedding events count every non-blank sample.
V3_TRACE = Path(__file__).parent / "data" / "trace_v3_strategy_shift.jsonl"
V1_REPORT = """runs: 1
execution success rate: 1.000000
completion rate: 1.000000 (1/1 reference checks passed)

run 1: succeeded
  final output: '87'
  reference check: pass
  parse: executed-ok stability=[1.000000, 1.000000] refinements=0 augmentations=0
  net: executed-ok stability=[1.000000] refinements=0 augmentations=0
  balance: executed-ok stability=[1.000000] refinements=0 augmentations=0
"""


def make_trace(events):
    return ExecutionTrace(
        header={"version": 1, "created_at": "2024-01-01T00:00:00", "run": "t"},
        events=tuple(events),
    )


def write_and_read(trace, path):
    """Emit trace's header and events through a TraceWriter on path, then
    read the file back."""
    with TraceWriter(trace.header, path=path) as writer:
        for event in trace.events:
            writer.emit(event.type, event.payload)
    return read_trace(path)


class TestEventAndSerialization:
    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(seq=0, type="telemetry", payload={}, ts=0.0)

    def test_round_trip_preserves_canonical_form(self, tmp_path):
        trace = make_trace(
            [
                TraceEvent(0, "warning", {"reason": "x"}, 1.5),
                TraceEvent(1, "score", {"subtask_id": "a", "value": 0.25}, 2.5),
            ]
        )
        parsed = write_and_read(trace, tmp_path / "run.jsonl")
        assert canonicalize(parsed) == canonicalize(trace)
        assert parsed.events[1].payload["value"] == 0.25

    def test_events_of_type(self):
        trace = make_trace(
            [
                TraceEvent(0, "warning", {"reason": "x"}, 0.0),
                TraceEvent(1, "score", {"v": 1}, 0.0),
                TraceEvent(2, "warning", {"reason": "y"}, 0.0),
            ]
        )
        reasons = [e.payload["reason"] for e in trace.events_of_type("warning")]
        assert reasons == ["x", "y"]

    def test_file_round_trip(self, tmp_path):
        trace = make_trace([TraceEvent(0, "warning", {"reason": "x"}, 0.0)])
        assert canonicalize(write_and_read(trace, tmp_path / "run.jsonl")) == canonicalize(trace)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(EVENT_TYPES),
                st.dictionaries(
                    st.text(min_size=1, max_size=8),
                    st.one_of(st.integers(), st.text(max_size=12), st.booleans()),
                    max_size=4,
                ),
            ),
            max_size=8,
        )
    )
    def test_any_payload_round_trips(self, tmp_path_factory, specs):
        trace = make_trace(
            TraceEvent(i, t, p, float(i)) for i, (t, p) in enumerate(specs)
        )
        # each example overwrites the one file
        path = tmp_path_factory.getbasetemp() / "payloads.jsonl"
        assert canonicalize(write_and_read(trace, path)) == canonicalize(trace)


class TestWriter:
    def test_seq_assignment_and_header(self):
        with TraceWriter({"run": "w"}) as writer:
            writer.emit("warning", {"reason": "a"})
            writer.warning("b", detail=1)
            trace = writer.trace()
        assert [e.seq for e in trace.events] == [0, 1]
        assert trace.header["version"] == TRACE_VERSION
        assert trace.header["run"] == "w"
        assert "created_at" in trace.header
        assert trace.events[1].payload == {"reason": "b", "detail": 1}

    def test_live_file_append_matches_memory(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with TraceWriter({"run": "w"}, path=path) as writer:
            writer.emit("warning", {"reason": "a"})
            writer.emit("score", {"subtask_id": "s", "value": 1.0})
            in_memory = writer.trace()
        assert canonical_trace_bytes(read_trace(path)) == canonical_trace_bytes(in_memory)

    def test_concurrent_emitters_get_unique_contiguous_seqs(self):
        writer = TraceWriter({"run": "w"})
        barrier = threading.Barrier(8)

        def emit_many():
            barrier.wait()
            for _ in range(25):
                writer.emit("warning", {"reason": "r"})

        threads = [threading.Thread(target=emit_many) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in writer.trace().events]
        assert seqs == list(range(200))


class TestParsingErrors:
    HEADER = json.dumps({"kind": "header", "version": 1})

    def test_empty_trace(self):
        with pytest.raises(MalformedTraceError, match="empty"):
            parse_trace_lines([])

    def test_invalid_json(self):
        with pytest.raises(MalformedTraceError, match="invalid JSON"):
            parse_trace_lines([self.HEADER, "{not json"])

    def test_non_object_record(self):
        with pytest.raises(MalformedTraceError, match="not an object"):
            parse_trace_lines([self.HEADER, "[1, 2]"])

    def test_first_record_must_be_header(self):
        event = json.dumps(
            {"kind": "event", "seq": 0, "type": "warning", "payload": {}, "ts": 0}
        )
        with pytest.raises(MalformedTraceError, match="header"):
            parse_trace_lines([event])

    def test_header_needs_version(self):
        with pytest.raises(MalformedTraceError, match="version"):
            parse_trace_lines([json.dumps({"kind": "header"})])

    @pytest.mark.parametrize("version", ["4", 4.0, None])
    def test_header_version_must_be_an_integer(self, version):
        with pytest.raises(MalformedTraceError, match="not an integer"):
            parse_trace_lines([json.dumps({"kind": "header", "version": version})])

    def test_second_header_rejected(self):
        with pytest.raises(MalformedTraceError, match="expected an event"):
            parse_trace_lines([self.HEADER, self.HEADER])

    def test_unknown_event_type(self):
        bad = json.dumps(
            {"kind": "event", "seq": 0, "type": "telemetry", "payload": {}, "ts": 0}
        )
        with pytest.raises(MalformedTraceError, match="bad event"):
            parse_trace_lines([self.HEADER, bad])

    def test_payload_must_be_object(self):
        bad = json.dumps(
            {"kind": "event", "seq": 0, "type": "warning", "payload": [1], "ts": 0}
        )
        with pytest.raises(MalformedTraceError, match="payload"):
            parse_trace_lines([self.HEADER, bad])

    def test_seq_must_strictly_increase(self):
        ev = {"kind": "event", "seq": 3, "type": "warning", "payload": {}, "ts": 0}
        with pytest.raises(MalformedTraceError, match="strictly increase"):
            parse_trace_lines([self.HEADER, json.dumps(ev), json.dumps(ev)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedTraceError, match="cannot read"):
            read_trace(tmp_path / "absent.jsonl")

    def test_blank_lines_skipped(self):
        ev = json.dumps(
            {"kind": "event", "seq": 0, "type": "warning", "payload": {}, "ts": 0}
        )
        trace = parse_trace_lines([self.HEADER, "", ev, "   "])
        assert len(trace.events) == 1


class TestCanonicalization:
    def test_timestamps_do_not_affect_canonical_bytes(self):
        a = ExecutionTrace(
            header={"version": 1, "created_at": "2024-01-01", "run": "r"},
            events=(TraceEvent(0, "warning", {"reason": "x"}, 1.0),),
        )
        b = ExecutionTrace(
            header={"version": 1, "created_at": "2030-12-31", "run": "r"},
            events=(TraceEvent(0, "warning", {"reason": "x"}, 99.0),),
        )
        assert canonical_trace_bytes(a) == canonical_trace_bytes(b)

    def test_payload_difference_changes_canonical_bytes(self):
        a = make_trace([TraceEvent(0, "warning", {"reason": "x"}, 0.0)])
        b = make_trace([TraceEvent(0, "warning", {"reason": "y"}, 0.0)])
        assert canonical_trace_bytes(a) != canonical_trace_bytes(b)


class TestReplay:
    def plan(self):
        return Plan(
            task_description="t",
            subtasks=(
                Subtask(id="a", description="first step."),
                Subtask(id="b", description="second step.", dependencies=frozenset({"a"})),
            ),
        )

    def prompt(self):
        return ModularPrompt(role="executor", requirements=("do the step",))

    def test_replay_reconstructs_state(self):
        plan = self.plan()
        prompt = self.prompt()
        revised = ModularPrompt(
            role="executor", requirements=("do the step", "show units"), revision=1
        )
        events = [
            TraceEvent(0, "status-change", {"subtask_id": "__run__", "from": None, "to": "running"}, 0.0),
            TraceEvent(1, "plan-update", {"note": "created", "update": None, "plan_after": plan.to_json_dict(), "run_status": None}, 0.0),
            TraceEvent(2, "revision", {"subtask_id": "a", "component": "initial", "revision": 0, "prompt_after": prompt.to_json_dict()}, 0.0),
            TraceEvent(3, "score", {"subtask_id": "a", "metric": "semantic", "value": 0.4, "sample_count": 3}, 0.0),
            TraceEvent(4, "augmentation", {"subtask_id": "a", "clause": "show units", "revision": 1, "prompt_after": revised.to_json_dict()}, 0.0),
            TraceEvent(5, "revision", {"subtask_id": "a", "component": "role", "revision": 2, "prompt_after": revised.to_json_dict()}, 0.0),
            TraceEvent(6, "score", {"subtask_id": "a", "metric": "semantic", "value": 0.9, "sample_count": 3}, 0.0),
            TraceEvent(7, "status-change", {"subtask_id": "a", "from": "pending", "to": "stable-prompt-ready"}, 0.0),
            TraceEvent(8, "generation", {"subtask_id": "a", "purpose": "execution", "outputs": ["42"]}, 0.0),
            TraceEvent(9, "status-change", {"subtask_id": "a", "from": "stable-prompt-ready", "to": "executed-ok"}, 0.0),
            TraceEvent(10, "status-change", {"subtask_id": "__run__", "from": "running", "to": "failed", "final_output": "42"}, 0.0),
        ]
        state = replay_trace(make_trace(events))
        assert state.run_status == "failed"
        assert state.final_output == "42"
        # the initial revision is no refinement
        assert state.refinements == {"a": 1}
        assert state.augmentations == {"a": 1}
        assert state.plan.subtask("a").status is SubtaskStatus.EXECUTED_OK
        assert state.plan.subtask("b").status is SubtaskStatus.PENDING
        assert state.prompts["a"] == revised
        assert state.scores["a"] == [0.4, 0.9]
        assert state.outputs["a"] == "42"

    def test_non_execution_generations_do_not_record_outputs(self):
        events = [
            TraceEvent(0, "generation", {"subtask_id": "a", "purpose": "stability", "outputs": ["x"]}, 0.0),
        ]
        assert replay_trace(make_trace(events)).outputs == {}

    def test_status_change_before_plan_is_malformed(self):
        events = [
            TraceEvent(0, "status-change", {"subtask_id": "a", "from": "pending", "to": "stable-prompt-ready"}, 0.0),
        ]
        with pytest.raises(MalformedTraceError, match="before any plan"):
            replay_trace(make_trace(events))

    def test_illegal_transition_is_malformed(self):
        plan = self.plan()
        events = [
            TraceEvent(0, "plan-update", {"note": "created", "update": None, "plan_after": plan.to_json_dict(), "run_status": None}, 0.0),
            TraceEvent(1, "status-change", {"subtask_id": "a", "from": "pending", "to": "executed-ok"}, 0.0),
        ]
        with pytest.raises(MalformedTraceError, match="replay failed"):
            replay_trace(make_trace(events))

    def test_version_1_trace_replays_to_the_same_report(self):
        trace = read_trace(V1_TRACE)
        assert trace.header["version"] == 1
        updates = trace.events_of_type("plan-update")
        assert len(updates) == 6
        assert all("plan_after" in e.payload for e in updates)
        assert render_run_report(compute_run_metrics([trace])) == V1_REPORT
        assert replay_trace(trace).plan.subtask("parse").description == REFORMULATED_PARSE

    def test_version_2_trace_with_pair_distances_replays_to_the_same_report(self):
        trace = read_trace(V2_TRACE)
        assert trace.header["version"] == 2
        scores = trace.events_of_type("score")
        assert scores and all("pair_distances" in e.payload for e in scores)
        assert render_run_report(compute_run_metrics([trace])) == V1_REPORT
        # version 1 predates exactly-zero distances: its scores differ in the last ulp
        assert replay_trace(trace).plan == replay_trace(read_trace(V1_TRACE)).plan

    def test_version_3_trace_with_every_sample_replays_to_the_same_report(self):
        trace = read_trace(V3_TRACE)
        assert trace.header["version"] == 3
        generations = trace.events_of_type("generation")
        assert all("sample_index" not in e.payload for e in generations)
        assert any(len(e.payload["outputs"]) == 5 for e in generations)
        assert render_run_report(compute_run_metrics([trace])) == V1_REPORT
        assert replay_trace(trace) == replay_trace(read_trace(V2_TRACE))

    def current_run(self):
        writer = TraceWriter(dict(read_trace(V1_TRACE).header, version=TRACE_VERSION))
        orch = Orchestrator(
            strategy_shift_generator(), HashEmbedder(), writer,
            OrchestratorSettings(knowledge_enabled=False, reviewer_enabled=False),
        )
        return orch.run_pipeline(TASK, template="linear-chain")

    def test_current_version_run_of_the_same_fixture_gives_the_same_report(self):
        trace = self.current_run()
        snapshots = [e.payload["note"] for e in trace.events_of_type("plan-update")
                     if "plan_after" in e.payload]
        assert snapshots == ["created", "optimized"]
        assert render_run_report(compute_run_metrics([trace])) == V1_REPORT
        assert replay_trace(trace) == replay_trace(read_trace(V2_TRACE))
        scores = [e.payload for e in trace.events_of_type("score")]
        assert all(set(p) == {"subtask_id", "metric", "value", "sample_count",
                              "sample_distances"} for p in scores)
        assert [p["value"] for p in scores] == [
            e.payload["value"] for e in read_trace(V2_TRACE).events_of_type("score")]
        # the score events are those of version 3, sample_distances included
        assert scores == [e.payload for e in read_trace(V3_TRACE).events_of_type("score")]

    def test_repeated_samples_are_stored_once_and_expand_back(self):
        trace = self.current_run()
        v3 = read_trace(V3_TRACE).events_of_type("generation")
        generations = trace.events_of_type("generation")
        assert len(generations) == len(v3)
        for event, old in zip(generations, v3):
            outputs, samples = event.payload["outputs"], old.payload["outputs"]
            # an index only where a sample repeats; without one, outputs are the samples
            assert ("sample_index" in event.payload) == (len(set(samples)) < len(samples))
            index = event.payload.get("sample_index", range(len(outputs)))
            assert len(set(outputs)) == len(outputs) and index[0] == 0
            assert [outputs[k] for k in index] == samples
        # every stability measure of this fixture repeats one sample five times
        stability = [e.payload for e in generations if e.payload["purpose"] == "stability"]
        assert stability and all(p["sample_index"] == [0] * 5 for p in stability)
        counts = [e.payload["count"] for e in trace.events_of_type("embedding")]
        assert counts == [1] * len(stability)

    @pytest.mark.parametrize("sample_index, match", [
        ([0, 0], "2 entries for 3 samples"),
        ([0, 2, 1], "onto the outputs"),
        ([0, 0, 0], "onto the outputs"),
        (None, "2 entries for 3 samples"),
    ])
    def test_bad_sample_index_is_malformed(self, sample_index, match):
        # None: no sample_index, so the two outputs would have to be the three samples
        payload = {"subtask_id": "a", "purpose": "stability", "sample_count": 3,
                   "outputs": ["x", "y"]}
        if sample_index is not None:
            payload["sample_index"] = sample_index
        trace = ExecutionTrace(header={"version": 4},
                               events=(TraceEvent(0, "generation", payload, 0.0),))
        with pytest.raises(MalformedTraceError, match=match):
            replay_trace(trace)

    def executed_a_events(self):
        return [
            TraceEvent(0, "plan-update", {"note": "created", "update": None, "plan_after": self.plan().to_json_dict()}, 0.0),
            TraceEvent(1, "status-change", {"subtask_id": "a", "from": "pending", "to": "stable-prompt-ready"}, 0.0),
            TraceEvent(2, "status-change", {"subtask_id": "a", "from": "stable-prompt-ready", "to": "executed-ok"}, 0.0),
        ]

    def test_delta_update_is_applied_to_the_current_plan(self):
        update = {"source_subtask": "a", "kind": "propagate-success", "targets": ["b"], "payload": "use units"}
        events = self.executed_a_events() + [
            TraceEvent(3, "plan-update", {"note": "propagate-success", "update": update}, 0.0),
        ]
        plan = replay_trace(make_trace(events)).plan
        assert plan.subtask("a").status is SubtaskStatus.EXECUTED_OK
        assert plan.subtask("b").injected_notes == ("use units",)

    @pytest.mark.parametrize("payload", [
        {"note": "no-op"},
        {"note": "no-op", "update": None},
        {"note": "propagate-success", "update": {"source_subtask": "a", "kind": "propagate-success", "targets": ["ghost"], "payload": "x"}},
        {"note": "no-op", "update": {"source_subtask": "ghost", "kind": "no-op", "targets": [], "payload": ""}},
        # read as its characters, "b" would name the pending subtask b
        {"note": "propagate-success", "update": {"source_subtask": "a", "kind": "propagate-success", "targets": "b", "payload": "x"}},
        {"note": "created", "plan_after": {"task_description": "t", "subtasks": [
            {"id": "a", "description": "first step."},
            {"id": "b", "description": "second step.", "dependencies": "a"}]}},
        {"note": "created", "plan_after": {"task_description": "t", "subtasks": [
            {"id": "a", "description": "first step.", "owner": "me"}]}},
    ])
    def test_delta_without_update_or_with_unknown_target_is_malformed(self, payload):
        events = self.executed_a_events() + [TraceEvent(3, "plan-update", payload, 0.0)]
        with pytest.raises(MalformedTraceError):
            replay_trace(make_trace(events))

    def test_delta_before_any_plan_is_malformed(self):
        update = {"source_subtask": "a", "kind": "no-op", "targets": [], "payload": ""}
        events = [TraceEvent(0, "plan-update", {"note": "no-op", "update": update}, 0.0)]
        with pytest.raises(MalformedTraceError, match="before any plan"):
            replay_trace(make_trace(events))

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
from promptor.prompt import ModularPrompt, PromptComponentKind, replace_component
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
# The same run as written by trace version 4, whose score events list one
# mean distance per sample (sample_distances).
V4_TRACE = Path(__file__).parent / "data" / "trace_v4_strategy_shift.jsonl"
# The same run as written by trace version 5 before its records left out the
# fields that hold their defaults and the optimizer's snapshot of an
# unchanged plan.
V5_TRACE = Path(__file__).parent / "data" / "trace_v5_strategy_shift.jsonl"
# The same run as written by trace version 6, whose generation events write a
# text the trace already holds as its ordinal.
V6_TRACE = Path(__file__).parent / "data" / "trace_v6_strategy_shift.jsonl"
V1_REPORT = """runs: 1
execution success rate: 1.000000
completion rate: 1.000000 (1/1 reference checks passed)
stability-success pairs: 3
pearson_r: n/a (correlation undefined for a constant series)

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


def written_outputs(trace):
    """Each generation event's outputs, with every ordinal replaced by the
    text it numbers: the texts written in full, counted in trace order."""
    texts, resolved = [], []
    for event in trace.events_of_type("generation"):
        outputs = []
        for output in event.payload["outputs"]:
            if type(output) is str:
                texts.append(output)
            outputs.append(texts[output] if type(output) is int else output)
        resolved.append(outputs)
    return resolved


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


# texts that look like ordinals or like other JSON values, blanks among them
OUTPUT_TEXTS = st.one_of(st.sampled_from(["", " ", "\n", "0", "1", "7", "-1", "1.0", "true",
                                          "null", "[0]", "\"7\""]),
                         st.text(max_size=6))


class TestOutputsByReference:
    def generation(self, k, outputs, purpose="execution"):
        return {"subtask_id": f"s{k}", "purpose": purpose, "fingerprint": "f",
                "temperature": 1.0, "sample_count": len(outputs), "outputs": outputs}

    @given(st.lists(st.lists(OUTPUT_TEXTS, min_size=1, max_size=5, unique=True), max_size=8))
    def test_outputs_round_trip_through_a_file(self, tmp_path_factory, draws):
        path = tmp_path_factory.getbasetemp() / "outputs.jsonl"
        payloads = [self.generation(k, outputs) for k, outputs in enumerate(draws)]
        given_payloads = json.loads(json.dumps(payloads))
        with TraceWriter({"run": "r"}, path=path) as writer:
            for payload in payloads:
                writer.emit("generation", payload)
            in_memory = writer.trace()
        # the callers' payloads keep their texts
        assert payloads == given_payloads
        parsed = read_trace(path)
        assert canonical_trace_bytes(parsed) == canonical_trace_bytes(in_memory)
        assert written_outputs(parsed) == draws
        # each text is written in full once, and each later copy as its ordinal
        written = [o for e in parsed.events for o in e.payload["outputs"] if type(o) is str]
        assert written == list(dict.fromkeys(o for outputs in draws for o in outputs))
        state = replay_trace(parsed)
        assert state.outputs == {f"s{k}": outputs[0] for k, outputs in enumerate(draws)}

    def test_never_repeating_outputs_are_written_as_in_version_5(self):
        payloads = [self.generation(k, [f"answer {k}.{j}" for j in range(3)], "stability")
                    for k in range(4)]
        writer = TraceWriter({"run": "r"})
        for payload in payloads:
            writer.emit("generation", payload)
        events = writer.trace().events
        assert [json.dumps(e.payload, sort_keys=True) for e in events] == [
            json.dumps(p, sort_keys=True) for p in payloads]

    def test_numbering_follows_the_writer_not_the_emitters(self):
        writer = TraceWriter({"run": "r"})
        writer.emit("generation", self.generation(0, ["a", "b"]))
        writer.emit("warning", {"reason": "x", "outputs": ["a"]})
        writer.emit("generation", self.generation(1, ["b", "c", "a"]))
        writer.emit("generation", self.generation(2, ["c"]))
        outputs = [e.payload["outputs"] for e in writer.trace().events]
        assert outputs == [["a", "b"], ["a"], [1, "c", 0], [2]]

    def test_version_6_fixture_replays_to_the_same_report(self):
        trace = read_trace(V6_TRACE)
        assert trace.header["version"] == 6
        executions = [e.payload["outputs"] for e in trace.events_of_type("generation")
                      if e.payload["purpose"] == "execution"]
        # each execution repeats its stability samples' text
        assert executions and all(type(o) is int for outputs in executions for o in outputs)
        assert render_run_report(compute_run_metrics([trace])) == V1_REPORT
        assert replay_trace(trace) == replay_trace(read_trace(V5_TRACE))

    @pytest.mark.parametrize("version, outputs, match", [
        (5, [7], "output 7 is not a text$"),
        (5, ["a", None], "output None is not a text$"),
        (6, [1], "output 1 is not a text or the ordinal of an earlier one"),
        (6, [-1], "output -1 is not"),
        (6, [True], "output True is not"),
        (6, [0.0], "output 0.0 is not"),
        (6, ["7", [0]], r"output \[0\] is not"),
        (6, "ab", "outputs must be a list"),
    ])
    def test_an_output_that_is_no_text_is_malformed(self, version, outputs, match):
        events = (TraceEvent(0, "generation", self.generation(0, ["x"], "review"), 0.0),
                  TraceEvent(1, "generation", self.generation(1, outputs), 0.0))
        with pytest.raises(MalformedTraceError, match=f"event 1: {match}"):
            replay_trace(ExecutionTrace({"version": version}, events))


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

    @pytest.mark.parametrize("change, match", [
        ({"seq": "3"}, "got '3' and 1.5"),
        ({"seq": 4.9}, "got 4.9 and 1.5"),
        ({"seq": True}, "got True and 1.5"),
        ({"ts": "1.5"}, "got 3 and '1.5'"),
        ({"ts": None}, "got 3 and None"),
        ({"extra": 1}, "keys .*'extra'"),
        ({"type": ["warning"]}, "unknown type"),
    ])
    def test_event_envelope_is_read_without_coercion(self, change, match):
        ev = {"kind": "event", "seq": 3, "type": "warning", "payload": {}, "ts": 1.5}
        with pytest.raises(MalformedTraceError, match=f"line 2: bad event record: .*{match}"):
            parse_trace_lines([self.HEADER, json.dumps({**ev, **change})])

    def test_event_envelope_needs_a_timestamp(self):
        ev = {"kind": "event", "seq": 3, "type": "warning", "payload": {}}
        with pytest.raises(MalformedTraceError, match="bad event record: keys"):
            parse_trace_lines([self.HEADER, json.dumps(ev)])

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
        # the optimizer leaves this plan as it is, so only its creation is a snapshot
        assert snapshots == ["created"]
        assert render_run_report(compute_run_metrics([trace])) == V1_REPORT
        assert replay_trace(trace) == replay_trace(read_trace(V2_TRACE))
        scores = [e.payload for e in trace.events_of_type("score")]
        assert all(set(p) == {"subtask_id", "metric", "value", "sample_count",
                              "output_distances"} for p in scores)
        assert [p["value"] for p in scores] == [
            e.payload["value"] for e in read_trace(V2_TRACE).events_of_type("score")]
        # each output's distance is version 3's distance of its first sample
        v3 = [e.payload for e in read_trace(V3_TRACE).events_of_type("score")]
        stability = [e.payload for e in trace.events_of_type("generation")
                     if e.payload["purpose"] == "stability"]
        assert len(scores) == len(v3) == len(stability)
        for score, old, generation in zip(scores, v3, stability):
            index = generation["sample_index"]
            assert score["output_distances"] == [
                old["sample_distances"][index.index(k)] for k in range(len(generation["outputs"]))]
            assert ({k: v for k, v in score.items() if k != "output_distances"}
                    == {k: v for k, v in old.items() if k != "sample_distances"})

    def test_version_4_trace_with_sample_distances_replays_to_the_same_report(self):
        trace, current = read_trace(V4_TRACE), self.current_run()
        assert trace.header["version"] == 4
        scores = [e.payload for e in trace.events_of_type("score")]
        assert scores and all("sample_distances" in p for p in scores)
        report = render_run_report(compute_run_metrics([current]))
        assert render_run_report(compute_run_metrics([trace])) == report == V1_REPORT
        assert replay_trace(trace) == replay_trace(current)
        assert [p["value"] for p in scores] == [
            e.payload["value"] for e in current.events_of_type("score")]

    def test_version_5_trace_with_full_records_replays_to_the_same_report(self):
        trace, current = read_trace(V5_TRACE), self.current_run()
        assert trace.header["version"] == 5
        snapshots = [e.payload["note"] for e in trace.events_of_type("plan-update")
                     if "plan_after" in e.payload]
        assert snapshots == ["created", "optimized"]
        report = render_run_report(compute_run_metrics([current]))
        assert render_run_report(compute_run_metrics([trace])) == report == V1_REPORT
        assert replay_trace(trace) == replay_trace(current)
        # each full prompt record reads as the shorter one written now
        full, compact = ([e.payload["prompt_after"] for e in t.events
                          if e.type in ("revision", "augmentation")] for t in (trace, current))
        assert len(full) == len(compact)
        for old, new in zip(full, compact):
            assert set(old) == {"role", "requirements", "knowledge", "history", "io_spec",
                                "revision"}
            assert len(new) < len(old)
            assert ModularPrompt.from_json_dict(new) == ModularPrompt.from_json_dict(old)

    def test_repeated_samples_are_stored_once_and_expand_back(self):
        trace = self.current_run()
        v3 = read_trace(V3_TRACE).events_of_type("generation")
        generations = trace.events_of_type("generation")
        assert len(generations) == len(v3)
        # each text is written in full once in the whole trace
        written = [o for e in generations for o in e.payload["outputs"] if type(o) is str]
        assert len(set(written)) == len(written)
        for event, outputs, old in zip(generations, written_outputs(trace), v3):
            samples = old.payload["outputs"]
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
        # failure injection: True == 1 and 0.0 == 0, so these map the samples
        # onto the outputs as sets do, but are no list of integer positions
        ([0, True, 0.0], "not a list of integers"),
        ([0, 1.0, 1], "not a list of integers"),
        ({"0": 0, "1": 1, "2": 0}, "not a list of integers"),
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

    @pytest.mark.parametrize("outputs, purpose, distances, match", [
        (["x", "y"], "stability", [0.5], "1 output distances for 2 stability outputs"),
        (["x", "y"], "stability", [0.5, 0.5, 0.5], "3 output distances for 2"),
        (["x", "y"], "execution", [0.5, 0.5], "2 output distances for no stability"),
        (None, None, [0.5], "1 output distances for no stability outputs"),
        (["x", "y"], "stability", None, "replay failed"),
    ])
    def test_score_without_one_distance_per_output_is_malformed(self, outputs, purpose,
                                                                distances, match):
        score = {"subtask_id": "a", "metric": "semantic", "value": 0.5, "sample_count": 3}
        if distances is not None:
            score["output_distances"] = distances
        events = [TraceEvent(1, "score", score, 0.0)]
        if outputs is not None:
            generation = {"subtask_id": "a", "purpose": purpose, "sample_count": 3,
                          "outputs": outputs, "sample_index": [0, 1, 0]}
            events.insert(0, TraceEvent(0, "generation", generation, 0.0))
        trace = ExecutionTrace(header={"version": 5}, events=tuple(events))
        with pytest.raises(MalformedTraceError, match=match):
            replay_trace(trace)
        # version 4 reads only the score's value
        assert replay_trace(ExecutionTrace({"version": 4}, tuple(events))).scores == {"a": [0.5]}

    def test_version_6_prompt_changes_apply_to_the_current_prompt(self):
        prompt = self.prompt()
        role = replace_component(prompt, PromptComponentKind.ROLE, "checker")
        required = replace_component(role, PromptComponentKind.REQUIREMENTS, ["a", "b"])
        augmented = replace_component(required, PromptComponentKind.REQUIREMENTS,
                                      required.requirements + ("show units",))
        other = ModularPrompt(role="elsewhere", revision=4)
        events = [
            TraceEvent(0, "revision", {"subtask_id": "a", "component": "initial",
                                       "prompt_after": prompt.to_json_dict()}, 0.0),
            TraceEvent(1, "revision", {"subtask_id": "a", "component": "role",
                                       "value": "checker"}, 0.0),
            TraceEvent(2, "revision", {"subtask_id": "a", "component": "requirements",
                                       "value": ["a", "b"]}, 0.0),
            TraceEvent(3, "augmentation", {"subtask_id": "a", "clause": "show units"}, 0.0),
            # a prompt_after is taken as it is, delta or not
            TraceEvent(4, "revision", {"subtask_id": "b", "component": "knowledge",
                                       "value": "ignored", "prompt_after": other.to_json_dict()}, 0.0),
        ]
        state = replay_trace(ExecutionTrace({"version": 6}, tuple(events)))
        assert state.prompts == {"a": augmented, "b": other}
        assert augmented.revision == 3
        assert state.refinements == {"a": 2, "b": 1} and state.augmentations == {"a": 1}

    @pytest.mark.parametrize("payload, match", [
        ({"subtask_id": "b", "component": "role", "value": "x"}, "revision delta before any prompt of subtask 'b'"),
        ({"subtask_id": "a", "component": "role", "value": ["x"]}, "bad role change"),
        ({"subtask_id": "a", "component": "knowledge", "value": 7}, "bad knowledge change"),
        ({"subtask_id": "a", "component": "requirements", "value": "x"}, "bad requirements change"),
        ({"subtask_id": "a", "component": "requirements", "value": ["x", 7]}, "bad requirements change"),
        ({"subtask_id": "a", "component": "role", "value": " "}, "replay failed"),
        ({"subtask_id": "a", "component": "tone", "value": "x"}, "replay failed"),
        ({"subtask_id": "a", "component": "initial"}, "replay failed"),
        ({"subtask_id": "a", "component": "role"}, "replay failed"),
        ({"subtask_id": "a", "clause": 7}, "bad requirements change"),
        ({"subtask_id": "a", "clause": ""}, "replay failed"),
    ])
    def test_a_bad_version_6_prompt_change_is_malformed(self, payload, match):
        event_type = "augmentation" if "clause" in payload else "revision"
        events = (TraceEvent(0, "revision", {"subtask_id": "a", "component": "initial",
                                             "prompt_after": self.prompt().to_json_dict()}, 0.0),
                  TraceEvent(1, event_type, payload, 0.0))
        with pytest.raises(MalformedTraceError, match=f"event 1: {match}"):
            replay_trace(ExecutionTrace({"version": 6}, events))
        # before version 6 every change carries its prompt_after
        with pytest.raises(MalformedTraceError, match="event 1: replay failed"):
            replay_trace(ExecutionTrace({"version": 5}, events))

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
        {"note": "created", "plan_after": {"task_description": "t", "subtasks": [
            {"id": "a", "description": "first step.", "status": "done"}]}},
        {"note": "created", "plan_after": {"task_description": "t", "subtasks": [
            {"id": "a", "description": "first step.", "granularity": True}]}},
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

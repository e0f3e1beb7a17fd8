import argparse
import json
import math
import re
from pathlib import Path

import pytest

from promptor import agent_prompts as ap
from promptor.cli import build_parser, main
from promptor.config import PipelineConfig
from promptor.errors import ZeroVectorError
from promptor.metrics import LARGEST_DISTANCE
from promptor.orchestrator import MAX_SAMPLE_COUNT
from promptor.prompt import render_prompt
from promptor.trace import TRACE_VERSION, canonical_trace_bytes, read_trace, replay_trace

from .pipeline_fixture import executor_prompt, pipeline_config_dict
from .stub_server import StubApiServer, StubConfig
from .test_reports import synthetic_trace


DATA = Path(__file__).parent / "data"

HTTP_SPEC = {"kind": "http", "endpoint_url": "http://localhost:1", "model_name": "m"}

def scripted(**spec):
    return {"generator": {"kind": "scripted", **spec}}


def behavior(**entry):
    return {"prompt": "p", "outcomes": [["a", 1.0]], **entry}


def malformed(command, changes, path, spec=""):
    """One malformed input: its subcommand, the keys changed in a valid input
    file and the field path the error names. Its id is the subcommand and the
    field path, and spec, such as the backend spec, where two rows share those."""
    return pytest.param(command, changes, path, id="-".join(filter(None, (command, path, spec))))


MALFORMED_INPUTS = [
    malformed("run", scripted(behaviours=[behavior()]), "behaviours"),
    malformed("run", scripted(behaviors=[behavior(seed="5")]), "behaviors[0].seed"),
    malformed("run", scripted(behaviors=[behavior(outcomes=[[7, True]])]),
              "behaviors[0].outcomes[0][0]"),
    malformed("run", scripted(behaviors=[behavior(prompt_fingerprint="f")]), "behaviors[0]"),
    malformed("run", scripted(prefix_rules=[behavior(prefix="### Planner")]), "prefix_rules[0]"),
    malformed("run", {"max_iterations": 2.5}, "max_iterations"),
    malformed("run", {"seed": "3"}, "seed"),
    malformed("run", {"smaples": 5}, "smaples"),
    malformed("run", {"template": "no-such-template"}, "template"),
    malformed("run", {"max_tokens": 0}, "max_tokens"),
    malformed("run", {"reference_tolerance": -0.5}, "reference_tolerance"),
    # json reads NaN and Infinity, which no number field takes
    malformed("run", {"kl_alpha": math.nan}, "kl_alpha"),
    malformed("run", scripted(behaviors=[behavior(outcomes=[["a", math.nan], ["b", 1.0]])]),
              "behaviors[0].outcomes[0][1]"),
    malformed("run", scripted(behaviors=[behavior(outcomes=[["a", 1.0], ["b", math.inf]])]),
              "behaviors[0].outcomes[1][1]"),
    malformed("eval-stability", {"role": 5}, "role"),
    malformed("eval-stability", {"requirements": "abc"}, "requirements"),
    malformed("eval-stability", {"requirements": ["Say it.", 5]}, "requirements[1]"),
    malformed("eval-stability", {"revision": 2.9}, "revision"),
    malformed("eval-stability", {"revision": -1}, "revision", "negative"),
    malformed("eval-stability", {"role": "  "}, "role", "blank"),
    malformed("eval-stability", {"io_spec": {"input_schema": 5}}, "io_spec.input_schema"),
    malformed("eval-stability", {"io_spec": {"required_keys": 5}}, "io_spec.required_keys"),
    malformed("eval-stability", {"io_spec": {"output_fromat": "numeric"}},
              "io_spec.output_fromat"),
    malformed("run", {"embedder": {"kind": "hash-embedder", "dim": 32, "endpoint_url": 5}},
              "unknown field dim"),
    malformed("run", {"generator": {**HTTP_SPEC, "endpoint_url": "localhost:8000/v1"}},
              "endpoint_url", "generator"),
    malformed("run", {"embedder": {**HTTP_SPEC, "endpoint_url": "ftp://h/v1"}},
              "endpoint_url", "embedder"),
    malformed("run", {"generator": {**HTTP_SPEC, "max_retries": -1}}, "max_retries",
              "generator"),
]


def test_malformed_input_ids_are_unique():
    # adding or deleting a row renames no other case
    ids = [row.id for row in MALFORMED_INPUTS]
    assert len(set(ids)) == len(ids)


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    return write_json(tmp_path / "config.json", pipeline_config_dict())


class TestRun:
    def test_run_reports_success(self, tmp_path, config_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code, out, err = invoke(
            ["run", "--config", config_path, "--trace", str(trace_path)], capsys
        )
        assert code == 0
        assert err == ""
        assert out.startswith("runs: 1\nexecution success rate: 1.000000\n")
        assert "completion rate: 1.000000 (1/1 reference checks passed)" in out
        assert "final output: '87'" in out
        trace = read_trace(trace_path)
        assert trace.header["task"] == pipeline_config_dict()["task"]
        assert trace.header["modules"]["knowledge_generator"] is False

    def test_out_flag_redirects_report(self, tmp_path, config_path, capsys):
        report_path = tmp_path / "report.txt"
        code, out, _ = invoke(
            ["run", "--config", config_path, "--out", str(report_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert "execution success rate: 1.000000" in report_path.read_text()

    def test_same_seed_gives_identical_traces(self, tmp_path, config_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code, _, _ = invoke(
                ["run", "--config", config_path, "--trace", str(path), "--seed", "7"],
                capsys,
            )
            assert code == 0
        first, second = (canonical_trace_bytes(read_trace(p)) for p in paths)
        assert first == second

    def test_seed_override_lands_in_header(self, tmp_path, config_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        invoke(["run", "--config", config_path, "--trace", str(trace_path),
                "--seed", "11"], capsys)
        assert read_trace(trace_path).header["seed"] == 11

    def test_disable_flag_echoed_in_header(self, tmp_path, config_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code, _, _ = invoke(
            ["run", "--config", config_path, "--trace", str(trace_path),
             "--disable", "reviewer", "--disable", "subtask-optimizer"],
            capsys,
        )
        assert code == 0
        modules = read_trace(trace_path).header["modules"]
        assert modules["reviewer"] is False
        assert modules["subtask_optimizer"] is False
        assert modules["plan_updater"] is True

    def test_disable_takes_kebab_module_names(self, tmp_path, capsys):
        # start from all modules on; the fixture config turns one off
        config_path = write_json(tmp_path / "all-on.json", pipeline_config_dict(modules={}))
        trace_path = tmp_path / "run.jsonl"
        code, _, _ = invoke(
            ["run", "--config", config_path, "--trace", str(trace_path),
             "--disable", "knowledge-generator", "--disable", "reviewer"],
            capsys,
        )
        assert code == 0
        assert read_trace(trace_path).header["modules"] == {
            "subtask_optimizer": True,
            "reviewer": False,
            "plan_updater": True,
            "knowledge_generator": False,
        }

    @pytest.mark.parametrize("source", ["readme", "pipeline-fixture"])
    def test_the_trace_header_is_the_config_and_reruns_the_run(self, tmp_path, capsys, source):
        config = (readme_json_block("### Pipeline config") if source == "readme"
                  else pipeline_config_dict())
        trace_path = tmp_path / "run.jsonl"
        code, report, err = invoke(
            ["run", "--config", write_json(tmp_path / "cfg.json", config),
             "--trace", str(trace_path), "--seed", "3", "--tau", "0.75", "--samples", "4",
             "--disable", "reviewer"], capsys)
        assert (code, err) == (0, "")
        header = json.loads(trace_path.read_text(encoding="utf-8").splitlines()[0])
        rerun = {key: value for key, value in header.items()
                 if key not in ("kind", "version", "created_at")}
        used = {**config, "seed": 3, "tau": 0.75, "samples": 4,
                "modules": {**config.get("modules", {}), "reviewer": False}}
        assert PipelineConfig.from_json_dict(rerun) == PipelineConfig.from_json_dict(used)
        rerun_path = write_json(tmp_path / "rerun.json", rerun)
        assert invoke(["run", "--config", rerun_path], capsys) == (0, report, "")

    def test_a_config_file_reaches_the_header_whole(self, tmp_path, capsys):
        config_path = write_json(tmp_path / "kl.json",
                                 pipeline_config_dict(metric="kl", kl_alpha=0.5))
        trace_path = tmp_path / "run.jsonl"
        code, _, _ = invoke(["run", "--config", config_path, "--trace", str(trace_path)],
                            capsys)
        assert code == 0
        header = read_trace(trace_path).header
        assert (header["metric"], header["kl_alpha"]) == ("kl", 0.5)
        assert header["generator"] == pipeline_config_dict()["generator"]

    def test_flags_override_the_file_before_it_is_checked(self, tmp_path, capsys):
        # one sample is no measurement, but the flag replaces it before the
        # file is read
        config_path = write_json(tmp_path / "one.json", pipeline_config_dict(samples=1))
        trace_path = tmp_path / "run.jsonl"
        code, out, err = invoke(["run", "--config", config_path, "--samples", "5",
                                 "--trace", str(trace_path)], capsys)
        assert (code, err) == (0, "")
        assert "run 1: succeeded" in out
        assert read_trace(trace_path).header["samples"] == 5

    def test_disable_unknown_module_is_usage_error(self, config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", config_path, "--disable", "summarizer"])
        assert exc.value.code == 1

    def test_aborted_run_still_writes_a_terminal_status(self, tmp_path, capsys):
        # the planner answers, but no behavior covers the executor prompt
        # that stability sampling sends, so the run aborts mid-way
        config = pipeline_config_dict()
        config["generator"] = {"kind": "scripted",
                               "behaviors": config["generator"]["behaviors"][:1]}
        config_path = write_json(tmp_path / "planner-only.json", config)
        trace_path = tmp_path / "aborted.jsonl"
        code, _, err = invoke(
            ["run", "--config", config_path, "--trace", str(trace_path)], capsys
        )
        assert code == 3
        assert err.startswith("backend error:")
        events = read_trace(trace_path).events
        aborted = [e for e in events if e.type == "warning"
                   and e.payload["reason"] == "run-aborted"]
        assert len(aborted) == 1
        assert aborted[0].payload["error"].startswith("UnknownPromptError: ")
        assert events[-1].payload == {"subtask_id": "__run__", "from": "running",
                                      "to": "failed", "final_output": ""}
        code, out, _ = invoke(["replay", "--trace", str(trace_path)], capsys)
        assert code == 0
        assert "run 1: failed\n" in out


    def test_a_malformed_plan_fails_the_run_without_a_traceback(self, tmp_path, capsys):
        config = pipeline_config_dict()
        config["generator"]["behaviors"][0]["outcomes"] = [
            [json.dumps({"subtasks": [{"id": "parse", "description": 5}]}), 1.0]]
        config_path = write_json(tmp_path / "bad-plan.json", config)
        trace_path = tmp_path / "bad-plan.jsonl"
        code, out, err = invoke(["run", "--config", config_path, "--trace", str(trace_path)],
                                capsys)
        assert (code, err) == (0, "")
        assert "run 1: failed\n" in out
        reasons = [e.payload["reason"] for e in read_trace(trace_path).events
                   if e.type == "warning"]
        assert "planning-failure" in reasons and "run-aborted" not in reasons

    def test_an_empty_stability_sample_does_not_abort_the_run(self, tmp_path, capsys):
        # parse's stability draws mix "100" with a blank answer; execution
        # at temperature 0 takes "100"
        config = pipeline_config_dict(
            execution_temperature=0.0,
            modules={"knowledge_generator": False, "reviewer": False})
        config["generator"]["behaviors"][1]["outcomes"] = [["100", 0.75], ["   ", 0.25]]
        config_path = write_json(tmp_path / "blank.json", config)
        for metric in ("semantic", "kl"):
            trace_path = tmp_path / f"{metric}.jsonl"
            code, out, err = invoke(["run", "--config", config_path, "--metric", metric,
                                     "--trace", str(trace_path)], capsys)
            assert (code, err) == (0, "")
            assert "run 1: succeeded" in out
            events = read_trace(trace_path).events
            draws = [e.payload["outputs"] for e in events if e.type == "generation"
                     and e.payload["purpose"] == "stability" and e.payload["subtask_id"] == "parse"]
            # a text is written in full where it first appears, later as its ordinal
            assert any(type(text) is str and not text.strip() for outs in draws for text in outs)
            assert any(e.type == "score" and e.payload["subtask_id"] == "parse" for e in events)


    def test_a_revision_that_repeats_its_outputs_sends_no_embedding_request(self, tmp_path,
                                                                            capsys):
        # parse's second measurement draws only texts its gate has embedded
        code, err, trace, requests = run_against_embedding_stub(tmp_path, capsys, "100")
        assert (code, err) == (0, "")
        assert replay_trace(trace).run_status == "succeeded"
        measured = [e.payload["subtask_id"] for e in trace.events_of_type("score")]
        assert measured == ["parse", "parse", "net", "balance"]
        assert requests == len(measured) - 1
        assert [e.payload["count"] for e in trace.events_of_type("embedding")] == [1, 1, 1]


class TestReplayAndReport:
    def test_replay_reproduces_the_run_report(self, tmp_path, config_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        _, run_report, _ = invoke(
            ["run", "--config", config_path, "--trace", str(trace_path)], capsys
        )
        code, replay_report, _ = invoke(["replay", "--trace", str(trace_path)], capsys)
        assert code == 0
        assert replay_report == run_report
        code, report, _ = invoke(["report", "--trace", str(trace_path)], capsys)
        assert code == 0
        assert report == run_report

    def test_run_and_replay_print_the_same_deviation_line(self, tmp_path, capsys):
        # parse's stability samples mix two answers, so its variance and D
        # are not 0; execution at temperature 0 takes "100"
        config = pipeline_config_dict(
            execution_temperature=0.0,
            modules={"knowledge_generator": False, "reviewer": False})
        config["generator"]["behaviors"][1]["outcomes"] = [["100", 0.75], ["100.0", 0.25]]
        config_path = write_json(tmp_path / "mixed.json", config)
        trace_path = str(tmp_path / "run.jsonl")
        code, run_report, err = invoke(["run", "--config", config_path,
                                        "--trace", trace_path], capsys)
        assert (code, err) == (0, "")
        (line,) = [line for line in run_report.splitlines() if line.startswith("  deviation:")]
        assert line.startswith("  deviation: D=0.") and "D=0.000000" not in line
        code, replay_report, _ = invoke(["replay", "--trace", trace_path], capsys)
        assert (code, replay_report) == (0, run_report)

    def test_replay_reads_every_trace_it_is_given(self, capsys):
        # replay is another name for report: each --trace is one more run
        argv = ["--trace", str(DATA / "trace_v6_strategy_shift.jsonl"),
                "--trace", str(DATA / "trace_v7_strategy_shift.jsonl")]
        code, out, err = invoke(["replay", *argv], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("runs: 2\n") and "\nrun 2: succeeded\n" in out
        assert invoke(["report", *argv], capsys) == (0, out, "")

    @pytest.mark.parametrize("name", ["report", "replay"])
    def test_usage_names_the_command_typed(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: promptor {name} [-h] --trace TRACE")
        with pytest.raises(SystemExit) as exc:
            main([name, "--out", "report.txt"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: promptor {name} [-h]")
        assert f"\npromptor {name}: error: the following arguments are required: --trace" in err

    def test_report_aggregates_a_directory(self, tmp_path, config_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        for name in ("a", "b"):
            invoke(["run", "--config", config_path,
                    "--trace", str(runs / f"{name}.jsonl")], capsys)
        code, out, _ = invoke(["report", "--trace", str(runs)], capsys)
        assert code == 0
        assert out.startswith("runs: 2\n")
        assert out.count("run ") >= 2

    def test_report_holds_one_parsed_trace_at_a_time(self, monkeypatch, capsys):
        import weakref

        from promptor import cli

        read = []

        def read_and_watch(path):
            # every trace read before this one is gone already
            assert [ref for ref in read if ref() is not None] == []
            trace = read_trace(path)
            read.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(cli, "read_trace", read_and_watch)
        code, out, err = invoke(["report", "--trace", str(DATA)], capsys)
        assert (code, err) == (0, "")
        files = sorted(DATA.glob("*.jsonl"))
        assert out.startswith(f"runs: {len(files)}\n") and len(read) == len(files) > 1
        assert all(ref() is None for ref in read)

    def test_report_on_a_directory_without_traces_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no trace here", encoding="utf-8")
        code, out, err = invoke(["report", "--trace", str(tmp_path)], capsys)
        assert (code, out, err) == (2, "", "config error: no trace files found\n")

    def test_report_correlation_matches_stdlib_oracle(self, tmp_path, capsys):
        import statistics

        stabilities = [0.2, 0.35, 0.55, 0.65, 0.8, 0.95]
        successes = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        runs = tmp_path / "runs"
        runs.mkdir()
        for k, (s, ok) in enumerate(zip(stabilities, successes)):
            synthetic_trace(s, ok == 1.0, path=runs / f"{k}.jsonl")
        code, out, _ = invoke(["report", "--trace", str(runs)], capsys)
        assert code == 0
        oracle = statistics.correlation(stabilities, successes)
        assert f"\nstability-success pairs: 6\npearson_r: {oracle:.10f}\n\n" in out

    @pytest.mark.parametrize("trace", sorted(DATA.glob("trace_v*_strategy_shift.jsonl")) + [DATA],
                             ids=lambda path: path.name)
    def test_report_gives_an_undefined_r_as_not_available(self, trace, capsys):
        # every scored subtask of the committed runs succeeded: a constant series
        code, out, err = invoke(["report", "--trace", str(trace)], capsys)
        assert (code, err) == (0, "")
        assert "\npearson_r: n/a (correlation undefined for a constant series)\n\n" in out

    def test_a_metric_error_is_exit_3_not_a_config_error(self, monkeypatch, capsys):
        def no_metric(traces):
            raise ZeroVectorError("cosine distance undefined for a zero vector")

        monkeypatch.setattr("promptor.cli.compute_run_metrics", no_metric)
        code, out, err = invoke(["replay", "--trace", str(DATA / "trace_v4_strategy_shift.jsonl")],
                                capsys)
        assert (code, out) == (3, "")
        assert err == "metric error: cosine distance undefined for a zero vector\n"


def test_readme_pipeline_config_runs_replays_and_scores_the_prompt_file(tmp_path, capsys):
    # the same check as the CI step that runs both README blocks through
    # the console script
    cfg = write_json(tmp_path / "cfg.json", readme_json_block("### Pipeline config"))
    prompt = write_json(tmp_path / "prompt.json", readme_json_block("### Prompt file"))
    trace_path = str(tmp_path / "run.jsonl")
    code, report, err = invoke(["run", "--config", cfg, "--trace", trace_path], capsys)
    assert (code, err) == (0, "")
    assert "run 1: succeeded" in report and "reference check: pass" in report
    assert read_trace(trace_path).events_of_type("warning") == ()
    assert invoke(["replay", "--trace", trace_path], capsys) == (0, report, "")
    code, out, err = invoke(["eval-stability", prompt, "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("verdict: stable\n")


def test_readme_cli_synopsis_names_every_subcommand_and_option():
    # the block under "## CLI": one "promptor <command>" line per subcommand,
    # continued on indented lines
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    named: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("promptor "):
            # "report|replay": a subcommand and its aliases share their options
            options = set()
            named.update(dict.fromkeys(line.split()[1].split("|"), options))
        options |= set(re.findall(r"--[a-z-]+", line))
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    # replay is another name for report: the same handler and options
    report, replay = commands.choices["report"], commands.choices["replay"]
    assert replay.get_default("func") is report.get_default("func")
    defined = {name: {option for action in parser._actions for option in action.option_strings
                      if option.startswith("--") and option != "--help"}
               for name, parser in commands.choices.items()}
    assert named == defined



def test_the_metric_choices_are_the_metrics_with_a_largest_distance(tmp_path, capsys):
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for name in ("run", "eval-stability"):
        [metric] = [action for action in commands.choices[name]._actions
                    if "--metric" in action.option_strings]
        assert metric.choices == tuple(LARGEST_DISTANCE)
    # a metric outside that list is a config error that names the key
    config_path = write_json(tmp_path / "judge.json", pipeline_config_dict(metric="judge"))
    code, out, err = invoke(["run", "--config", config_path], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "metric must be 'semantic' or 'kl'" in err

class TestEvalStability:
    def make_prompt_file(self, tmp_path):
        prompt = executor_prompt("eval", "Say the word.")
        return prompt, write_json(tmp_path / "prompt.json", prompt.to_json_dict())

    def scripted_config(self, tmp_path, prompt, outcomes):
        cfg = pipeline_config_dict(
            task="standalone stability evaluation",
            generator={"kind": "scripted", "behaviors": [
                {"prompt": render_prompt(prompt), "outcomes": outcomes}
            ]},
        )
        cfg.pop("reference_answer")
        cfg.pop("reference_match")
        return write_json(tmp_path / "eval.json", cfg)

    def test_stable_prompt(self, tmp_path, capsys):
        prompt, prompt_path = self.make_prompt_file(tmp_path)
        cfg = self.scripted_config(tmp_path, prompt, [["omega", 1.0]])
        code, out, _ = invoke(["eval-stability", prompt_path, "--config", cfg], capsys)
        assert code == 0
        assert "stability: 1.0000000000" in out
        assert "samples: 5" in out
        assert out.rstrip().endswith("verdict: stable")

    def test_unstable_prompt(self, tmp_path, capsys):
        prompt, prompt_path = self.make_prompt_file(tmp_path)
        cfg = self.scripted_config(
            tmp_path, prompt, [["alpha insight", 0.5], ["beta horizon", 0.5]]
        )
        code, out, _ = invoke(["eval-stability", prompt_path, "--config", cfg], capsys)
        assert code == 0
        assert out.rstrip().endswith("verdict: unstable")

    def test_tau_and_samples_overrides(self, tmp_path, capsys):
        prompt, prompt_path = self.make_prompt_file(tmp_path)
        cfg = self.scripted_config(tmp_path, prompt, [["omega", 1.0]])
        code, out, _ = invoke(
            ["eval-stability", prompt_path, "--config", cfg,
             "--tau", "0.99", "--samples", "7"],
            capsys,
        )
        assert code == 0
        assert "samples: 7" in out
        assert "tau: 0.99" in out

    def test_unreadable_prompt_is_config_error(self, tmp_path, config_path, capsys):
        code, _, err = invoke(
            ["eval-stability", str(tmp_path / "absent.json"), "--config", config_path], capsys
        )
        assert code == 2
        assert err.startswith("config error:")


def readme_json_block(heading: str) -> dict:
    """The first JSON block under one of README's headings."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def eval_against_stub(tmp_path, capsys, backend, body):
    """eval-stability's exit code and stderr with one backend, generator or
    embedder, served by a stub that answers every request with body."""
    prompt = executor_prompt("eval", "Say the word.")
    prompt_path = write_json(tmp_path / "prompt.json", prompt.to_json_dict())
    with StubApiServer(StubConfig(raw_response=body)) as server:
        http = {"kind": "http", "endpoint_url": server.base_url, "model_name": "m",
                "max_retries": 0}
        cfg = {"task": "standalone stability evaluation", "samples": 2, backend: http}
        if backend == "embedder":
            # this seed draws both texts, so the embedder is asked for two rows
            cfg["generator"] = {"kind": "scripted", "default": {
                "outcomes": [["alpha", 0.5], ["beta", 0.5]], "seed": 2}}
        config_path = write_json(tmp_path / "http.json", cfg)
        code, _, err = invoke(["eval-stability", prompt_path, "--config", config_path], capsys)
    return code, err


def run_against_embedding_stub(tmp_path, capsys, revised_text, **stub):
    """`run` of the fixture pipeline with its embedder served by a stub: its
    exit code, stderr, trace and the stub's request count. parse's
    samples mix "100" with blanks, so its gate goes to the reviewer once;
    the revision's samples mix revised_text with blanks."""
    config = pipeline_config_dict(execution_temperature=0.0, samples=4, max_iterations=1)
    config["generator"]["behaviors"][1]["outcomes"] = [["100", 0.5], ["  ", 0.5]]
    config["generator"]["prefix_rules"] += [
        {"prefix": "## Role\nYou are the executor agent for subtask 'parse'.\n",
         "outcomes": [[revised_text, 0.5], ["  ", 0.5]]},
        {"prefix": f"{ap.REVIEWER_STABILITY_MARK}\nSubtask: parse\n",
         "outcomes": [[json.dumps({"component": "requirements",
                                   "replacement": "Print the total."}), 1.0]]}]
    trace_path = tmp_path / "run.jsonl"
    with StubApiServer(StubConfig(**stub)) as server:
        config["embedder"] = {"kind": "http", "endpoint_url": server.base_url,
                              "model_name": "m", "max_retries": 0}
        code, _, err = invoke(["run", "--config", write_json(tmp_path / "cfg.json", config),
                               "--trace", str(trace_path)], capsys)
    return code, err, read_trace(trace_path), server.request_count


def bad_config(overrides, named, *flags, id=None):
    """A config mistake: the keys changed in the fixture config (or a whole
    document that is no object), the text its error names and the flags given
    with it. Its id is that text, the flags and id, where rows share those."""
    return pytest.param(overrides, list(flags), named,
                        id="-".join(filter(None, (named, *flags, id))))


class TestExitCodes:
    # correlate and simulate-bound are no subcommands: every report prints
    # the correlation and each run's deviation bound itself
    @pytest.mark.parametrize("argv", [["transmogrify"], ["correlate", "--trace", str(DATA)],
                                      ["simulate-bound", "--config", "sim.json"]],
                             ids=lambda argv: argv[0])
    def test_unknown_subcommand_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = invoke(
            ["run", "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == 2
        assert err.startswith("config error:")

    def test_invalid_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        code, _, err = invoke(["run", "--config", str(bad)], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_wrong_typed_config_value(self, tmp_path, capsys):
        # valid JSON, wrong shapes: still a clean config error, not a crash
        # a fractional sample count used to pass validation and then crash
        # inside the scripted generator
        for payload in ('{"task": [1, 2]}', '{"task": "t", "tau": "0.9"}',
                        json.dumps(pipeline_config_dict(samples=5.5))):
            bad = tmp_path / "typed.json"
            bad.write_text(payload, encoding="utf-8")
            code, _, err = invoke(["run", "--config", str(bad)], capsys)
            assert code == 2
            assert err.startswith("config error:")

    @pytest.mark.parametrize("overrides, flags, named", [
        bad_config({"modules": {"reviewer": "false"}}, "modules.reviewer"),
        bad_config({"modules": {"plan_updater": 0}}, "modules.plan_updater"),
        bad_config({"modules": {"subtask_optimizer": None}}, "modules.subtask_optimizer"),
        bad_config({"generator": {"kind": "scripted",
                                  "behaviors": [{"prompt": 5, "outcomes": [["a", 1.0]]}]}},
                   "behaviors[0].prompt"),
        bad_config({"generator": {"kind": "scripted", "behaviors": [5]}}, "behaviors[0]"),
        bad_config({"generator": {"kind": "scripted", "behaviors": "abc"}}, "behaviors"),
        bad_config({"generator": {"kind": "scripted", "prefix_rules": [{"prefix": None}]}},
                   "prefix_rules[0].prefix"),
        bad_config({"generator": {**HTTP_SPEC, "max_retries": 2.7}}, "max_retries", id="2.7"),
        bad_config({"generator": {**HTTP_SPEC, "max_retries": "5"}}, "max_retries", id="str"),
        bad_config({"embedder": {**HTTP_SPEC, "timeout": True}}, "timeout"),
        bad_config({"embedder": {**HTTP_SPEC, "endpoint_url": 5}}, "endpoint_url"),
        bad_config({"generator": {**HTTP_SPEC, "max_inflght": 8}}, "max_inflght"),
        # a row that is no object is the whole document
        bad_config([pipeline_config_dict()], "must hold a JSON object"),
        # each range check names the config key, which for the sample count
        # is samples, in the file or as a flag
        bad_config({"samples": 1}, "samples"),
        bad_config({}, "samples", "--samples", "1"),
        bad_config({"reviewer_temperature": -1}, "reviewer_temperature"),
        bad_config({"stability_temperature": -1}, "stability_temperature"),
        bad_config({"reask_budget": -1}, "reask_budget"),
        bad_config({"augmentation_retries": -1}, "augmentation_retries"),
    ])
    def test_malformed_config_exits_before_the_trace(self, tmp_path, capsys, overrides, flags,
                                                    named):
        # failure injection: a config mistake stops the run before a trace is
        # opened, and the error names what is wrong as the config writes it
        document = pipeline_config_dict(**overrides) if type(overrides) is dict else overrides
        config = write_json(tmp_path / "bad.json", document)
        trace_path = tmp_path / "never.jsonl"
        code, _, err = invoke(["run", "--config", config, "--trace", str(trace_path), *flags],
                              capsys)
        assert code == 2
        assert err.startswith("config error:") and named in err
        assert not trace_path.exists()

    @pytest.mark.parametrize("command,changes,path", MALFORMED_INPUTS)
    def test_malformed_input_file_writes_nothing(self, tmp_path, config_path, capsys, command,
                                                 changes, path):
        # failure injection: a mistake at any depth of any input file is a
        # config error naming its field, found before a trace or a report is opened
        valid = {"run": pipeline_config_dict(),
                 "eval-stability": executor_prompt("eval", "Say it.").to_json_dict()}
        source = write_json(tmp_path / "input.json", {**valid[command], **changes})
        out = tmp_path / "out"
        out.mkdir()
        argv = ([command, source, "--config", config_path] if command == "eval-stability"
                else [command, "--config", source])
        argv += ["--trace", str(out / "trace.jsonl"), "--out", str(out / "result")]
        code, stdout, err = invoke(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and path in err
        assert stdout == "" and list(out.iterdir()) == []

    def test_samples_above_the_bound_are_a_config_error(self, tmp_path, config_path, capsys):
        trace_path = tmp_path / "never.jsonl"
        code, _, err = invoke(["run", "--config", config_path,
                               "--samples", str(MAX_SAMPLE_COUNT + 1),
                               "--trace", str(trace_path)], capsys)
        assert code == 2
        assert err.startswith("config error:") and "samples" in err
        assert not trace_path.exists()

    @pytest.mark.parametrize("tau", ["nan", "2"])
    def test_a_bad_tau_flag_is_a_config_error_before_the_trace(self, tmp_path, config_path,
                                                               capsys, tau):
        trace_path = tmp_path / "never.jsonl"
        code, out, err = invoke(["run", "--config", config_path, "--tau", tau,
                                 "--trace", str(trace_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error:") and "tau" in err
        assert not trace_path.exists()

    def test_eval_stability_without_config_is_usage_error(self, tmp_path, capsys):
        # no default config: its scripted generator would know no prompt
        prompt = executor_prompt("eval", "Say the word.")
        prompt_path = write_json(tmp_path / "prompt.json", prompt.to_json_dict())
        with pytest.raises(SystemExit) as exc:
            main(["eval-stability", prompt_path])
        assert exc.value.code == 1
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("backend, body", [
        ("generator", b'{"choices":[{"message":{"content":null}},'
                      b'{"message":{"content":"7"}}]}'),
        ("embedder", b'{"data":[{"embedding":[NaN,1.0]},{"embedding":[1.0,0.0]}]}'),
        ("embedder", b'{"data":[{"embedding":[0.0,0.0]},{"embedding":[1.0,0.0]}]}'),
    ])
    def test_malformed_http_reply_is_a_backend_error(self, tmp_path, capsys, backend, body):
        code, err = eval_against_stub(tmp_path, capsys, backend, body)
        assert code == 3
        assert err.startswith("backend error:") and "malformed" in err

    @pytest.mark.parametrize("backend, body, message", [
        ("generator", b'{"choices":[{"message":{"text":"7"}},{"message":{"content":"7"}}]}',
         "malformed chat-completions response: 'content'"),
        ("embedder", b'{"data":[{"vector":[1.0,0.0]},{"embedding":[1.0,0.0]}]}',
         "malformed embeddings response: 'embedding'"),
        ("embedder", b'{"data":[{"embedding":[1.0,0.0]},{"embedding":[1.0,0.0,0.0]}]}',
         "embedding dimensions disagree: [2, 3]"),
    ], ids=["no-content", "no-embedding", "two-lengths"])
    def test_an_http_reply_without_its_fields_is_a_backend_error(self, tmp_path, capsys,
                                                                 backend, body, message):
        code, err = eval_against_stub(tmp_path, capsys, backend, body)
        assert (code, err) == (3, f"backend error: {message}\n")

    def test_a_later_embedding_reply_of_another_dimension_is_a_backend_error(self, tmp_path,
                                                                             capsys):
        # the revision's new text is embedded in a second request, whose
        # vectors the gate scores with the first reply's
        code, err, trace, requests = run_against_embedding_stub(
            tmp_path, capsys, "one hundred", embedding_dim=2, later_embedding_dim=3)
        assert (code, err, requests) == (3, "backend error: embedding dimensions disagree: "
                                            "[2, 3]\n", 2)
        assert [e.payload["dim"] for e in trace.events_of_type("embedding")] == [2]
        assert replay_trace(trace).run_status == "failed"

    def test_malformed_trace(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n", encoding="utf-8")
        code, _, err = invoke(["replay", "--trace", str(garbage)], capsys)
        assert code == 4
        assert err.startswith("malformed trace:")

    @pytest.mark.parametrize("changes", [
        {"reference_tolerance": "abc"}, {"reference_match": "fuzzy"},
        {"reference_answer": 87}, {"reference_tolerance": True},
        {"reference_answer": None, "reference_match": "fuzzy"},
    ])
    def test_malformed_reference_fields_are_a_malformed_trace(self, tmp_path, capsys,
                                                              changes):
        # failure injection: a header reference field of the wrong type or
        # value is neither coerced nor a config error, with or without an answer
        header, *events = (DATA / "trace_v5_strategy_shift.jsonl").read_text(
            encoding="utf-8").splitlines(keepends=True)
        broken = tmp_path / "broken.jsonl"
        broken.write_text(json.dumps({**json.loads(header), **changes}) + "\n"
                          + "".join(events), encoding="utf-8")
        code, out, err = invoke(["replay", "--trace", str(broken)], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("malformed trace:") and repr([*changes.values()][-1]) in err

    @pytest.mark.parametrize("version, kind, change, message", [
        (5, "score", {"value": "x"}, "score value 'x' is not a number"),
        (5, "score", {"value": None}, "score value None is not a number"),
        (5, "score", {"value": True}, "score value True is not a number"),
        (5, "score", {"value": [0.5]}, "score value [0.5] is not a number"),
        # 1 - value is the variance the deviation line reads
        (5, "score", {"value": 1.5}, "semantic score value 1.5 is outside [-1, 1]"),
        (5, "score", {"value": math.nan}, "semantic score value nan is outside [-1, 1]"),
        # kl_stability_score gives values in [0, 1] only
        *[(6, "score", {"metric": "kl", "value": value},
           f"kl score value {value!r} is outside [0, 1]")
          for value in (math.nan, math.inf, -0.5, 1.5)],
        (6, "score", {"metric": "judge", "value": -math.inf}, "score value -inf is not finite"),
        (5, "final", {"final_output": 0}, "final_output 0 is not a text"),
        (5, "final", {"final_output": None}, "final_output None is not a text"),
        (5, "execution", {"outputs": [7]}, "output 7 is not a text"),
        (6, "execution", {"outputs": [99]}, "output 99 is not a text or the ordinal"),
        (6, "execution", {"outputs": [False]}, "output False is not a text or the ordinal"),
        (6, "execution", {"outputs": [None]}, "output None is not a text or the ordinal"),
        (7, "execution", {"outputs": [99]}, "output 99 is not a text or the ordinal"),
        *[(7, "execution", {"fingerprint": fingerprint},
           f"fingerprint {fingerprint!r} is not a text or the ordinal")
          for fingerprint in (-1, 99, True, 1.5, None)],
        *[(6, "stability", {"outputs": ["x", "y"], "sample_count": 3, "sample_index": index},
           "sample_index is not a list of integers")
          for index in ([0, True, 0.0], [0, 1.0, 1], {"0": 0, "1": 1, "2": 0})],
        (6, "header", {"version": TRACE_VERSION + 1},
         f"trace version {TRACE_VERSION + 1} is not supported"),
        (7, "shift", {"update": {"kind": "strategy-shift", "payload": "Sum the amounts.",
                                 "source_subtask": "parse", "targets": ["net"]}},
         "replay failed: strategy-shift must target exactly the failed subtask"),
    ])
    def test_a_field_of_the_wrong_type_is_a_malformed_trace(self, tmp_path, capsys, version,
                                                            kind, change, message):
        # failure injection: one field of a committed fixture's header, or of
        # its first event of a kind, takes a value that replay cannot read,
        # and replay names it
        header, *events = (DATA / f"trace_v{version}_strategy_shift.jsonl").read_text(
            encoding="utf-8").splitlines()
        events = [json.loads(line) for line in events]
        # an event's number is its position, which before version 7 is its seq
        picks = {"score": lambda p: "value" in p,
                 "final": lambda p: p.get("to") == "succeeded",
                 "execution": lambda p: p.get("purpose") == "execution",
                 "stability": lambda p: p.get("purpose") == "stability",
                 "shift": lambda p: p.get("note") == "strategy-shift"}
        if kind == "header":
            header, where = json.dumps({**json.loads(header), **change}), ""
        else:
            event = next(e for e in events if picks[kind](e["payload"]))
            event["payload"].update(change)
            where = f"event {events.index(event)}: "
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([header, *map(json.dumps, events)]) + "\n", encoding="utf-8")
        code, out, err = invoke(["replay", "--trace", str(broken)], capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"malformed trace: {where}{message}")

    @pytest.mark.parametrize("version, change, message", [
        (7, {"kind": "event"}, "keys ['kind', 'payload', 'ts', 'type']"),
        (7, {"seq": 3}, "keys ['payload', 'seq', 'ts', 'type']"),
        *[(7, {"ts": ts}, f"ts must be a non-negative integer, got {ts!r}")
          for ts in (1.5, True, -1)],
        # a version 6 event line needs its seq
        (6, {"seq": None}, "keys ['kind', 'payload', 'ts', 'type']"),
    ])
    def test_a_bad_event_line_is_a_malformed_trace(self, tmp_path, capsys, version, change,
                                                   message):
        header, first, *events = (DATA / f"trace_v{version}_strategy_shift.jsonl").read_text(
            encoding="utf-8").splitlines()
        line = {k: v for k, v in {**json.loads(events[0]), **change}.items() if v is not None}
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([header, first, json.dumps(line), *events[1:]]) + "\n",
                          encoding="utf-8")
        code, out, err = invoke(["replay", "--trace", str(broken)], capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"malformed trace: line 3: bad event record: {message}")

    def test_a_nan_granularity_in_a_plan_snapshot_is_a_malformed_trace(self, tmp_path,
                                                                       capsys):
        # failure injection: json reads NaN, which a plan's granularity does not take
        header, *events = (DATA / "trace_v6_strategy_shift.jsonl").read_text(
            encoding="utf-8").splitlines()
        events = [json.loads(line) for line in events]
        event = next(e for e in events if "plan_after" in e["payload"])
        event["payload"]["plan_after"]["subtasks"][0]["granularity"] = math.nan
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([header, *map(json.dumps, events)]) + "\n", encoding="utf-8")
        code, out, err = invoke(["replay", "--trace", str(broken)], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("malformed trace:") and "subtasks[0].granularity" in err

    def test_out_into_a_missing_directory_is_a_config_error(self, tmp_path, capsys):
        trace, out = DATA / "trace_v7_strategy_shift.jsonl", tmp_path / "absent" / "report.txt"
        code, stdout, err = invoke(["replay", "--trace", str(trace), "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("config error:") and str(out) in err

    def test_missing_trace_file(self, tmp_path, capsys):
        code, _, err = invoke(
            ["replay", "--trace", str(tmp_path / "absent.jsonl")], capsys
        )
        assert code == 4

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for line in ("0  success", "1  usage error", "2  configuration error",
                     "3  backend error", "4  malformed trace"):
            assert line in out

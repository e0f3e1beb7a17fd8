import json
import math
from pathlib import Path

import pytest

from promptor.cli import main
from promptor.errors import ZeroVectorError
from promptor.orchestrator import MAX_SAMPLE_COUNT
from promptor.prompt import render_prompt
from promptor.trace import canonical_trace_bytes, read_trace

from .pipeline_fixture import executor_prompt, pipeline_config_dict
from .stub_server import StubApiServer, StubConfig
from .test_reports import synthetic_trace


DATA = Path(__file__).parent / "data"

HTTP_SPEC = {"kind": "http", "endpoint_url": "http://localhost:1", "model_name": "m"}

SIM_CONFIG = {
    "u": [1.0, 1.0], "v": [0.5, 0.5],
    "models": [{"kind": "gaussian", "mean": 0.0, "variance": 1.0},
               {"kind": "uniform", "low": -1.0, "high": 1.0}],
    "epsilons": [0.5, 1.0], "trials": 200, "seed": 3,
}


def scripted(**spec):
    return {"generator": {"kind": "scripted", **spec}}


def behavior(**entry):
    return {"prompt": "p", "outcomes": [["a", 1.0]], **entry}


# (subcommand, keys changed in a valid input file, field path the error names)
MALFORMED_INPUTS = [
    ("run", scripted(behaviours=[behavior()]), "behaviours"),
    ("run", scripted(behaviors=[behavior(seed="5")]), "behaviors[0].seed"),
    ("run", scripted(behaviors=[behavior(outcomes=[[7, True]])]),
     "behaviors[0].outcomes[0][0]"),
    ("run", scripted(behaviors=[behavior(prompt_fingerprint="f")]), "behaviors[0]"),
    ("run", scripted(prefix_rules=[behavior(prefix="### Planner")]), "prefix_rules[0]"),
    ("simulate-bound", {"trials": 20.9}, "trials"),
    ("simulate-bound", {"seed": "3"}, "seed"),
    ("simulate-bound", {"trails": 50}, "trails"),
    ("simulate-bound", {"epsilons": ["1"]}, "epsilons[0]"),
    ("simulate-bound",
     {"models": [SIM_CONFIG["models"][0], {"kind": "gaussian", "mean": "0", "variance": 1.0}]},
     "models[1].mean"),
    ("eval-stability", {"role": 5}, "role"),
    ("eval-stability", {"requirements": "abc"}, "requirements"),
    ("eval-stability", {"revision": 2.9}, "revision"),
    ("eval-stability", {"io_spec": {"input_schema": 5}}, "io_spec.input_schema"),
    ("eval-stability", {"io_spec": {"required_keys": 5}}, "io_spec.required_keys"),
    ("eval-stability", {"io_spec": {"output_fromat": "numeric"}}, "io_spec.output_fromat"),
    ("run", {"embedder": {"kind": "hash-embedder", "dim": 32, "endpoint_url": 5}},
     "unknown field dim"),
    ("run", {"generator": {**HTTP_SPEC, "endpoint_url": "localhost:8000/v1"}}, "endpoint_url"),
    ("run", {"embedder": {**HTTP_SPEC, "endpoint_url": "ftp://h/v1"}}, "endpoint_url"),
]


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

    def test_unreadable_prompt_is_config_error(self, tmp_path, capsys):
        code, _, err = invoke(
            ["eval-stability", str(tmp_path / "absent.json")], capsys
        )
        assert code == 2
        assert err.startswith("config error:")


class TestSimulateBound:
    def sim_config(self, tmp_path, **overrides):
        data = {
            "u": [1.0], "v": [1.0],
            "models": [{"kind": "gaussian", "mean": 0.0, "variance": 1.0}],
            "epsilons": [2.0], "trials": 20000, "seed": 11,
        }
        data.update(overrides)
        return write_json(tmp_path / "sim.json", data)

    def test_csv_columns_and_values(self, tmp_path, capsys):
        code, out, _ = invoke(
            ["simulate-bound", "--config", self.sim_config(tmp_path)], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,epsilon,analytic_bound,empirical_tail,trials,seed"
        n, eps, bound, tail, trials, seed = lines[1].split(",")
        assert (n, trials, seed) == ("1", "20000", "11")
        assert float(bound) == pytest.approx(0.2706705664732254, abs=1e-12)
        # one-dim standard gaussian: true two-sided tail at 2 sigma is 4.55%
        assert float(tail) == pytest.approx(0.0455, abs=0.01)

    def test_out_flag_and_seed_override(self, tmp_path, capsys):
        csv_path = tmp_path / "sim.csv"
        code, out, _ = invoke(
            ["simulate-bound", "--config", self.sim_config(tmp_path),
             "--seed", "3", "--out", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert csv_path.read_text().strip().splitlines()[1].endswith(",3")

    def test_uniform_model_reads_low_and_high(self, tmp_path, capsys):
        cfg = self.sim_config(tmp_path, models=[{"kind": "uniform", "low": -1.0, "high": 1.0}],
                              epsilons=[1.0], trials=1000)
        code, out, _ = invoke(["simulate-bound", "--config", cfg], capsys)
        assert code == 0
        _, _, bound, tail, _, _ = out.strip().splitlines()[1].split(",")
        # Var = (high - low)^2 / 12 = 1/3, so the bound is 2 exp(-1 / (2/3))
        assert float(bound) == pytest.approx(2 * math.exp(-1.5), abs=1e-12)
        # |x| >= 1 has probability 0 under U(-1, 1)
        assert float(tail) == 0.0

    def test_bad_model_kind_is_config_error(self, tmp_path, capsys):
        cfg = self.sim_config(tmp_path, models=[{"kind": "poisson", "lam": 2}])
        code, _, err = invoke(["simulate-bound", "--config", cfg], capsys)
        assert code == 2
        assert "config error:" in err


class TestExitCodes:
    # correlate is no subcommand: every report prints the correlation itself
    @pytest.mark.parametrize("argv", [["transmogrify"], ["correlate", "--trace", str(DATA)]],
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

    @pytest.mark.parametrize("overrides", [
        {"modules": {"reviewer": "false"}},
        {"modules": {"plan_updater": 0}},
        {"modules": {"subtask_optimizer": None}},
        {"generator": {"kind": "scripted",
                       "behaviors": [{"prompt": 5, "outcomes": [["a", 1.0]]}]}},
        {"generator": {"kind": "scripted", "behaviors": [5]}},
        {"generator": {"kind": "scripted", "behaviors": "abc"}},
        {"generator": {"kind": "scripted", "prefix_rules": [{"prefix": None}]}},
        {"generator": {**HTTP_SPEC, "max_retries": 2.7}},
        {"generator": {**HTTP_SPEC, "max_retries": "5"}},
        {"embedder": {**HTTP_SPEC, "timeout": True}},
        {"embedder": {**HTTP_SPEC, "endpoint_url": 5}},
        {"generator": {**HTTP_SPEC, "max_inflght": 8}},
    ])
    def test_malformed_config_exits_before_the_trace(self, tmp_path, capsys, overrides):
        # failure injection: a config mistake stops the run before a trace is opened
        config = write_json(tmp_path / "bad.json", pipeline_config_dict(**overrides))
        trace_path = tmp_path / "never.jsonl"
        code, _, err = invoke(["run", "--config", config, "--trace", str(trace_path)],
                              capsys)
        assert code == 2
        assert err.startswith("config error:")
        assert not trace_path.exists()

    @pytest.mark.parametrize("command,changes,path", MALFORMED_INPUTS)
    def test_malformed_input_file_writes_nothing(self, tmp_path, capsys, command,
                                                 changes, path):
        # failure injection: a mistake at any depth of any input file is a
        # config error naming its field, found before a trace or a CSV is opened
        valid = {"run": pipeline_config_dict(), "simulate-bound": SIM_CONFIG,
                 "eval-stability": executor_prompt("eval", "Say it.").to_json_dict()}
        source = write_json(tmp_path / "input.json", {**valid[command], **changes})
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, source] if command == "eval-stability" else [command, "--config", source]
        if command != "simulate-bound":
            argv += ["--trace", str(out / "trace.jsonl")]
        code, stdout, err = invoke(argv + ["--out", str(out / "result")], capsys)
        assert code == 2
        assert err.startswith("config error:") and path in err
        assert stdout == "" and list(out.iterdir()) == []

    def test_samples_above_the_bound_are_a_config_error(self, tmp_path, config_path, capsys):
        trace_path = tmp_path / "never.jsonl"
        code, _, err = invoke(["run", "--config", config_path,
                               "--samples", str(MAX_SAMPLE_COUNT + 1),
                               "--trace", str(trace_path)], capsys)
        assert code == 2
        assert err.startswith("config error:") and "sample_count" in err
        assert not trace_path.exists()

    def test_backend_failure(self, tmp_path, capsys):
        # default config has a scripted generator with no behaviors at all
        prompt = executor_prompt("eval", "Say the word.")
        prompt_path = write_json(tmp_path / "prompt.json", prompt.to_json_dict())
        code, _, err = invoke(["eval-stability", prompt_path], capsys)
        assert code == 3
        assert err.startswith("backend error:")

    @pytest.mark.parametrize("backend, body", [
        ("generator", b'{"choices":[{"message":{"content":null}},'
                      b'{"message":{"content":"7"}}]}'),
        ("embedder", b'{"data":[{"embedding":[NaN,1.0]},{"embedding":[1.0,0.0]}]}'),
        ("embedder", b'{"data":[{"embedding":[0.0,0.0]},{"embedding":[1.0,0.0]}]}'),
    ])
    def test_malformed_http_reply_is_a_backend_error(self, tmp_path, capsys, backend, body):
        prompt = executor_prompt("eval", "Say the word.")
        prompt_path = write_json(tmp_path / "prompt.json", prompt.to_json_dict())
        with StubApiServer(StubConfig(raw_response=body)) as server:
            http = {"kind": "http", "endpoint_url": server.base_url, "model_name": "m",
                    "max_retries": 0}
            # two samples, so the embedder is asked for the two rows the stub sends
            cfg = {"task": "standalone stability evaluation", "samples": 2, backend: http}
            if backend == "embedder":
                cfg["generator"] = {"kind": "scripted",
                                    "default": {"outcomes": [["alpha", 1.0]]}}
            config_path = write_json(tmp_path / "http.json", cfg)
            code, _, err = invoke(["eval-stability", prompt_path, "--config", config_path],
                                  capsys)
        assert code == 3
        assert err.startswith("backend error:") and "malformed" in err

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
        (5, "final", {"final_output": 0}, "final_output 0 is not a text"),
        (5, "final", {"final_output": None}, "final_output None is not a text"),
        (5, "execution", {"outputs": [7]}, "output 7 is not a text"),
        (6, "execution", {"outputs": [99]}, "output 99 is not a text or the ordinal"),
        (6, "execution", {"outputs": [False]}, "output False is not a text or the ordinal"),
        (6, "execution", {"outputs": [None]}, "output None is not a text or the ordinal"),
        *[(6, "stability", {"outputs": ["x", "y"], "sample_count": 3, "sample_index": index},
           "sample_index is not a list of integers")
          for index in ([0, True, 0.0], [0, 1.0, 1], {"0": 0, "1": 1, "2": 0})],
    ])
    def test_a_field_of_the_wrong_type_is_a_malformed_trace(self, tmp_path, capsys, version,
                                                            kind, change, message):
        # failure injection: one field of a committed fixture's first event of
        # a kind takes a value that replay cannot read, and replay names it
        header, *events = (DATA / f"trace_v{version}_strategy_shift.jsonl").read_text(
            encoding="utf-8").splitlines()
        events = [json.loads(line) for line in events]
        picks = {"score": lambda p: "value" in p,
                 "final": lambda p: p.get("to") == "succeeded",
                 "execution": lambda p: p.get("purpose") == "execution",
                 "stability": lambda p: p.get("purpose") == "stability"}
        event = next(e for e in events if picks[kind](e["payload"]))
        event["payload"].update(change)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([header, *map(json.dumps, events)]) + "\n", encoding="utf-8")
        code, out, err = invoke(["replay", "--trace", str(broken)], capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"malformed trace: event {event['seq']}: {message}")

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

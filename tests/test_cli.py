import json

import pytest

from promptor.cli import main
from promptor.prompt import render_prompt
from promptor.trace import canonical_trace_bytes, read_trace, write_trace

from .pipeline_fixture import executor_prompt, pipeline_config_dict
from .test_reports import synthetic_trace


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


class TestReplayAndReport:
    def test_replay_reproduces_the_run_report(self, tmp_path, config_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        _, run_report, _ = invoke(
            ["run", "--config", config_path, "--trace", str(trace_path)], capsys
        )
        code, replay_report, _ = invoke(["replay", "--trace", str(trace_path)], capsys)
        assert code == 0
        assert replay_report == run_report

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

    def test_correlate_matches_stdlib_oracle(self, tmp_path, capsys):
        import statistics

        stabilities = [0.2, 0.35, 0.55, 0.65, 0.8, 0.95]
        successes = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        runs = tmp_path / "runs"
        runs.mkdir()
        for k, (s, ok) in enumerate(zip(stabilities, successes)):
            write_trace(synthetic_trace(s, ok == 1.0), runs / f"{k}.jsonl")
        code, out, _ = invoke(["correlate", "--trace", str(runs)], capsys)
        assert code == 0
        oracle = statistics.correlation(stabilities, successes)
        assert out == f"pairs: 6\npearson_r: {oracle:.10f}\n"


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

    def test_bad_model_kind_is_config_error(self, tmp_path, capsys):
        cfg = self.sim_config(tmp_path, models=[{"kind": "poisson", "lam": 2}])
        code, _, err = invoke(["simulate-bound", "--config", cfg], capsys)
        assert code == 2
        assert "config error:" in err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
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

    def test_backend_failure(self, tmp_path, capsys):
        # default config has a scripted generator with no behaviors at all
        prompt = executor_prompt("eval", "Say the word.")
        prompt_path = write_json(tmp_path / "prompt.json", prompt.to_json_dict())
        code, _, err = invoke(["eval-stability", prompt_path], capsys)
        assert code == 3
        assert err.startswith("backend error:")

    def test_malformed_trace(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n", encoding="utf-8")
        code, _, err = invoke(["replay", "--trace", str(garbage)], capsys)
        assert code == 4
        assert err.startswith("malformed trace:")

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

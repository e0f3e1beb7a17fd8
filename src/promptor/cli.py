"""Command-line surface: run pipelines, score prompts, and rebuild reports
from traces."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MODULE_KEYS, PipelineConfig, _load, _read_json
from .errors import BackendError, ConfigError, MalformedTraceError, MetricError
from .metrics import LARGEST_DISTANCE
from .orchestrator import MAX_SAMPLE_COUNT, Orchestrator
from .prompt import ModularPrompt
from .reports import compute_run_metrics, render_run_report
from .trace import TraceWriter, read_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_TRACE = 4

EPILOG = """\
exit codes:
  0  success
  1  usage error (unknown subcommand or bad flags)
  2  configuration error (unreadable or invalid config, prompt, or inputs)
  3  backend error (generation or embedding failed) or metric error
  4  malformed trace
"""

# --disable takes the config's module keys in kebab case
_DISABLE_CHOICES = tuple(key.replace("_", "-") for key in MODULE_KEYS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for config
    # problems; route usage errors to their own code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_override_flags(sub):
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--metric", choices=tuple(LARGEST_DISTANCE), default=None,
                     help="override the stability metric")
    sub.add_argument("--tau", type=float, default=None,
                     help="override the stability gate threshold")
    sub.add_argument("--samples", type=int, default=None,
                     help=f"override the per-evaluation sample count (2 to {MAX_SAMPLE_COUNT})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="promptor",
        description="stability-gated prompt pipelines over pluggable model backends",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    run = commands.add_parser("run", help="plan, refine, and execute a task")
    run.add_argument("--config", required=True, help="pipeline config JSON")
    run.add_argument("--trace", default=None, help="write the trace to this JSONL file")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    run.add_argument("--disable", action="append", choices=_DISABLE_CHOICES,
                     default=[], help="turn one module off (repeatable)")
    _add_override_flags(run)
    run.set_defaults(func=cmd_run)

    ev = commands.add_parser("eval-stability", help="score one prompt file")
    ev.add_argument("prompt", help="ModularPrompt JSON file")
    ev.add_argument("--config", required=True, help="pipeline config JSON for backends")
    ev.add_argument("--trace", default=None, help="write the evaluation trace here")
    ev.add_argument("--out", default=None, help="write the result here instead of stdout")
    _add_override_flags(ev)
    ev.set_defaults(func=cmd_eval_stability)

    # replay is another name for report; each name has its own parser, so
    # that usage and errors name the command that was typed
    for name, summary in (("report", "rebuild the report from traces"),
                          ("replay", "another name for report")):
        report = commands.add_parser(name, help=summary)
        report.add_argument("--trace", action="append", required=True,
                            help="trace file or directory of *.jsonl (repeatable)")
        report.add_argument("--out", default=None,
                            help="write the report here instead of stdout")
        report.set_defaults(func=cmd_report)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _read_config(args) -> PipelineConfig:
    """The config file with the command line's flags merged in, read in one
    pass, so that the reader checks flags and file together."""
    data = _read_json(args.config, "config")
    flags = {"seed": args.seed, "metric": args.metric, "tau": args.tau, "samples": args.samples}
    data.update({key: value for key, value in flags.items() if value is not None})
    modules = data.get("modules", {})
    disabled = {name.replace("-", "_"): False for name in getattr(args, "disable", ())}
    # a modules value that is no object is left for the reader to reject
    if disabled and type(modules) is dict:
        data["modules"] = {**modules, **disabled}
    return PipelineConfig.from_json_dict(data)


def cmd_run(args) -> int:
    cfg = _read_config(args)
    generator, embedder = cfg.build_backends()
    with TraceWriter(cfg.header(), path=args.trace) as writer:
        orch = Orchestrator(generator, embedder, writer, cfg.settings)
        trace = orch.run_pipeline(cfg.task, cfg.template)
    _emit(render_run_report(compute_run_metrics([trace])), args.out)
    return EXIT_OK


def cmd_eval_stability(args) -> int:
    prompt = _load(ModularPrompt, _read_json(args.prompt, "prompt"), f"prompt {args.prompt}")
    cfg = _read_config(args)
    generator, embedder = cfg.build_backends()
    with TraceWriter(cfg.header(), path=args.trace) as writer:
        orch = Orchestrator(generator, embedder, writer, cfg.settings)
        score = orch.evaluate_prompt_stability(prompt, subtask_id="eval")
    verdict = "stable" if score.value >= cfg.tau else "unstable"
    _emit(
        f"stability: {score.value:.10f}\n"
        f"samples: {score.sample_count}\n"
        f"tau: {cfg.tau}\n"
        f"verdict: {verdict}\n",
        args.out,
    )
    return EXIT_OK


def _trace_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.jsonl")))
        else:
            files.append(path)
    if not files:
        raise ConfigError("no trace files found")
    return files


def cmd_report(args) -> int:
    # each trace is read as the report digests it, so one is in memory at a time
    traces = (read_trace(f) for f in _trace_files(args.trace))
    _emit(render_run_report(compute_run_metrics(traces)), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MalformedTraceError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except MetricError as exc:
        # a metric's precondition failed on data the run produced: never
        # a config fault, though MetricError is a ValueError
        print(f"metric error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: run pipelines, score prompts, verify the deviation
bound, and rebuild reports from traces."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path

from .config import MODULE_KEYS, PipelineConfig, SimulationConfig, _read_json
from .deviation import AggregationSpec, simulate_deviation_tails
from .errors import BackendError, ConfigError, MalformedTraceError
from .orchestrator import KL, MAX_SAMPLE_COUNT, SEMANTIC, Orchestrator
from .prompt import ModularPrompt
from .reports import (
    compute_run_metrics,
    correlate_traces,
    render_correlation_report,
    render_run_report,
)
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
  3  backend error (generation or embedding failed)
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
    sub.add_argument("--metric", choices=(SEMANTIC, KL), default=None,
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
    ev.add_argument("--config", default=None, help="pipeline config JSON for backends")
    ev.add_argument("--trace", default=None, help="write the evaluation trace here")
    ev.add_argument("--out", default=None, help="write the result here instead of stdout")
    _add_override_flags(ev)
    ev.set_defaults(func=cmd_eval_stability)

    sim = commands.add_parser("simulate-bound",
                              help="Monte-Carlo check of the deviation tail bound")
    sim.add_argument("--config", required=True, help="simulation config JSON")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    sim.set_defaults(func=cmd_simulate_bound)

    rep = commands.add_parser("replay", help="rebuild the report from a trace")
    rep.add_argument("--trace", required=True, help="trace JSONL file")
    rep.add_argument("--out", default=None, help="write the report here instead of stdout")
    rep.set_defaults(func=cmd_replay)

    report = commands.add_parser("report", help="aggregate metrics over traces")
    report.add_argument("--trace", action="append", required=True,
                        help="trace file or directory of *.jsonl (repeatable)")
    report.add_argument("--out", default=None, help="write the report here instead of stdout")
    report.set_defaults(func=cmd_report)

    corr = commands.add_parser(
        "correlate", help="Pearson r between per-prompt stability and success"
    )
    corr.add_argument("--trace", action="append", required=True,
                      help="trace file or directory of *.jsonl (repeatable)")
    corr.add_argument("--out", default=None, help="write the result here instead of stdout")
    corr.set_defaults(func=cmd_correlate)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "metric", None):
        updates["metric"] = args.metric
    if getattr(args, "tau", None) is not None:
        updates["tau"] = args.tau
    if getattr(args, "samples", None) is not None:
        updates["samples"] = args.samples
    if getattr(args, "disable", None):
        modules = dict(cfg.modules)
        for name in args.disable:
            modules[name.replace("-", "_")] = False
        updates["modules"] = modules
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _make_orchestrator(cfg: PipelineConfig, trace_path: str | None) -> Orchestrator:
    generator, embedder = cfg.build_backends()
    writer = TraceWriter(cfg.header(), path=trace_path)
    return Orchestrator(generator, embedder, writer, cfg.settings)


def cmd_run(args) -> int:
    cfg = _apply_overrides(PipelineConfig.from_file(args.config), args)
    orch = _make_orchestrator(cfg, args.trace)
    try:
        trace = orch.run_pipeline(cfg.task, cfg.template)
    finally:
        orch.trace.close()
    _emit(render_run_report(compute_run_metrics([trace])), args.out)
    return EXIT_OK


def cmd_eval_stability(args) -> int:
    data = _read_json(args.prompt, "prompt")
    try:
        prompt = ModularPrompt.from_json_dict(data)
    except ValueError as exc:
        raise ConfigError(f"invalid prompt {args.prompt}: {exc}") from exc
    if args.config is not None:
        cfg = PipelineConfig.from_file(args.config)
    else:
        cfg = PipelineConfig(task="standalone stability evaluation")
    cfg = _apply_overrides(cfg, args)
    orch = _make_orchestrator(cfg, args.trace)
    try:
        score = orch.evaluate_prompt_stability(prompt, subtask_id="eval")
    finally:
        orch.trace.close()
    verdict = "stable" if score.value >= cfg.tau else "unstable"
    _emit(
        f"stability: {score.value:.10f}\n"
        f"samples: {score.sample_count}\n"
        f"tau: {cfg.tau}\n"
        f"verdict: {verdict}\n",
        args.out,
    )
    return EXIT_OK


def cmd_simulate_bound(args) -> int:
    sim = SimulationConfig.from_file(args.config)
    seed = sim.seed if args.seed is None else args.seed
    try:
        spec = AggregationSpec(u=sim.u, v=sim.v)
        models = [entry.model for entry in sim.models]
        reports = simulate_deviation_tails(models, spec, sim.epsilons, sim.trials, seed)
    except ValueError as exc:
        raise ConfigError(f"invalid simulation parameters: {exc}") from exc
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["n", "epsilon", "analytic_bound", "empirical_tail", "trials", "seed"])
    for report in reports:
        writer.writerow([
            report.n,
            f"{report.epsilon:.12g}",
            f"{report.analytic_bound:.12g}",
            f"{report.empirical_tail:.12g}",
            report.trials,
            report.seed,
        ])
    _emit(buffer.getvalue(), args.out)
    return EXIT_OK


def _collect_traces(paths: list[str]) -> list:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.jsonl")))
        else:
            files.append(path)
    if not files:
        raise ConfigError("no trace files found")
    return [read_trace(f) for f in files]


def cmd_replay(args) -> int:
    trace = read_trace(args.trace)
    _emit(render_run_report(compute_run_metrics([trace])), args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    traces = _collect_traces(args.trace)
    _emit(render_run_report(compute_run_metrics(traces)), args.out)
    return EXIT_OK


def cmd_correlate(args) -> int:
    traces = _collect_traces(args.trace)
    _emit(render_correlation_report(correlate_traces(traces)), args.out)
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
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

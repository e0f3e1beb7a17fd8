"""promptor benchmark: scripted pipeline workloads, end to end and per layer.

    python3 perfbench/run.py --workload chain-updater --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Runs one workload's pipelines through the public API, closed loop with one
caller, repeating the whole workload until --seconds have passed, and prints
every metric as "name value unit" lines followed by one JSON object on the
last line. --trace 0 reports the end-to-end metrics, measured with no
spans; --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics plus the tracing overhead. --smoke runs tiny
sizes in seconds. The exit code is 0 only when every correctness check held.

Correctness checks, each counted in "failed" and in failed_share:
  - every pipeline ends succeeded, with the final output its script expects
    and the reviewer revisions its script forces on each subtask;
  - the report rebuilt from the written trace file equals the in-run report;
  - every repetition gives the same canonical trace bytes as the first
    (the sha256 of each pipeline's bytes is printed, so that processes with
    other hash seeds can be compared);
  - http-fanout's canonical trace equals an in-process scripted run of the
    same script with the same header (wire conformance).

Third-party imports (numpy, requests) are loaded before set-up is timed; set-up
covers importing promptor, generating the scripts, building the backends and,
for http-fanout, starting the stub. Times are nominal seconds (see
REFERENCE_NOMINAL_S). Outputs go to .perfbench_out/ at the root; NOTES.md
defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9

# The sandbox this was built on changes speed by up to 2x within minutes
# (a fixed loop took 71 to 232 ms), and by tens of percent from one tenth of a
# second to the next, so raw seconds are not comparable from one run to the
# next. Every reported time is "nominal": the CPU seconds of the stretch,
# rescaled by how long a fixed reference work took right before and after it,
# plus the stretch's waiting time (wall minus CPU), unscaled. With --trace 0,
# stretches are cut into segments of about SEGMENT_S, with one reference work
# timed between segments and left out of the stretch: a reference taken only
# at the ends of a stretch of a second or more tracks the speed too coarsely
# (see NOTES.md). REFERENCE_NOMINAL_S is the reference
# work's typical time on that sandbox, so nominal seconds read as seconds
# there. Raw wall times are printed too.
REFERENCE_NOMINAL_S = 0.015
REFERENCE_REPEATS = 10
SEGMENT_S = 0.1
# --trace 0 replays each trace file this many times and takes the median
REPLAYS = 5

WORKLOADS = ("chain-updater", "refine-heavy", "http-fanout")

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("report_s", "s"), ("trace_bytes", "bytes"),
    ("peak_rss_mb", "MB"), ("gen_calls", "count"), ("gen_samples", "count"),
    ("embed_texts", "count"),
)

EVENT_TYPES = (
    "generation", "embedding", "score", "revision", "augmentation",
    "plan-update", "status-change", "warning",
)
TIMED_NAMES = (
    "plan.with_status", "plan.with_subtask", "plan.subtask", "plan.Plan",
    "metrics.semantic_stability", "metrics.kl_stability_score",
    "backends.generate", "backends.embed",
)
# orchestrator.self_s plus these layers' busy time accounts for the traced run
RUN_LAYERS = ("plan", "metrics", "backends", "trace", "prompt", "agent_prompts")
AGENT_PURPOSES = (
    "template-selection", "planning", "optimizer-check", "optimizer-split",
    "optimizer-merge", "review", "augmentation", "summarize", "plan-update",
)
REASK_WARNINGS = ("unparseable-agent-response", "invalid-review", "invalid-plan")

PER_LAYER = tuple(
    [(f"{n}.{k}", u) for n in TIMED_NAMES
     for k, u in (("calls", "count"), ("busy_s", "s"), ("p50_ms", "ms"),
                  ("tail_ms", "ms"), ("tail_pct", "%"))]
    + [("trace.emit.calls", "count"), ("trace.emit.busy_s", "s")]
    + [(f"trace.bytes.{t}", "bytes") for t in EVENT_TYPES]
    + [(f"reports.{n}.busy_s", "s") for n in
       ("read_trace", "replay_trace", "compute_run_metrics", "render_run_report")]
    + [("reports.replay.plan_rebuilds", "count"), ("reports.replay.plan_busy_s", "s")]
    + [("metrics.pairs", "count"), ("agent_prompts.calls", "count"),
       ("agent_prompts.busy_s", "s"), ("prompt.render_prompt.calls", "count"),
       ("prompt.render_prompt.busy_s", "s"), ("plan.busy_s", "s"),
       ("metrics.busy_s", "s"), ("backends.busy_s", "s")]
    + [("backends.http.attempts", "count"), ("backends.http.failed_attempts", "count"),
       ("backends.http.connections", "count"), ("backends.http.stub_service_s", "s")]
    + [("orchestrator.self_s", "s"), ("orchestrator.measure.calls", "count"),
       ("orchestrator.measure.cleared", "count"), ("orchestrator.measure.useful_share", "ratio"),
       ("orchestrator.gate.stabilized", "count"), ("orchestrator.gate.exhausted", "count"),
       ("orchestrator.agent_calls", "count"), ("orchestrator.reasks", "count"),
       ("orchestrator.reask_share", "ratio")]
    + [("bench.traced_run_s", "s"), ("bench.untraced_run_s", "s"),
       ("bench.tracing_overhead_s", "s"), ("bench.accounted_share", "ratio")]
)


def _reference_work() -> float:
    """Fixed pure-Python work that shares no code with promptor: build,
    serialize, parse, hash and sort a list of small records."""
    rows = [{"id": i, "name": f"row-{i:05d}", "tags": [f"t{j}" for j in range(i % 7)],
             "x": i * 0.5} for i in range(1500)]
    text = json.dumps(rows, sort_keys=True)
    back = json.loads(text)
    hashlib.sha256(text.encode()).hexdigest()
    back.sort(key=lambda r: (len(r["tags"]), r["name"]))
    return sum(math.sqrt(r["x"]) for r in back)


def reference_s(repeats: int = REFERENCE_REPEATS) -> float:
    """Mean seconds of one reference work, measured now. Garbage collection
    is off meanwhile: a collection would walk the program's live heap, and
    the reference would then read the program's size as machine speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            _reference_work()
        return (time.perf_counter() - start) / repeats
    finally:
        if enabled:
            gc.enable()


class Stretch:
    """Wall and CPU seconds of one measured stretch of work, in segments.

    With sample set, the end of each garbage collection inside the stretch
    ends a segment that has lasted SEGMENT_S, and one reference work is timed
    before the next segment opens; that pause is not measured. Collections
    come every few hundred container allocations, so any stretch of Python
    work gets cut without a hook in the program. A collection callback cannot
    start another collection, so the reference work runs undisturbed."""

    def __init__(self, sample: bool = False):
        self.sample = sample

    def __enter__(self):
        self.segments = []  # [wall, cpu, reference seconds after it]
        if self.sample:
            gc.callbacks.append(self._after_collection)
        self._open()
        return self

    def _after_collection(self, phase, info):
        if phase == "stop" and time.perf_counter() - self._wall >= SEGMENT_S:
            self._close()
            self.segments[-1][2] = reference_s(1)
            self._open()

    def _open(self):
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def _close(self):
        self.segments.append([time.perf_counter() - self._wall,
                              time.process_time() - self._cpu, None])

    def __exit__(self, *exc_info):
        self._close()
        if self.sample:
            gc.callbacks.remove(self._after_collection)
        self.wall = sum(w for w, _, _ in self.segments)
        self.cpu = sum(c for _, c, _ in self.segments)

    def nominal(self, before: float, after: float) -> float:
        """Waiting as measured plus each segment's CPU seconds rescaled by
        the reference timings on either side of it."""
        refs = [before] + [r for _, _, r in self.segments[:-1]] + [after]
        return sum(w - c + c * 2 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1])
                   for i, (w, c, _) in enumerate(self.segments))


class CountingGenerator:
    def __init__(self, inner):
        self.inner, self.calls, self.samples = inner, 0, 0

    def generate(self, request):
        self.calls += 1
        self.samples += request.sample_count
        return self.inner.generate(request)


class CountingEmbedder:
    def __init__(self, inner):
        self.inner, self.texts = inner, 0

    def embed(self, texts):
        self.texts += len(texts)
        return self.inner.embed(texts)


# -- set-up ---------------------------------------------------------------------


def _fresh_import():
    """Import promptor and the script module anew, as a new process would."""
    for name in list(sys.modules):
        if name in ("promptor", "workloads") or name.startswith("promptor."):
            del sys.modules[name]
    import workloads

    return workloads


class Stub:
    """The HTTP stub process for http-fanout."""

    def __init__(self, seed: int, scale: str):
        # one kept-alive connection for control calls, opened before the
        # first reset, so the stub's connection count is the client's alone
        self._control = None
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(seed), "--scale", scale],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"stub failed to start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/v1"

    def _call(self, method: str, path: str) -> dict:
        import requests

        if self._control is None:
            self._control = requests.Session()
        response = self._control.request(method, self.base + path, timeout=10)
        response.raise_for_status()
        return response.json()

    def reset(self):
        self._call("POST", "/__reset")

    def stats(self) -> dict:
        return self._call("GET", "/__stats")

    def stop(self):
        if self._control is not None:
            self._control.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def setup(workload: str, seed: int, scale: str):
    """One set-up: (scripts, generators, embedder, stub or None)."""
    wl = _fresh_import()
    scripts = wl.build(workload, seed, scale)
    if workload != wl.HTTP_FANOUT:
        from promptor.backends import HashEmbedder

        generators = [s.generator() for s in scripts]
        return scripts, generators, HashEmbedder(), None
    from promptor.backends import HTTP, BackendDescriptor, HttpEmbedder, HttpGenerator

    stub = Stub(seed, scale)
    descriptor = BackendDescriptor(kind=HTTP, endpoint_url=stub.url, model_name="bench")
    return scripts, [HttpGenerator(descriptor)], HttpEmbedder(descriptor), stub


# -- one repetition ---------------------------------------------------------------


def run_one(script, generator, embedder, path, rec=None, sample=False):
    """Run one pipeline with a live trace file. Returns (trace, stretch,
    counting generator, counting embedder). With sample set, the stretch
    times the reference work between segments (see Stretch)."""
    from promptor.orchestrator import Orchestrator, OrchestratorSettings
    from promptor.trace import TraceWriter

    import spans

    gen, emb = CountingGenerator(generator), CountingEmbedder(embedder)
    writer = TraceWriter(script.header(), path=path)
    backends = (gen, emb)
    if rec is not None:
        backends = (spans.traced_generator(gen, rec), spans.traced_embedder(emb, rec))
        spans.trace_writer(writer, rec)
    orch = Orchestrator(*backends, writer, OrchestratorSettings(**script.settings_kwargs()))
    run = orch.run_pipeline
    if rec is not None:
        run = rec.wrap("orchestrator.run_pipeline", run)
    try:
        with Stretch(sample) as stretch:
            trace = run(script.task, script.template)
    finally:
        writer.close()
    return trace, stretch, gen, emb


def report_one(path, rec=None, sample=False):
    """The replay path on a written trace file: (report, text, stretch)."""
    from promptor.reports import compute_run_metrics, render_run_report
    from promptor.trace import read_trace

    steps = [read_trace, lambda t: compute_run_metrics([t]), render_run_report]
    if rec is not None:
        names = ("reports.read_trace", "reports.compute_run_metrics", "reports.render_run_report")
        steps = [rec.wrap(n, f) for n, f in zip(names, steps)]
    read, compute, render = steps
    with Stretch(sample) as stretch:
        report = compute(read(path))
        text = render(report)
    return report, text, stretch


def check(script, warnings: set, report) -> list[str]:
    """What a correct run of the script must show: the warning reasons of its
    trace, and the report rebuilt from the trace file."""
    problems = []
    if warnings - {"gate-exhausted"}:
        problems.append(f"unexpected warnings: {sorted(warnings - {'gate-exhausted'})}")
    digest = report.digests[0]
    if digest.run_status != "succeeded":
        problems.append(f"run ended {digest.run_status}")
    if digest.final_output != script.expected_final:
        problems.append(f"final output {digest.final_output!r} != {script.expected_final!r}")
    refinements = {s.subtask_id: s.refinement_count for s in digest.subtasks}
    if refinements != script.expected_refinements:
        problems.append("reviewer revisions per subtask differ from the script")
    return problems


# -- traced figures ----------------------------------------------------------------


def _new_event_counts() -> dict:
    return {k: 0 for k in [f"trace.bytes.{t}" for t in EVENT_TYPES]
            + ["pairs", "measures", "cleared", "initial", "exhausted",
               "review_failures", "agent_calls", "reasks"]}


def _count_events(trace, tau: float, counts: dict) -> None:
    """Add one trace's event bytes and gate, measure and re-ask counts."""
    for e in trace.events:
        counts[f"trace.bytes.{e.type}"] += len(json.dumps(
            {"seq": e.seq, "type": e.type, "payload": e.payload}, sort_keys=True))
        p = e.payload
        if e.type == "score":
            n = p["sample_count"]
            counts["pairs"] += n * (n - 1) // 2
            counts["measures"] += 1
            counts["cleared"] += p["value"] >= tau
        elif e.type == "revision" and p["component"] == "initial":
            counts["initial"] += 1
        elif e.type == "generation" and p["purpose"] in AGENT_PURPOSES:
            counts["agent_calls"] += 1
        elif e.type == "warning":
            counts["exhausted"] += p["reason"] == "gate-exhausted"
            counts["review_failures"] += p["reason"] == "review-failure"
            counts["reasks"] += p["reason"] in REASK_WARNINGS


def _event_figures(counts: dict) -> dict:
    out = {f"trace.bytes.{t}": counts[f"trace.bytes.{t}"] for t in EVENT_TYPES}
    out.update({
        "metrics.pairs": counts["pairs"],
        "orchestrator.measure.calls": counts["measures"],
        "orchestrator.measure.cleared": counts["cleared"],
        "orchestrator.measure.useful_share": counts["cleared"] / max(1, counts["measures"]),
        "orchestrator.gate.stabilized":
            counts["initial"] - counts["exhausted"] - counts["review_failures"],
        "orchestrator.gate.exhausted": counts["exhausted"],
        "orchestrator.agent_calls": counts["agent_calls"],
        "orchestrator.reasks": counts["reasks"],
        "orchestrator.reask_share": counts["reasks"] / max(1, counts["agent_calls"]),
    })
    return out


def _span_figures(rec, run_ranges, report_ranges) -> dict:
    """Per-layer figures of one traced repetition from its spans. Each run
    range starts with its orchestrator.run_pipeline span."""
    import spans

    run = spans.summarize(rec.spans, run_ranges)
    report = spans.summarize(rec.spans, report_ranges)
    named = run["names"]
    out = {}
    for name in TIMED_NAMES:
        fig = named.get(name, {"calls": 0, "busy_s": 0.0, "p50_ms": 0.0,
                               "tail_ms": 0.0, "tail_pct": 0.0})
        out.update({f"{name}.{key}": value for key, value in fig.items()})
    agent = [n for n in named if n.startswith("agent_prompts.")]
    run_s = sum(rec.spans[a][2] - rec.spans[a][1] for a, _ in run_ranges)
    layers = run["layers"]
    out.update({
        "trace.emit.calls": named.get("trace.emit", {}).get("calls", 0),
        "trace.emit.busy_s": named.get("trace.emit", {}).get("busy_s", 0.0),
        "agent_prompts.calls": sum(named[n]["calls"] for n in agent),
        "agent_prompts.busy_s": layers.get("agent_prompts", 0.0),
        "prompt.render_prompt.calls": named.get("prompt.render_prompt", {}).get("calls", 0),
        "prompt.render_prompt.busy_s": layers.get("prompt", 0.0),
        "plan.busy_s": layers.get("plan", 0.0),
        "metrics.busy_s": layers.get("metrics", 0.0),
        "backends.busy_s": layers.get("backends", 0.0),
        "orchestrator.self_s": run_s - run["root_child_s"],
        "bench.accounted_share":
            (run_s - run["root_child_s"] + sum(layers.get(l, 0.0) for l in RUN_LAYERS)) / run_s,
        "reports.replay.plan_rebuilds":
            report["names"].get("reports.replay.with_status", {}).get("calls", 0),
        "reports.replay.plan_busy_s": report["layers"].get("plan", 0.0),
    })
    for name in ("read_trace", "replay_trace", "compute_run_metrics", "render_run_report"):
        out[f"reports.{name}.busy_s"] = report["names"].get(f"reports.{name}", {}).get("busy_s", 0.0)
    return out


# -- main ------------------------------------------------------------------------


def _meta(workload: str, seed: int, scale: str) -> dict:
    import numpy
    import requests

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "requests": requests.__version__, "workload": workload, "seed": seed,
        "scale": scale,
    }


def _median_dict(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _repetition(ctx: dict, traced: bool, first: dict) -> tuple[dict, list[list[str]]]:
    """Run every pipeline of the workload once, then replay every trace file.
    Returns the repetition's figures and each pipeline's problems. Each
    in-memory trace is reduced to digests and check inputs right after its
    run and dropped, as `promptor run` drops it after its report, so the
    process never holds two traces and peak_rss_mb stays the program's own."""
    from promptor.reports import compute_run_metrics, render_run_report
    from promptor.trace import canonical_trace_bytes

    scripts, stub, rec = ctx["scripts"], ctx["stub"], ctx["rec"]
    rep = {"traced": traced, "trace_bytes": 0, "gen_calls": 0, "gen_samples": 0,
           "embed_texts": 0}
    if stub is not None:
        stub.reset()
    gens = [s.generator() for s in scripts] if stub is None else ctx["generators"] * len(scripts)
    rec_now = rec if traced else None
    # spans cover the measured calls only, not the checks between them
    patched = (lambda: ctx["patches"]) if traced else contextlib.nullcontext
    mark = (lambda: len(rec.spans)) if rec is not None else (lambda: 0)
    tau = scripts[0].header()["tau"]
    run_ranges, report_ranges, digests, text_digests, warnings = [], [], [], [], []
    counts = _new_event_counts()
    problems = [[] for _ in scripts]
    # every measured stretch sits between two timings of the reference work
    stretches, references = [], [reference_s()]
    for script, gen, path in zip(scripts, gens, ctx["paths"]):
        gc.collect()
        a = mark()
        with patched():
            trace, stretch, cg, ce = run_one(script, gen, ctx["embedder"], path, rec_now,
                                             ctx["sample"])
        run_ranges.append((a, mark()))
        stretches.append(stretch)
        references.append(reference_s())
        rep["gen_calls"] += cg.calls
        rep["gen_samples"] += cg.samples
        rep["embed_texts"] += ce.texts
        canon = canonical_trace_bytes(trace)
        rep["trace_bytes"] += len(canon)
        digests.append(_digest(canon))
        del canon
        text_digests.append(_digest(render_run_report(compute_run_metrics([trace]))))
        warnings.append({e.payload["reason"] for e in trace.events_of_type("warning")})
        if traced:
            _count_events(trace, tau, counts)
        del trace
    if stub is not None:
        rep["http"] = stub.stats()
    replays = [[] for _ in scripts]  # indexes into stretches, per trace file
    for i, (script, path) in enumerate(zip(scripts, ctx["paths"])):
        for _ in range(ctx["replays"]):
            gc.collect()
            a = mark()
            with patched():
                report, text, stretch = report_one(path, rec_now, ctx["sample"])
            report_ranges.append((a, mark()))
            replays[i].append(len(stretches))
            stretches.append(stretch)
            references.append(reference_s())
            found = check(script, warnings[i], report)
            if _digest(text) != text_digests[i]:
                found.append("report from the trace file differs from the in-run report")
            problems[i] = problems[i] or found
            del report, text
    nominal = [s.nominal(references[i], references[i + 1]) for i, s in enumerate(stretches)]
    n = len(scripts)
    rep.update({
        "run_s": sum(nominal[:n]),
        "report_s": sum(statistics.median(nominal[j] for j in js) for js in replays),
        "run_wall_s": sum(s.wall for s in stretches[:n]),
        "report_wall_s": sum(statistics.median(stretches[j].wall for j in js) for js in replays),
        "reference_ms": statistics.mean(references) * 1e3,
        "digests": digests,
    })
    first.setdefault("digests", digests)
    for i, digest in enumerate(digests):
        if digest != first["digests"][i]:
            problems[i].append("canonical trace bytes differ from the first repetition")
    if traced:
        rep["spans"] = _span_figures(rec, run_ranges, report_ranges)
        rep["events"] = _event_figures(counts)
    return rep, problems


def bench(args) -> int:
    import numpy  # noqa: F401  third-party imports stay outside set-up time
    import requests  # noqa: F401

    import spans

    scale = "smoke" if args.smoke else "full"
    OUT.mkdir(exist_ok=True)
    meta = _meta(args.workload, args.seed, scale)
    print("# meta " + json.dumps(meta, sort_keys=True))

    setups, stub = [], None
    try:
        setup_refs = [reference_s()]
        for _ in range(SETUP_REPEATS):
            if stub is not None:
                stub.stop()
            with Stretch(not args.trace) as stretch:
                scripts, generators, embedder, stub = setup(args.workload, args.seed, scale)
            setups.append(stretch)
            setup_refs.append(reference_s())
        rec = spans.Recorder() if args.trace else None
        ctx = {
            "scripts": scripts, "generators": generators, "embedder": embedder,
            "stub": stub, "rec": rec, "patches": spans.Patches(rec) if rec else None,
            # --trace 1 samples no reference inside runs and replays each file
            # once: spans stay raw and cover one replay, and traced and
            # untraced repetitions are timed alike
            "sample": not args.trace,
            "replays": 1 if args.trace else REPLAYS,
            "paths": [OUT / f"{args.workload}-{i}.jsonl" for i in range(len(scripts))],
        }
        reps, failed, attempted, first = [], 0, 0, {}
        min_reps = 2 if args.trace else 1
        measure_start = time.perf_counter()
        deadline = measure_start + args.seconds
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep, problems = _repetition(ctx, traced, first)
            reps.append(rep)
            for script, found in zip(scripts, problems):
                attempted += 1
                if found:
                    failed += 1
                    print(f"# FAILED {script.workload}/{script.metric}: {'; '.join(found)}")
            print(f"# repetition {len(reps)}{' traced' if traced else ''}: "
                  f"run_s {rep['run_s']:.4f} report_s {rep['report_s']:.4f} "
                  f"(wall {rep['run_wall_s']:.4f} {rep['report_wall_s']:.4f}, "
                  f"reference {rep['reference_ms']:.2f} ms)", flush=True)
            # stop unless the next repetition ends by half a repetition past the deadline
            now = time.perf_counter()
            if now + (now - measure_start) / len(reps) / 2 > deadline and len(reps) >= min_reps:
                break
        if stub is not None:
            # wire conformance: the same script in process, same header
            from promptor.backends import HashEmbedder
            from promptor.trace import canonical_trace_bytes

            trace, _, _, _ = run_one(scripts[0], scripts[0].generator(), HashEmbedder(),
                                     OUT / f"{args.workload}-inprocess.jsonl")
            attempted += 1
            if _digest(canonical_trace_bytes(trace)) != first["digests"][0]:
                failed += 1
                print("# FAILED http-fanout: HTTP trace differs from the in-process scripted trace")
    finally:
        if stub is not None:
            stub.stop()

    untraced = [r for r in reps if not r["traced"]]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = _median_dict([{**r["spans"], **r["events"], **_http(r)} for r in traced])
        traced_run = statistics.median(r["run_s"] for r in traced)
        untraced_run = statistics.median(r["run_s"] for r in untraced)
        metrics.update({
            "bench.traced_run_s": traced_run,
            "bench.untraced_run_s": untraced_run,
            "bench.tracing_overhead_s": traced_run - untraced_run,
        })
        units = dict(PER_LAYER)
        rec.dump(OUT / f"spans-{args.workload}.jsonl")
    else:
        metrics = {"setup_s": statistics.median(
            s.nominal(setup_refs[i], setup_refs[i + 1]) for i, s in enumerate(setups))}
        metrics.update(_median_dict([
            {k: r[k] for k in ("run_s", "report_s", "trace_bytes", "gen_calls",
                               "gen_samples", "embed_texts")} for r in untraced]))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, m in result.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    raw = {"setup_wall_s": statistics.median(s.wall for s in setups),
           "run_wall_s": statistics.median(r["run_wall_s"] for r in untraced),
           "report_wall_s": statistics.median(r["report_wall_s"] for r in untraced),
           "reference_ms": statistics.median(r["reference_ms"] for r in reps)}
    print(" ".join(f"# {k} {v:.6g}" for k, v in raw.items()))
    # the same seed must give these digests in any process, whatever its
    # PYTHONHASHSEED; the smoke tests compare two processes
    trace_sha256 = {f"{s.workload}/{s.metric}": d for s, d in zip(scripts, first["digests"])}
    for label, digest in trace_sha256.items():
        print(f"# trace_sha256 {label} {digest}")
    print(f"failed_share {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} pipelines failed a check; {len(reps)} repetitions)")
    (OUT / f"meta-{args.workload}.json").write_text(json.dumps(
        {**meta, "repetitions": len(reps), **raw, "trace_sha256": trace_sha256}, indent=2))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if failed == 0 else 1


def _http(rep) -> dict:
    stats = rep.get("http", {"requests": 0, "failed": 0, "connections": 0, "service_s": 0.0})
    return {
        "backends.http.attempts": stats["requests"],
        "backends.http.failed_attempts": stats["failed"],
        "backends.http.connections": stats["connections"],
        "backends.http.stub_service_s": stats["service_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="promptor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "promptor").is_dir():
        print(f"error: no promptor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # each workload in its own process, as the per-workload runs are
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        return max(
            subprocess.run([sys.executable, __file__, "--workload", w, *flags]).returncode
            for w in WORKLOADS
        )
    sys.path.insert(0, str(ROOT / "src"))
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())

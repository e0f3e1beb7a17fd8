"""Smoke tests for the benchmark: tiny sizes, every metric, every check.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170, env=env,
    )


def test_spec_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = {line.split()[0] for line in lines[:-1]}
    assert {m["name"] for m in spec} | {"failed_share"} <= printed
    if trace == "1":
        assert result["metrics"]["bench.accounted_share"]["value"] == pytest.approx(1.0, abs=0.01)


def test_traced_http_run_counts_one_connection_per_attempt():
    proc = _bench("--workload", "http-fanout", "--seed", "4", "--seconds", "0.5",
                  "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    attempts = metrics["backends.http.attempts"]["value"]
    assert attempts > metrics["backends.http.failed_attempts"]["value"] > 0
    assert metrics["backends.http.connections"]["value"] == attempts


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_trace_digests_under_other_hash_seeds(workload):
    digests = []
    for hash_seed in ("1", "2"):
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                      "--trace", "0", "--smoke",
                      env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append([line.split()[2:] for line in proc.stdout.splitlines()
                        if line.startswith("# trace_sha256 ")])
    assert digests[0] and digests[0] == digests[1]


def test_tail_leaves_ten_samples_beyond_the_reported_value():
    for n in (1, 9, 11, 20, 21, 199, 200, 201, 1000, 1001, 10000):
        durations = random.Random(n).sample(range(10 * n), n)
        level, value = spans.tail(durations)
        if level > 50.0:
            assert sum(d > value for d in durations) >= 10, (n, level)
    assert spans.tail(list(range(1000)))[0] == 95.0
    assert spans.tail(list(range(200)))[0] == 90.0


def test_same_seed_gives_same_scripts_and_other_seeds_differ():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    for workload in run.WORKLOADS:
        a, b, c = (workloads.build(workload, seed, "smoke") for seed in (5, 5, 6))
        assert [s.task for s in a] == [s.task for s in b] != [s.task for s in c]
        assert [s.expected_final for s in a] == [s.expected_final for s in b]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "chain-updater", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

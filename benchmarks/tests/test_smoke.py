"""Smoke test of the benchmark: every workload at a tiny size, traced and
untraced, emits every metric BENCHMARK.json names (or marks it absent),
and the runner refuses to produce a result without the package sources.

    python3 -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload):
    return replace(workload, train_shard=2, train_shards=2, eval_shard=2, eval_shards=2,
                   checkpoint_epochs=min(workload.checkpoint_epochs, 1))


@pytest.fixture
def workdir():
    path = BENCH_DIR / "_work" / "smoke"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == wl.PER_LAYER


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_metric_is_emitted(name, workdir):
    workload = _tiny(wl.WORKLOADS[name])

    run, _ = wl.run_workload(workload, seed=3, seconds=0.0, trace=False, workdir=workdir)
    assert run.ledger.failed == 0, run.ledger.failures
    values = wl.end_to_end(run)
    assert set(values) == set(wl.END_TO_END)
    assert all(v is not None and v > 0 for v in values.values()), values

    run, tracer = wl.run_workload(workload, seed=3, seconds=0.0, trace=True, workdir=workdir)
    assert run.ledger.failed == 0, run.ledger.failures
    assert run.missing_hooks == []
    layers = wl.per_layer(run)
    assert set(layers) == set(wl.PER_LAYER)
    absent = {k for k, v in layers.items() if v is None}
    common = {"autodiff.ops_per_sample", "autodiff.backward_ms_per_sample",
              "vit.forward_ms_per_view", "synthdata.generate_s",
              "synthdata.dataset_io_s", "trace_overhead_frac"}
    assert not absent & common, absent
    if workload.evaluates:
        assert "regularizer.act_ms_per_sample" in absent
        assert layers["metrics.accumulate_calls_per_image"] > 0
    else:
        assert "metrics.sweep_ms_per_image" in absent
        assert layers["trainer.self_ms_per_step"] > 0
    if name == "train_consistency":
        assert layers["autodiff.ops_per_sample"] == 188.0
    assert all(end is not None for _, _, _, end, _ in tracer.spans)


def test_runner_prints_a_result_line():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "localize_eval", "--seed", "1", "--seconds", "0",
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(wl.END_TO_END)


def test_runner_fails_without_the_package(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH_DIR, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "train_consistency", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

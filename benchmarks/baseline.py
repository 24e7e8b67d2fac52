"""Measure a baseline and write it to benchmarks/baseline.json.

    python3 benchmarks/baseline.py --seeds 1-10

Runs every workload of BENCHMARK.json once per seed with tracing off, and
once traced with the first seed. Records, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over median) and every value; per workload, the
per-layer metrics of the traced run and the environment record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """(environment, summary, result) of one run of run.py."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[0]["environment"], lines[1]["summary"], lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    lo, hi = (int(part) for part in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    baseline: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for _, _, result in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values}
        env, summary, traced = run(workload, seeds[0], seconds, 1)
        baseline["environment"] = env
        baseline["workloads"][workload] = {
            "correct": all(result["correct"] for _, _, result in runs) and traced["correct"],
            "attempted": sum(result["attempted"] for _, _, result in runs),
            "failed": sum(result["failed"] for _, _, result in runs),
            "timed_ops": [s["timed_ops"] for _, s, _ in runs],
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_absent": summary["absent"],
        }
        print(f"{workload}: done", flush=True)
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

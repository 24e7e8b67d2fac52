"""Run one benchmark workload and print its result.

    python3 benchmarks/run.py --workload train_consistency --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Before the
result, two JSON lines record the environment (commit, versions, cores,
BLAS threading) and a summary (op counts, absent layers, failures). The
last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def pin_blas_threads() -> str:
    """Run OpenBLAS on one thread unless the caller chose a thread count;
    says which. Must run before numpy is imported. With OpenBLAS's default
    of one thread per core, its idle worker spins: on a shared two-core
    host the main thread then waited for a descheduled worker, and the
    same op took up to three times as long when other tenants were busy.
    One thread ran these small matrices as fast when the host was quiet."""
    chosen = next((f"{var}={os.environ[var]}" for var in BLAS_VARS if var in os.environ),
                  None)
    if chosen is not None:
        return f"caller ({chosen})"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return "benchmark (OPENBLAS_NUM_THREADS=1)"


def import_package() -> None:
    """Import attnreg from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import attnreg
    except ImportError as exc:
        sys.exit(f"cannot import attnreg from {SRC}: {exc}")
    if SRC.resolve() not in Path(attnreg.__file__).resolve().parents:
        sys.exit(f"attnreg was imported from {attnreg.__file__}, not from {SRC}")


def blas_threading(set_by: str) -> dict:
    """OpenBLAS's thread count as numpy's bundled library reports it, and
    who set it."""
    import numpy as np

    info = {"threads": None, "set_by": set_by, "library": None}
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "*openblas*")))
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])  # already loaded by numpy: this returns the same handle
    for prefix in ("scipy_openblas", "openblas"):  # the symbol prefix differs by build
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            get_config.restype = ctypes.c_char_p
            info.update(threads=get_threads(), library=get_config().decode())
            return info
    return info


def environment(blas_set_by: str) -> dict:
    import numpy as np
    import scipy

    commit = None
    if shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "attnreg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": blas_threading(blas_set_by)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_set_by = pin_blas_threads()
    import_package()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    env = environment(blas_set_by)
    print(json.dumps({"environment": env}), flush=True)

    # kept between runs and overwritten in place; runs of one workload must
    # not overlap
    workdir = BENCH_DIR / "_work" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    run, tracer = wl.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  workdir)

    if args.trace:
        values, units = wl.per_layer(run), wl.PER_LAYER
    else:
        values, units = wl.end_to_end(run), wl.END_TO_END
    absent = sorted(name for name, value in values.items() if value is None)
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "timed_ops": len(run.main.times), "traced_ops": len(run.main.traced),
               "side_ops": len(run.side.times) if run.side else 0,
               # wall over CPU busy time of the timed ops: near 1 on a quiet
               # host, larger while other tenants hold the cores
               "wall_per_cpu": {loop.kind: round(math.fsum(loop.walls) / loop.busy, 4)
                                for loop in (run.main, run.side)
                                if loop is not None and loop.busy > 0},
               # CPU ms of one reference kernel call in the timed loop, and
               # the set-up repeats the setup_s median is taken over
               "reference_ms": round(run.reference_ms, 4),
               "setup_repeats": len(run.setup_s),
               "absent": absent, "missing_hooks": run.missing_hooks,
               "failures": run.ledger.failures[:20]}
    print(json.dumps({"summary": summary}), flush=True)
    if args.trace:
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{workload.name}.json").write_text(json.dumps(
            {"environment": env, "summary": summary, "spans": tracer.spans}))

    metrics = {name: {"value": 0.0 if values[name] is None else float(values[name]),
                      "unit": unit} for name, unit in units.items()}
    ledger = run.ledger
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

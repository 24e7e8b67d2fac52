"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop: one client in one process issues the
next op only when the previous one returned. Inputs come from
``attnreg.generate`` with the workload seed and are round-tripped through
``save_dataset``/``load_dataset``, so the program sees only the generated
samples. See README.md in this directory for why each workload exists
and which metric each layer should move.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

import attnreg as ar
from attnreg.gridtransform import GridShape, SpatialTransform, TransformKind

from tracing import Hook, Hooks, Tracer, tape_probe

# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S reference
# seconds are spent, at most SETUP_MAX_REPEATS times; setup_s is the median
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 30
# reference kernel calls before and after each set-up, which measure the
# host's speed
SETUP_REFERENCE_CALLS = 10
# Ops and set-ups are timed in CPU seconds of this process (user + system,
# all threads), then scaled by the Reference kernel's speed around each.
# The wall time is kept alongside and reported in the summary line.
cpu_clock = time.process_time
# share of the busy time that goes to the other kind of op
SIDE_SHARE = 0.2
# the documented default background-threshold grid, 0.05 .. 0.95 step 0.05
THRESHOLD_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


def _augmentations(text: str) -> tuple[SpatialTransform, ...]:
    return tuple(SpatialTransform.parse(p) for p in text.split(","))


_WEIGHTS = ar.LossWeights(alpha=2.0, beta=0.25, distance="l1")

# the criterion-07 model and training configuration, one epoch per op
CONSISTENCY = ar.TrainConfig(
    vit=ar.ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16, num_layers=2,
                     num_heads=2, num_classes=3, use_positional_embedding=False),
    weights=_WEIGHTS, augmentations=_augmentations("fliph,flipv,rot90,rot180,rot270"),
    epochs=1, batch_size=8, learning_rate=0.05)

RESIZE_WIDE = ar.TrainConfig(
    vit=ar.ViTConfig(), weights=_WEIGHTS,
    augmentations=_augmentations("fliph,resize:6x6,resize:10x10"),
    epochs=1, batch_size=8, learning_rate=0.05)


@dataclass(frozen=True)
class Workload:
    """The timed op trains (``evaluates`` False) or evaluates. Ops cycle
    through fixed shards: ``train_shards`` shards of ``train_shard`` samples
    and ``eval_shards`` shards of ``eval_shard`` images. Ops of the other
    kind are interleaved into the timed loop, so that every end-to-end
    metric is measured on every workload. The evaluating
    workload trains its checkpoint during set-up on all its training
    shards, for ``checkpoint_epochs`` epochs."""

    name: str
    train: ar.TrainConfig
    evaluates: bool
    train_shard: int
    train_shards: int
    eval_shard: int
    eval_shards: int
    checkpoint_epochs: int = 0

    @property
    def train_pool(self) -> int:
        return self.train_shard * self.train_shards

    @property
    def steps_per_op(self) -> int:
        return math.ceil(self.train_shard / self.train.batch_size)


WORKLOADS = {w.name: w for w in (
    Workload("train_consistency", CONSISTENCY, evaluates=False,
             train_shard=16, train_shards=8, eval_shard=8, eval_shards=16),
    Workload("train_resize_wide", RESIZE_WIDE, evaluates=False,
             train_shard=4, train_shards=8, eval_shard=8, eval_shards=16),
    Workload("localize_eval", CONSISTENCY, evaluates=True,
             train_shard=16, train_shards=4, eval_shard=16, eval_shards=16,
             checkpoint_epochs=2),
)}

END_TO_END = {"train_samples_per_s": "samples/ref_s", "eval_images_per_s": "images/ref_s",
              "op_ms_p50": "ref_ms", "op_ms_p90": "ref_ms", "final_loss": "loss",
              "refined_miou": "fraction", "setup_s": "s", "peak_rss_mb": "MB"}

# tape op names reported one by one; any other name lands in autodiff.ops.other
OP_NAMES = ("abs_mean", "add", "add_bias", "bce_with_logits", "concat", "gelu",
            "layer_norm", "matmul", "mul", "permute_rc", "pick", "reshape",
            "scale_rows_to_sums", "slice2d", "softmax_rows", "sum_rows", "transpose")

PER_LAYER = {
    "autodiff.ops_per_sample": "count",
    **{f"autodiff.ops.{op}": "count" for op in OP_NAMES},
    "autodiff.ops.other": "count",
    "autodiff.bytes_per_sample": "B",
    "autodiff.backward_ms_per_sample": "ms",
    "vit.forward_ms_per_view": "ms",
    "vit.forwards_per_image": "count",
    "vit.adjoints_ms_per_image": "ms",
    "vit.checkpoint_io_ms": "ms",
    "regularizer.act_ms_per_sample": "ms",
    "regularizer.aff_ms_per_sample": "ms",
    "regularizer.total_ms_per_sample": "ms",
    "gridtransform.invert_ms_per_sample": "ms",
    "synthdata.augment_ms_per_sample": "ms",
    "synthdata.generate_s": "s",
    "synthdata.dataset_io_s": "s",
    "trainer.self_ms_per_step": "ms",
    "localization.build_maps_ms_per_image": "ms",
    "localization.seed_ms_per_image": "ms",
    "metrics.sweep_ms_per_image": "ms",
    "metrics.accumulate_calls_per_image": "count",
    "metrics.accumulate_ms_per_image": "ms",
    "trace_overhead_frac": "fraction",
}

HOOKS = (
    Hook("attnreg.vit", "forward", "vit.forward"),
    Hook("attnreg.vit", "attention_adjoints", "vit.attention_adjoints"),
    Hook("attnreg.autodiff", "Tape.backward", "autodiff.backward", probe=tape_probe),
    Hook("attnreg.synthdata", "augment", "synthdata.augment"),
    Hook("attnreg.regularizer", "region_activation_loss", "regularizer.act"),
    Hook("attnreg.regularizer", "region_affinity_loss", "regularizer.aff"),
    Hook("attnreg.regularizer", "total_loss", "regularizer.total"),
    Hook("attnreg.regularizer", "invert_attention", "gridtransform.invert_attention"),
    Hook("attnreg.localization", "build_maps", "localization.build_maps"),
    Hook("attnreg.localization", "seed_from_maps", "localization.seed_from_maps"),
    Hook("attnreg.metrics", "seed_from_maps", "localization.seed_from_maps"),
    Hook("attnreg.metrics", "best_threshold_miou", "metrics.sweep"),
    Hook("attnreg.metrics", "ConfusionAccumulator.add", "metrics.accumulate"),
)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# -- output checks -----------------------------------------------------------------

def _params_digest(params) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name, tensor in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensor.data).tobytes())
    return h.hexdigest()


def check_train(result) -> None:
    _require(len(result.log) == result.config.epochs, "one log record per epoch")
    for record in result.log:
        _require(all(math.isfinite(float(v)) for v in record.values()),
                 f"non-finite log record {record}")
    for name, tensor in result.params.items():
        _require(bool(np.all(np.isfinite(tensor.data))), f"non-finite parameter {name}")


def check_eval(summary: dict) -> None:
    for key in ("refined", "unrefined"):
        entry = summary[key]
        miou = entry["miou"]
        _require(miou is not None and 0.0 <= miou <= 1.0, f"{key} mIoU {miou} outside [0, 1]")
        theta = entry["threshold"]
        _require(theta is not None and any(abs(theta - t) < 1e-9 for t in THRESHOLD_GRID),
                 f"{key} threshold {entry['threshold']} not on the sweep grid")


def check_inversions(workload: Workload, rng: np.random.Generator) -> list[str]:
    """Once per run: the fast inversion against the Kronecker oracle for
    every permutation transform the workload trains with, and resize with
    source == target as an exact identity. Returns the failures."""
    grid = workload.train.vit.grid
    n = grid.n
    failures = []
    for transform in workload.train.augmentations:
        if transform.kind is TransformKind.RESIZE:
            continue
        a = rng.random((n + 1, n + 1))
        fast = ar.invert_attention_fast(a, transform, grid).data[1:, 1:]
        oracle = ar.invert_attention_kronecker(a[1:, 1:], transform, grid)
        worst = float(np.max(np.abs(fast - oracle)))
        if worst > 1e-12:
            failures.append(f"invert_attention_fast vs kronecker on {transform}: {worst:.3e}")
    a = rng.random((n + 1, n + 1))
    a /= a.sum(axis=1, keepdims=True)
    if not np.array_equal(ar.resize_attention(a, grid, grid).data, a):
        failures.append(f"resize_attention {grid} -> {grid} is not an exact identity")
    return failures


# -- host speed --------------------------------------------------------------------

class Reference:
    """A fixed kernel of small numpy ops driven from Python, the mix the
    package runs, timed in CPU seconds between the benchmark's ops.

    On a shared host the CPU time of the same op moved by 15-20% between
    runs, and by as much within a run, with the host's speed. The kernel's
    time moved with it, so a run's CPU times divided by the kernel's mean
    time in that run varied about a third as much. Each op is scaled by
    the kernel calls just before and after it, which also follows the
    host's speed within a run: the ten-seed spread of localize_eval's
    median op time fell from 0.145 (one scale per run) to 0.025. Times are reported in reference seconds: CPU
    seconds scaled to a host on which one kernel call takes NOMINAL_S. The
    kernel calls no code of the package, so a change to the package moves
    the reported times in full."""

    NOMINAL_S = 0.005

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x0 = rng.random((65, 16))
        self.w = rng.random((16, 16))
        self.samples: list[float] = []   # CPU seconds per call
        self._kernel()                   # warm-up, untimed

    def _kernel(self) -> np.ndarray:
        x = self.x0
        for _ in range(100):
            h = np.maximum(x @ self.w, 0.0)
            s = h @ h.T
            s = np.exp(s - s.max(axis=1, keepdims=True))
            s /= s.sum(axis=1, keepdims=True)
            x = 0.01 * (s @ h) + self.x0
        return x

    def sample(self, calls: int = 1) -> None:
        for _ in range(calls):
            t0 = cpu_clock()
            self._kernel()
            self.samples.append(cpu_clock() - t0)

    def scale(self, first: int) -> float:
        """Reference seconds per CPU second, over samples[first:]."""
        samples = self.samples[first:]
        return self.NOMINAL_S * len(samples) / math.fsum(samples)


# -- set-up ------------------------------------------------------------------------

@dataclass
class Inputs:
    train_shards: list[list]
    eval_shards: list[list]
    params: dict | None = None      # the loaded checkpoint (evaluating workload)


def _shards(samples: list, size: int, count: int) -> list[list]:
    return [samples[k * size:(k + 1) * size] for k in range(count)]


def set_up(workload: Workload, seed: int, workdir: Path, tracer: Tracer) -> Inputs:
    config = ar.DatasetConfig(
        num_samples=workload.train_pool + workload.eval_shard * workload.eval_shards,
        num_classes=workload.train.vit.num_classes, seed=seed)
    with tracer.span("synthdata.generate"):
        generated = ar.generate(config)
    # the same file names every time: creating and deleting hundreds of
    # files per set-up made the file system, and so setup_s, erratic
    dataset_dir = workdir / "dataset"
    with tracer.span("synthdata.dataset_io"):
        ar.save_dataset(dataset_dir, generated, config)
        samples, _ = ar.load_dataset(dataset_dir)
    _require(len(samples) == len(generated), "dataset round trip lost samples")
    inputs = Inputs(
        train_shards=_shards(samples, workload.train_shard, workload.train_shards),
        eval_shards=_shards(samples[workload.train_pool:], workload.eval_shard,
                            workload.eval_shards))
    if not workload.evaluates:
        return inputs

    train_cfg = replace(workload.train, epochs=workload.checkpoint_epochs)
    with tracer.span("trainer.train"):
        result = ar.train(train_cfg, samples[:workload.train_pool])
    check_train(result)
    path = workdir / "checkpoint.ckpt"
    with tracer.span("vit.checkpoint_io"):
        ar.save_checkpoint(path, result.params, train_cfg.vit)
        params, vit_cfg = ar.load_checkpoint(path)
    _require(vit_cfg == train_cfg.vit, "checkpoint config did not round-trip")
    _require(_params_digest(params) == _params_digest(result.params),
             "checkpoint parameters did not round-trip")
    inputs.params = params
    return inputs


# -- ops and loops -------------------------------------------------------------------

def _timed(fn, *args):
    """(fn(*args), (CPU seconds, wall seconds))"""
    c0, w0 = cpu_clock(), time.perf_counter()
    out = fn(*args)
    return out, (cpu_clock() - c0, time.perf_counter() - w0)


def _train_op(config: ar.TrainConfig, shard: list):
    """((CPU, wall) seconds, fingerprint, final loss, trained params)"""
    out, elapsed = _timed(ar.train, config, shard)
    check_train(out)
    return elapsed, (out.log, _params_digest(out.params)), float(out.log[-1]["total"]), out.params


def _eval_op(params: dict, vit_cfg: ar.ViTConfig, shard: list):
    """((CPU, wall) seconds, fingerprint, refined mIoU, None)"""
    out, elapsed = _timed(ar.evaluate, params, vit_cfg, shard)
    check_eval(out)
    return elapsed, out, out["refined"]["miou"], None


class Ledger:
    """Counts ops attempted and failed, and checks that an op repeated on
    the same shard returns exactly what it returned the first time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[tuple, tuple] = {}   # (kind, shard) -> (fingerprint, value, extra)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def run(self, key: tuple, op) -> tuple[float, float] | None:
        """Run op(); its (CPU, wall) seconds, or None if it raised or failed
        a check."""
        self.attempted += 1
        try:
            elapsed, fingerprint, value, extra = op()
            if key in self.first:
                _require(fingerprint == self.first[key][0],
                         f"{key}: output differs from the first run on this shard")
            else:
                self.first[key] = (fingerprint, value, extra)
            return elapsed
        except Exception as exc:  # an op that raises counts as failed; keep going
            self.fail(f"{key}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def values(self, kind: str) -> list[float]:
        return [v[1] for k, v in sorted(self.first.items()) if k[0] == kind]


@dataclass
class Loop:
    """The ops of one kind ("train" or "eval"), one per shard, and the CPU
    and wall times of those that ran."""

    kind: str
    ops: list
    items_per_op: int
    times: list[float] = field(default_factory=list)    # untraced ops, CPU seconds
    scaled: list[float] = field(default_factory=list)   # the same, reference seconds
    walls: list[float] = field(default_factory=list)    # untraced ops, wall seconds
    traced: list[float] = field(default_factory=list)   # traced ops, CPU seconds
    # shard -> tracer counters of its first traced op; counts taken over one
    # traced op per shard repeat exactly from run to run
    first_counts: dict[int, Counter] = field(default_factory=dict)
    done: int = 0

    @property
    def busy(self) -> float:
        return math.fsum(self.times)

    @property
    def passed(self) -> bool:
        """Every shard has run at least once."""
        return self.done >= len(self.ops)

    @property
    def rate(self) -> float | None:
        """Items per reference second."""
        return (self.items_per_op * len(self.scaled) / math.fsum(self.scaled)
                if self.scaled else None)

    def step(self, ledger: Ledger, reference: Reference,
             trace: tuple[Hooks, Tracer] | None = None) -> None:
        """Run the next shard's op and a reference call; in a trace run,
        repeat the op traced. The reference call before the op is the last
        one of the previous step."""
        k = self.done % len(self.ops)
        self.done += 1
        elapsed = ledger.run((self.kind, k), self.ops[k])
        reference.sample()
        if elapsed is not None:
            self.times.append(elapsed[0])
            self.walls.append(elapsed[1])
            self.scaled.append(elapsed[0] * reference.scale(len(reference.samples) - 2))
        if trace is None:
            return
        hooks, tracer = trace
        before = Counter(tracer.counts)
        hooks.install()
        try:
            with tracer.span("trainer.train" if self.kind == "train" else "trainer.evaluate"):
                elapsed = ledger.run((self.kind, k), self.ops[k])
        finally:
            hooks.remove()
        if elapsed is not None:
            self.traced.append(elapsed[0])
            self.first_counts.setdefault(k, tracer.counts - before)


def _closed_loop(ledger: Ledger, main: Loop, side: Loop | None, seconds: float,
                 trace: tuple[Hooks, Tracer] | None, reference: Reference) -> None:
    """One client, one op at a time, for `seconds`. Side ops are
    interleaved so that they take SIDE_SHARE of the busy time; both loops
    then see the same machine conditions. A reference kernel call precedes
    the first op and follows every op. After the deadline, the loop only
    finishes a first full pass over the shards, so every shard's
    deterministic result is known."""
    ratio = SIDE_SHARE / (1.0 - SIDE_SHARE)
    reference.sample()
    deadline = time.perf_counter() + seconds
    while True:
        late = time.perf_counter() >= deadline
        if late and main.passed and (side is None or side.passed):
            return
        if side is not None and (side.busy < ratio * main.busy if not late
                                 else not side.passed):
            side.step(ledger, reference)
        else:
            main.step(ledger, reference, trace)


# -- the run -----------------------------------------------------------------------

@dataclass
class Run:
    """Everything one run measured; metrics are derived from it."""

    workload: Workload
    setup_s: list[float]             # per set-up repeat, reference seconds
    reference_ms: float              # mean CPU ms of a reference call, timed loop
    setup_spans: list[dict]          # per set-up repeat: span name -> seconds
    main: Loop                       # the workload's own op
    side: Loop | None                # the other kind of op; None in trace runs
    op_totals: dict                  # span totals of the traced ops
    ledger: Ledger
    missing_hooks: list[str]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[Run, Tracer]:
    tracer = Tracer()
    reference = Reference()
    reference.sample(SETUP_REFERENCE_CALLS)
    setup_s, setup_spans = [], []
    while len(setup_s) < SETUP_MAX_REPEATS and (
            len(setup_s) < SETUP_REPEATS or math.fsum(setup_s) < SETUP_MIN_S):
        mark = len(tracer.spans)
        before = len(reference.samples) - SETUP_REFERENCE_CALLS
        t0 = cpu_clock()
        inputs = set_up(workload, seed, workdir, tracer)
        cpu = cpu_clock() - t0
        reference.sample(SETUP_REFERENCE_CALLS)
        setup_s.append(cpu * reference.scale(before))
        setup_spans.append({name: e["total"] for name, e in tracer.totals(mark).items()})

    ledger = Ledger()
    rng = np.random.default_rng([seed, 7])
    for failure in check_inversions(workload, rng):
        ledger.fail(failure)
    ledger.attempted += 1 + sum(t.kind is not TransformKind.RESIZE
                                for t in workload.train.augmentations)

    def train_loop():
        return Loop("train", [partial(_train_op, workload.train, s)
                              for s in inputs.train_shards], workload.train_shard)

    def eval_loop(models):
        """Eval shard j scores model j mod len(models)."""
        return Loop("eval", [partial(_eval_op, models[j % len(models)], workload.train.vit, s)
                             for j, s in enumerate(inputs.eval_shards)], workload.eval_shard)

    # untimed warm-up before each loop: lazy set-up in numpy/BLAS and
    # first-touch allocation. A train workload warms up with a full pass,
    # which also trains the models its interleaved evaluations score: one
    # per training shard, so that the quality metric averages over models.
    main = eval_loop([inputs.params]) if workload.evaluates else train_loop()
    for k in range(1 if workload.evaluates else len(main.ops)):
        ledger.run((main.kind, k), main.ops[k])
    side = None
    if not trace:
        if workload.evaluates:
            side = train_loop()
        else:
            models = [v[2] for key, v in sorted(ledger.first.items()) if key[0] == "train"]
            side = eval_loop(models) if models else None
        if side is not None:
            ledger.run((side.kind, 0), side.ops[0])

    hooks = Hooks(tracer, HOOKS) if trace else None
    trace_mark = len(tracer.spans)
    first = len(reference.samples)
    _closed_loop(ledger, main, side, seconds, (hooks, tracer) if trace else None, reference)
    loop_samples = reference.samples[first:]

    run = Run(workload=workload, setup_s=setup_s,
              reference_ms=1e3 * math.fsum(loop_samples) / len(loop_samples),
              setup_spans=setup_spans, main=main,
              side=side, op_totals=tracer.totals(trace_mark) if trace else {},
              ledger=ledger,
              missing_hooks=hooks.missing if hooks is not None else [])
    return run, tracer


# -- metrics -------------------------------------------------------------------------

def _setup_median(setup_spans: list[dict], name: str) -> float | None:
    """Median over the set-up repeats of the time spent in span `name`."""
    values = [rep[name] for rep in setup_spans if name in rep]
    return statistics.median(values) if values else None


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _mean(values) -> float | None:
    values = list(values)
    return math.fsum(values) / len(values) if values else None


def end_to_end(run: Run) -> dict[str, float | None]:
    """Times in reference seconds (see Reference)."""
    loops = {loop.kind: loop for loop in (run.main, run.side) if loop is not None}
    op_ms = [1e3 * t for t in run.main.scaled]
    return {
        "train_samples_per_s": loops["train"].rate if "train" in loops else None,
        "eval_images_per_s": loops["eval"].rate if "eval" in loops else None,
        "op_ms_p50": statistics.median(op_ms) if op_ms else None,
        "op_ms_p90": _percentile(op_ms, 90) if op_ms else None,
        "final_loss": _mean(run.ledger.values("train")),
        "refined_miou": _mean(run.ledger.values("eval")),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run) -> dict[str, float | None]:
    """Per-layer metrics of the traced ops; None where the layer did no
    work on this workload (its hooks matched no call)."""
    w = run.workload
    traced = run.main.traced
    items = len(traced) * run.main.items_per_op    # samples, or images when evaluating
    images = items if w.evaluates else 0
    steps = 0 if w.evaluates else len(traced) * w.steps_per_op
    totals = run.op_totals
    # counts: one traced op per shard
    counts = sum(run.main.first_counts.values(), Counter())
    counted = len(run.main.first_counts) * run.main.items_per_op
    counted_images = counted if w.evaluates else 0

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(count, denominator):
        return count / denominator if count and denominator else None

    def ms_per(name, denominator, kind="total"):
        return ratio(1e3 * totals[name][kind], denominator) if calls(name) else None

    def setup(name, scale=1.0):
        value = _setup_median(run.setup_spans, name)
        return None if value is None else scale * value

    nodes = counts["autodiff.nodes"]
    op_counts = dict.fromkeys(OP_NAMES + ("other",), 0)
    for key, value in counts.items():
        if key.startswith("autodiff.op."):
            op = key[len("autodiff.op."):]
            op_counts[op if op in OP_NAMES else "other"] += value
    untraced_s, traced_s = math.fsum(run.main.times[:len(traced)]), math.fsum(traced)
    return {
        "autodiff.ops_per_sample": ratio(nodes, counted),
        # an op the tape never recorded counts 0, as long as the tape was seen
        **{f"autodiff.ops.{op}": (c / counted if nodes and counted else None)
           for op, c in op_counts.items()},
        "autodiff.bytes_per_sample": ratio(counts["autodiff.bytes"], counted),
        "autodiff.backward_ms_per_sample": ms_per("autodiff.backward", items),
        "vit.forward_ms_per_view": ms_per("vit.forward", calls("vit.forward")),
        "vit.forwards_per_image": ratio(counts["calls:vit.forward"], counted_images),
        "vit.adjoints_ms_per_image": ms_per("vit.attention_adjoints", images),
        "vit.checkpoint_io_ms": setup("vit.checkpoint_io", 1e3),
        "regularizer.act_ms_per_sample": ms_per("regularizer.act", items, "self"),
        "regularizer.aff_ms_per_sample": ms_per("regularizer.aff", items, "self"),
        "regularizer.total_ms_per_sample": ms_per("regularizer.total", items, "self"),
        "gridtransform.invert_ms_per_sample": ms_per("gridtransform.invert_attention", items),
        "synthdata.augment_ms_per_sample": ms_per("synthdata.augment", items),
        "synthdata.generate_s": setup("synthdata.generate"),
        "synthdata.dataset_io_s": setup("synthdata.dataset_io"),
        "trainer.self_ms_per_step": ms_per("trainer.train", steps, "self"),
        "localization.build_maps_ms_per_image": ms_per("localization.build_maps", images),
        "localization.seed_ms_per_image": ms_per("localization.seed_from_maps", images),
        "metrics.sweep_ms_per_image": ms_per("metrics.sweep", images),
        "metrics.accumulate_calls_per_image": ratio(counts["calls:metrics.accumulate"],
                                                    counted_images),
        "metrics.accumulate_ms_per_image": ms_per("metrics.accumulate", images),
        "trace_overhead_frac": 1.0 - untraced_s / traced_s if traced_s > 0 else None,
    }

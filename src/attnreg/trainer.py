"""Siamese two-view training loop and seed evaluation.

Each batch draws its samples and one augmentation per sample, in batch
order, and runs them in chunks: the samples are grouped by the grid of
their augmented view and each group is cut into chunks bounded by
TAPE_BYTE_BUDGET (a sample is two images): on the criterion-07 model a
batch of 8 same-grid samples is one chunk. A chunk of k samples runs on
one fresh tape. A view that is no resize and keeps its image's shape
(flips, square rotations) runs in its image's forward: one (2k, C, H, W)
forward. Other views (every resize, also onto the image's own grid, and
rot90 of a non-square grid) run as one forward of the k images and one
of the k views. One consistency node computes both consistency terms of
every loss layer from the two views' attention stacks;
reg.consistency_terms inverts each sample's view by its own transform
in the node's gather, or resamples a resized view back first. One
backward of k times the chunk's mean loss adds the sum of the k
per-sample gradients into the parameters, as a per-sample loop would;
after the batch one (optionally momentum / polynomial-decay /
norm-clipped) SGD update applies their mean. Chunking changes only the
order of summation.
Determinism: all randomness flows from two seed-derived generators, one
for init and one for the sampling loop.

A training backward stores ``.grad`` in the parameters (the leaves that
require grad) and in no other tensor of the two-view loss. A non-finite
value aborts training with NumericalError naming the epoch and the batch
steps of the failing chunk, after dumping each of its samples (see
_dump_divergence).

Seed maps come from one stack path: adjoint_rows (one forward of an
image stack, one vit.attention_adjoints sweep per class rank, each
layer's class-token adjoint row kept), then localization.build_maps.
Evaluation runs it on stacks of images, the CLI's `seeds` on a one-image
stack on the image's own grid. A stack of c-class images takes c
sweeps, the per-image backward work of one sweep per present class. The
parameters are read through no-grad views, so a sweep writes nothing
shared and computes no parameter gradient: it stores no .grad, returns
only the heads' adjoints and stops at the first layer's attention,
below which nothing requires grad.

Evaluation is one streaming pass over those stacks. Images are grouped
by (image shape, mask shape, number of present classes) and each group
is cut into stacks bounded by TAPE_BYTE_BUDGET, a fixed byte budget for
the forward's tape, against the bytes a recorded forward of the model
takes per image (16 images of the criterion-07 model, 3 of the default
model); the image grid must be the model's. Every reported cell
-- unrefined, refined and each layer-sweep row -- builds the whole
stack's maps in one build_maps call and bins them into its threshold
histogram, and the stack is dropped, so memory does not grow with the
number of images.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import localization as lc
from . import metrics as mt
from . import regularizer as reg
from . import synthdata as sd
from . import vit
from .atomicio import atomic_open, write_text_atomic
from .autodiff import Tape, Tensor
from .errors import ContractError, DimensionError, NumericalError
from .gridtransform import (FLIP_H, FLIP_V, ROT90, ROT180, ROT270, GridShape, SpatialTransform,
                            TransformKind, check_token_cap)
from .regularizer import LossWeights
from .vit import ViTConfig

DEFAULT_AUGMENTATIONS = (FLIP_H,)


@dataclass(frozen=True)
class TrainConfig:
    vit: ViTConfig = field(default_factory=ViTConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    augmentations: tuple[SpatialTransform, ...] = DEFAULT_AUGMENTATIONS
    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 0.01
    momentum: float = 0.0
    poly_power: float | None = None   # None = constant learning rate
    clip_norm: float | None = 5.0
    seed: int = 0
    loss_layers: tuple[int, int] | None = None  # None = all layers
    map_layers: tuple[int, int] | None = None   # None = last two layers
    eval_every: int = 0          # epochs between held-out evaluations (0 = off)
    holdout_fraction: float = 0.0  # set together with eval_every, or neither

    def __post_init__(self):
        # written as `not lo <= x < inf` so NaN fails the check too
        if not 0 <= self.learning_rate < math.inf:
            raise ContractError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError("momentum must lie in [0, 1)")
        if self.poly_power is not None and not 0 < self.poly_power < math.inf:
            raise ContractError("poly_power must be finite and positive (or omitted), "
                                f"got {self.poly_power}")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ContractError("clip_norm must be finite and positive (or omitted), "
                                f"got {self.clip_norm}")
        if not self.augmentations:
            raise ContractError("need at least one augmentation choice")
        for t in self.augmentations:  # refused before any data is read
            if t.kind is TransformKind.RESIZE:
                check_token_cap(t.resize_target, f"augmentation {t}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ContractError("holdout_fraction must lie in [0, 1)")
        if self.eval_every < 0:
            raise ContractError("eval_every must be >= 0")
        if self.holdout_fraction > 0.0 and self.eval_every == 0:
            raise ContractError("holdout_fraction > 0 needs eval_every > 0: the held-out "
                                "samples would leave training and never be scored")
        if self.eval_every > 0 and self.holdout_fraction == 0.0:
            raise ContractError("eval_every > 0 needs holdout_fraction > 0: there is no "
                                "held-out data to score")
        if self.eval_every > self.epochs:
            raise ContractError(f"eval_every {self.eval_every} > epochs {self.epochs}: the "
                                "held-out samples would leave training and never be scored")
        for name in ("loss_layers", "map_layers"):
            if (layer_range := getattr(self, name)) is not None:
                try:
                    lc.resolve_layers(layer_range, self.vit.num_layers)
                except ContractError as exc:
                    raise ContractError(f"{name}: {exc}") from None


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    config: TrainConfig
    log: list[dict]
    checkpoint_path: Path | None
    log_path: Path | None


# -- plain-text config files ---------------------------------------------------

def parse_layer_range(text: str, unset: str) -> tuple[int, int] | None:
    """A layer range `A:B` or `A..B` as (A, B); the word `unset` as None."""
    if text == unset:
        return None
    lo, _, hi = text.partition(".." if ".." in text else ":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ContractError(f"bad layer range {text!r}; expected A:B, A..B "
                            f"or {unset!r}") from None


def _parse_bool(value: str) -> bool:
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ContractError(f"expected a boolean, got {value!r}")


class _Codec(NamedTuple):
    read: Callable[[str], object]   # value text -> field value
    write: Callable[[object], str]  # field value -> value text


def _optional(codec: _Codec) -> _Codec:
    """`codec`, with the word `none` (any case) for None."""
    return _Codec(lambda s: None if s.lower() == "none" else codec.read(s),
                  lambda v: "none" if v is None else codec.write(v))


def _layer_range(unset: str) -> _Codec:
    return _Codec(lambda s: parse_layer_range(s, unset),
                  lambda v: unset if v is None else f"{v[0]}:{v[1]}")


_INT, _FLOAT = _Codec(int, str), _Codec(float, str)

# Every key of the config file, in the order format_train_config writes
# them. A dotted key sets a field of TrainConfig.vit or .weights.
CONFIG_KEYS: dict[str, _Codec] = {
    "vit.patch_size": _INT,
    "vit.grid": _Codec(GridShape.parse, str),
    "vit.embed_dim": _INT,
    "vit.num_layers": _INT,
    "vit.num_heads": _INT,
    "vit.mlp_ratio": _FLOAT,
    "vit.num_classes": _INT,
    "vit.use_positional_embedding": _Codec(_parse_bool, lambda v: "true" if v else "false"),
    "vit.in_channels": _INT,
    "weights.alpha": _FLOAT,
    "weights.beta": _FLOAT,
    "weights.distance": _Codec(str, str),
    "augmentations": _Codec(lambda s: tuple(SpatialTransform.parse(p)
                                            for p in s.split(",") if p.strip()),
                            lambda v: ",".join(str(t) for t in v)),
    "epochs": _INT,
    "batch_size": _INT,
    "learning_rate": _FLOAT,
    "momentum": _FLOAT,
    "poly_power": _optional(_FLOAT),
    "clip_norm": _optional(_FLOAT),
    "seed": _INT,
    "loss_layers": _layer_range("all"),
    "map_layers": _layer_range("default"),
    "eval_every": _INT,
    "holdout_fraction": _FLOAT,
}


def _read_value(key: str, text: str, where: str):
    """The value of config key `key` written as `text`; `where` names the
    source in errors."""
    codec = CONFIG_KEYS.get(key)
    if codec is None:
        raise ContractError(f"{where}: unknown key {key!r}")
    try:
        return codec.read(text)
    except (ValueError, ContractError) as exc:
        raise ContractError(f"{where}: bad value {text!r} for {key}: {exc}") from exc


def parse_train_config(text: str, overrides: dict[str, str] | None = None) -> TrainConfig:
    """Parse `key = value` lines (# comments, blank lines ignored, keys in
    any case, a repeated key overrides). Unknown keys are rejected so typos
    cannot silently fall back to defaults. Each config key in `overrides`
    is then set from its text, as a last line `key = text` would set it;
    the one TrainConfig is built, and validated, from the merged values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        values[key.lower()] = _read_value(key.lower(), value, f"config line {lineno}")
    for key, text in (overrides or {}).items():
        values[key] = _read_value(key, text, "override")
    # a dotted key sets a field of TrainConfig.vit or .weights
    fields: dict[str, dict] = {"vit": {}, "weights": {}, "": {}}
    for key, value in values.items():
        group, _, name = key.rpartition(".")
        fields[group][name] = value
    return TrainConfig(vit=ViTConfig(**fields["vit"]), weights=LossWeights(**fields["weights"]),
                       **fields[""])


def format_train_config(config: TrainConfig) -> str:
    """Inverse of parse_train_config (round-trips exactly)."""
    lines = []
    for key, codec in CONFIG_KEYS.items():
        value = config
        for name in key.split("."):
            value = getattr(value, name)
        lines.append(f"{key} = {codec.write(value)}\n")
    return "".join(lines)


# -- the tape budget ------------------------------------------------------------

# A forward of a stack of images -- an evaluation stack, or the two views
# of each sample of a training chunk -- may record this many bytes of
# node outputs, as _tape_bytes_per_image measures them per image. That
# unit is the bytes the recorded outputs would take, not what a chunk
# holds: the tape keeps no output, and a chunk holds only what the
# caller and the backward closures keep (softmax outputs, layer norm's
# normalized input, GELU's derivative, a loss's differences), well under
# the outputs' sum. The bound is a constant, not a knob: 7 MiB is the
# smallest whole MiB that holds 8 same-grid pairs of the criterion-07
# model (8x8 grid, embed 16, 2 layers; 16 x 455,936 B), so its batch of
# 8 trains as one chunk on one tape and evaluation stacks 16 images. The
# default model (embed 64, 4 layers) fits 3 images on its 8x8 grid, so
# evaluation stacks 3 and a same-grid pair trains alone; a pair with a
# 6x6 resized view takes 2 per chunk. Each chunk pays a fixed cost of
# about 1 ms (its tape nodes forward and backward, and the loss glue), so
# fewer chunks train faster. Measured on the criterion-07 model when a
# chunk recorded 63 nodes (44 since both consistency terms became one
# node), CPU time of one _chunk_backward: 2.42 ms for 1 pair, 6.17 ms for
# 4 and 11.56 ms for 8 (1.45 ms per pair, against 1.54 for chunks of 4);
# traced peaks 4.42 MB for 4 pairs and 8.8 MB for 8. In the benchmark's
# train_consistency, batches as one chunk of 8 trained 1.11x as fast as
# 4+4, for +4.6% peak RSS on localize_eval (16-image stacks).
TAPE_BYTE_BUDGET = 28 * 2**18  # 7 MiB


@functools.lru_cache(maxsize=None)
def _tape_bytes_per_image(cfg: ViTConfig, grid: GridShape) -> int:
    """Node-output bytes of one image's forward on `grid`, measured: the
    float64 bytes of the output shapes that one recorded forward of a zero
    image records, on zero parameters that do not require grad. The tape
    keeps those shapes, not the outputs, so this is a size in the unit of
    TAPE_BYTE_BUDGET rather than what the forward holds. The first call
    for a (cfg, grid) runs `vit.forward` under a tape of
    its own, so it must come outside any active tape (tapes do not nest):
    _chunks and _stacks reach it between the forwards they feed."""
    params = {name: Tensor(np.zeros(shape)) for name, shape, _ in vit._layout(cfg)}
    image = np.zeros((cfg.in_channels, grid.h * cfg.patch_size, grid.w * cfg.patch_size))
    with Tape() as tape:
        vit.forward(image, params, cfg)
    return sum(8 * math.prod(node.shape) for node in tape.nodes)


def _budgeted_runs(items: list, key, item_bytes):
    """Yield `items` grouped by key(item), in order of first appearance,
    and each group cut into runs of at most TAPE_BYTE_BUDGET forward bytes
    (at least one item), item_bytes(item) per item."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    for group in groups.values():
        size = max(1, TAPE_BYTE_BUDGET // item_bytes(group[0]))
        for i in range(0, len(group), size):
            yield group[i:i + size]


# -- the optimization loop -----------------------------------------------------

def _loss_layer_slice(config: TrainConfig) -> tuple[int, int]:
    """The loss layers [lo, hi); None means every layer (TrainConfig has
    checked any other range)."""
    return config.loss_layers or (0, config.vit.num_layers)


class _TwoViews(NamedTuple):
    """One training sample at batch step `step`, the transform drawn for
    it, and its augmented view (the sample's image under the transform)."""

    step: int
    sample: sd.SyntheticSample
    transform: SpatialTransform
    view: np.ndarray


def _two_views(step: int, sample: sd.SyntheticSample, transform: SpatialTransform,
               cfg: ViTConfig) -> _TwoViews:
    return _TwoViews(step, sample, transform,
                    sd.augment(sample.image, transform, cell_pixels=cfg.patch_size))


def _in_image_forward(p: _TwoViews) -> bool:
    """Whether p's view runs in one forward with its image: iff its
    transform is no resize and the view has the image's shape. A resize
    onto the image's own grid runs apart too, as every resize does."""
    return p.transform.kind is not TransformKind.RESIZE and p.view.shape == p.sample.image.shape


def _chunks(pairs: list[_TwoViews], cfg: ViTConfig):
    """Yield the batch's pairs grouped by (image shape, mask shape, view
    shape, resize or not), in order of first appearance, and each group
    cut into chunks bounded by TAPE_BYTE_BUDGET: a pair records the
    forward of its image and of its view. The key fixes
    _in_image_forward; the resize flag also parts rot90 of a non-square
    grid from a resize onto the rotated grid, which invert differently."""
    def key(p: _TwoViews) -> tuple:
        return (p.sample.image.shape, p.sample.mask.shape, p.view.shape,
                p.transform.kind is TransformKind.RESIZE)

    def pair_bytes(p: _TwoViews) -> int:
        return sum(_tape_bytes_per_image(cfg, vit.image_grid(image, cfg))
                   for image in (p.sample.image, p.view))

    return _budgeted_runs(pairs, key, pair_bytes)


def _chunk_loss(chunk: list[_TwoViews], params: dict[str, Tensor], config: TrainConfig,
                snapshot: dict | None = None) -> reg.LossBreakdown:
    """The two-view loss of a chunk of k pairs whose views share one grid
    (see _chunks), as the mean over its samples: k times it is the sum of
    the k per-sample losses, and its gradient the sum of theirs.

    Views that run in their images' forward (_in_image_forward) run as
    one (2k, C, H, W) forward, plain images first; other views as one
    forward of the k images and one of the k views. One node
    (reg.consistency_terms) computes both consistency terms of every loss
    layer from the (2k, n+1, n+1) stacks, or the two (k, n+1, n+1)
    stacks, inverting each sample's view by its own transform. It runs in
    every cell, for the residuals in the breakdown; a term weighted 0
    does not enter the total. With `snapshot`, the (k, ...) stacks of the
    images ("view_a"), of the views ("view_b") and, once the forward ran,
    of every layer's attention in either view are put in it."""
    cfg = config.vit
    k = len(chunk)
    images = np.stack([p.sample.image for p in chunk])
    views = np.stack([p.view for p in chunk])
    if snapshot is not None:
        snapshot["view_a"], snapshot["view_b"] = images, views
    lo, hi = _loss_layer_slice(config)
    weights = config.weights
    # per view: logits and every layer's attention values
    if _in_image_forward(chunk[0]):
        res = vit.forward(np.concatenate([images, views]), params, cfg)
        a, ap = [r.matrix for r in res.attentions[lo:hi]], None  # both views per stack
        sides = [(ad.index(res.logits, half), [r.matrix.data[half] for r in res.attentions])
                 for half in (slice(0, k), slice(k, 2 * k))]
    else:
        res, res_b = (vit.forward(stack, params, cfg) for stack in (images, views))
        a, ap = ([rec.matrix for rec in r.attentions[lo:hi]] for r in (res, res_b))
        sides = [(r.logits, [rec.matrix.data for rec in r.attentions]) for r in (res, res_b)]
    if snapshot is not None:
        for tag, (_, matrices) in zip("ab", sides):
            snapshot.update({f"attention_{tag}_{i}": m for i, m in enumerate(matrices)})
    (logits_a, _), (logits_b, _) = sides
    terms = reg.consistency_terms(a, ap, [p.transform for p in chunk], res.grid,
                                  weights.distance)
    act = ad.index(terms.loss, 0) if weights.alpha != 0.0 else Tensor(0.0)
    aff = ad.index(terms.loss, 1) if weights.beta != 0.0 else Tensor(0.0)
    targets = np.stack([p.sample.labels for p in chunk])
    breakdown = reg.total_loss(logits_a, logits_b, targets, act, aff, weights)
    breakdown.residuals = terms.layers
    return breakdown


def _chunk_backward(chunk: list[_TwoViews], params: dict[str, Tensor], config: TrainConfig,
                    snapshot: dict | None = None) -> dict[str, float]:
    """Record k times the chunk's mean loss on a fresh tape and
    backpropagate it, so the parameters' .grad gain the sum of the k
    per-sample gradients. Returns the chunk's sums of the loss terms and
    of each loss layer's residuals, act_residual_{layer} and
    aff_residual_{layer}."""
    with Tape() as tape:
        breakdown = _chunk_loss(chunk, params, config, snapshot)
        total = ad.mul(breakdown.total, float(len(chunk)))
    # a NumericalError comes only from building an op's output, and the
    # backward builds none: the dump can no longer need the snapshot,
    # which would keep every layer's attention stack through the sweep
    if snapshot is not None:
        snapshot.clear()
    tape.backward(total)
    k = len(chunk)
    sums = {key: k * value for key, value in breakdown.to_floats().items()}
    lo, _ = _loss_layer_slice(config)
    for term, row in zip(("act", "aff"), breakdown.residuals):
        sums.update({f"{term}_residual_{lo + i}": k * float(r) for i, r in enumerate(row)})
    return sums


def _dump_divergence(out_dir: Path | None, epoch: int, steps: list[int],
                     samples: list[sd.SyntheticSample], snapshot: dict) -> str:
    """Write whatever the failing chunk produced before blowing up: entry j
    of every array belongs to the chunk's j-th sample (batch step
    steps[j]) -- labels, mask, both views and any attention matrices
    already recorded."""
    if out_dir is None:
        return "no output directory, nothing dumped"
    path = out_dir / f"divergence_epoch{epoch}_step{'-'.join(map(str, steps))}.npz"
    with atomic_open(path) as f:
        np.savez(f, labels=np.stack([s.labels for s in samples]),
                 mask=np.stack([s.mask for s in samples]), **snapshot)
    return str(path)


def _global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def train(config: TrainConfig, samples: list[sd.SyntheticSample],
          out_dir=None) -> TrainResult:
    """Run the Siamese loop; returns trained parameters and the per-epoch
    log. A log record holds the epoch's mean per-sample loss terms and,
    per loss layer, consistency residuals (act_residual_{layer},
    aff_residual_{layer}: the unweighted distances of either term, logged
    whatever the weights), its last learning rate, the mean and max of its updates' pre-clip global
    gradient norms (of the batch-mean gradient) and how many of those
    updates were clipped. With out_dir set, creates it before training
    and writes checkpoint.ckpt, log.jsonl and train_config.txt there,
    each replaced atomically."""
    if not samples:
        raise ContractError("training needs a nonempty dataset")
    if any(s.labels.shape != (config.vit.num_classes,) for s in samples):
        raise ContractError("sample labels do not match vit.num_classes")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:  # fail on a bad out_dir before any training
        out_path.mkdir(parents=True, exist_ok=True)

    holdout: list[sd.SyntheticSample] = []
    train_set = samples
    if config.holdout_fraction > 0.0:
        cut = max(1, int(round(config.holdout_fraction * len(samples))))
        if cut >= len(samples):
            raise ContractError("holdout fraction leaves no training data")
        train_set, holdout = samples[:-cut], samples[-cut:]

    init_rng = np.random.default_rng([config.seed, 0])
    loop_rng = np.random.default_rng([config.seed, 1])
    params = vit.init_params(config.vit, init_rng)
    velocity = {name: np.zeros_like(p.data) for name, p in params.items()}

    n = len(train_set)
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_updates = config.epochs * steps_per_epoch
    update_index = 0
    log: list[dict] = []

    for epoch in range(config.epochs):
        order = loop_rng.permutation(n)
        sums: dict[str, float] = {}  # each loss term and residual, over the epoch
        norms: list[float] = []  # each update's pre-clip global gradient norm
        clipped = 0
        lr_this_epoch = config.learning_rate
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            for name in params:
                params[name].zero_grad()
            pairs = []
            for j, idx in enumerate(batch):  # one transform per sample, in batch order
                transform = config.augmentations[int(loop_rng.integers(len(config.augmentations)))]
                pairs.append(_two_views(start + j, train_set[int(idx)], transform, config.vit))
            for chunk in _chunks(pairs, config.vit):
                snapshot: dict = {}
                try:
                    terms = _chunk_backward(chunk, params, config, snapshot)
                except NumericalError as exc:
                    steps = [p.step for p in chunk]
                    where = _dump_divergence(out_path, epoch, steps,
                                             [p.sample for p in chunk], snapshot)
                    raise NumericalError(f"non-finite loss at epoch {epoch} in the chunk of "
                                         f"batch steps {', '.join(map(str, steps))}: {exc} "
                                         f"(diagnostics: {where})") from exc
                for key, value in terms.items():
                    sums[key] = sums.get(key, 0.0) + value
            # mean-gradient SGD update over the batch
            lr = config.learning_rate
            if config.poly_power is not None:
                lr *= (1.0 - update_index / total_updates) ** config.poly_power
            lr_this_epoch = lr
            names = [name for name in params if params[name].grad is not None]
            grads = [params[name].grad / len(batch) for name in names]
            norm = _global_norm(grads)
            norms.append(norm)
            if config.clip_norm is not None and norm > config.clip_norm:
                grads = [g * (config.clip_norm / norm) for g in grads]
                clipped += 1
            for name, g in zip(names, grads):
                v = velocity[name]
                v *= config.momentum
                v += g
                params[name].data -= lr * v
            update_index += 1

        record = {"epoch": epoch, "lr": lr_this_epoch,
                  **{k: v / n for k, v in sums.items()},
                  "grad_norm_mean": math.fsum(norms) / len(norms),
                  "grad_norm_max": max(norms), "clipped_steps": clipped}
        if holdout and (epoch + 1) % config.eval_every == 0:
            summary = evaluate(params, config.vit, holdout,
                               map_layers=config.map_layers)
            record["holdout_miou"] = summary["refined"]["miou"]
        log.append(record)

    checkpoint_path = log_path = None
    if out_path is not None:
        checkpoint_path = out_path / "checkpoint.ckpt"
        log_path = out_path / "log.jsonl"
        vit.save_checkpoint(checkpoint_path, params, config.vit)
        write_text_atomic(log_path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in log))
        write_text_atomic(out_path / "train_config.txt", format_train_config(config))
    return TrainResult(params=params, config=config, log=log,
                       checkpoint_path=checkpoint_path, log_path=log_path)


# -- evaluation -----------------------------------------------------------------

def _no_grad_views(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Parameters that require grad wrapped as no-grad views of the same
    data; the others are passed through as they are."""
    return {name: Tensor(p.data) if p.requires_grad else p for name, p in params.items()}


def adjoint_rows(images: np.ndarray, classes, params: dict[str, Tensor], cfg: ViTConfig):
    """Localization inputs of an (S, C, H, W) image stack on any one grid:
    one forward on one tape, then one vit.attention_adjoints sweep per
    class rank r, seeded on logits row v with the one-hot of image v's
    class ``classes[v, r]``. Returns the class-token adjoint rows
    (S, c, L, n), [v, r, l] of image v's r-th class at layer l, and the
    patch-to-patch attention blocks (S, L, n, n); the tape is dropped on
    return. Parameters that require grad are read through no-grad views:
    nothing shared is written and no parameter gradient is computed."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.size and (classes.min() < 0 or classes.max() >= cfg.num_classes):
        raise ContractError(f"classes {sorted(set(classes.ravel().tolist()))} outside "
                            f"0..{cfg.num_classes - 1}")
    with Tape() as tape:
        res = vit.forward(images, _no_grad_views(params), cfg)
    views = np.arange(len(images))
    rows = np.empty(classes.shape + (cfg.num_layers, res.grid.n))
    for r in range(classes.shape[1]):
        seed = np.zeros(res.logits.shape)
        seed[views, classes[:, r]] = 1.0
        for i, adjoint in enumerate(vit.attention_adjoints(tape, res, seed, row=0)):
            rows[:, r, i] = adjoint[:, 1:]
    blocks = np.stack([rec.matrix.data[:, 1:, 1:] for rec in res.attentions], axis=1)
    return rows, blocks


def _stacks(samples: list[sd.SyntheticSample], cfg: ViTConfig):
    """Yield (stack, classes): the samples grouped by (image shape, mask
    shape, number of present classes), in order of first appearance, and
    each group cut into stacks of at most TAPE_BYTE_BUDGET forward bytes;
    classes is the (S, c) array of each image's present classes in
    ascending order."""
    def key(s: sd.SyntheticSample) -> tuple:
        return s.image.shape, s.mask.shape, int(np.count_nonzero(s.labels))

    for stack in _budgeted_runs(samples, key, lambda s: _tape_bytes_per_image(cfg, cfg.grid)):
        yield stack, np.array([np.flatnonzero(s.labels) for s in stack], dtype=np.int64)


def evaluate(params: dict[str, Tensor], cfg: ViTConfig,
             samples: list[sd.SyntheticSample], map_layers=None,
             sweep_layers: bool = False) -> dict:
    """Seed quality of gradient maps against pixel ground truth: best
    background threshold, mIoU, FP/FN rates, for both unrefined and
    affinity-refined maps; optionally the start-layer sweep table, whose
    row s fuses and refines layers [s, num_layers). An image with no
    present class is scored as all background.

    One streaming pass over stacks of images (see _stacks): each stack
    goes through adjoint_rows, then every reported cell -- (layer range,
    refined) -- builds the stack's maps in one build_maps call and bins
    them into the cell's threshold histogram; the stack is dropped before
    the next one. Images must lie on the model's grid. Memory is
    bounded by TAPE_BYTE_BUDGET, not by the number of images, and the
    counts, so the summary, do not depend on how images are stacked."""
    if not samples:
        raise ContractError("evaluation needs a nonempty dataset")
    layers = cfg.num_layers
    map_range = lc.resolve_layers(map_layers, layers)
    reported = {"unrefined": (map_range, False), "refined": (map_range, True)}
    sweep_rows = [((s, layers), True) for s in range(layers)] if sweep_layers else []
    hists = {cell: mt.ConfusionAccumulator(cfg.num_classes + 1, levels=len(mt.THRESHOLDS) + 1)
             for cell in [*reported.values(), *sweep_rows]}
    # once per call; adjoint_rows passes no-grad views through as they are
    frozen = _no_grad_views(params)
    h, w = cfg.grid.h, cfg.grid.w
    for stack, classes in _stacks(samples, cfg):
        gt = np.stack([s.mask for s in stack])
        if classes.shape[1] == 0:
            for hist in hists.values():
                mt.add_seeds(hist, gt)
            continue
        images = np.stack([s.image for s in stack])
        if (image_grid := vit.image_grid(images, cfg)) != cfg.grid:
            raise DimensionError(f"image grid {image_grid} does not match the model's "
                                 f"grid {cfg.grid}")
        rows, blocks = adjoint_rows(images, classes, frozen, cfg)
        fused: dict = {}  # unrefined maps per layer range, which refining starts from
        for (layer_range, refine), hist in hists.items():
            values = lc.build_maps(rows, blocks, layer_range, refine, fused.get(layer_range))
            if not refine:
                fused[layer_range] = values
            labels, peak = lc.argmax_seed(values.reshape(classes.shape + (h, w)), classes)
            mt.add_seeds(hist, gt, labels, peak)

    result: dict = {"num_images": len(samples), "num_classes": cfg.num_classes}
    for key, cell in reported.items():
        result[key] = mt.best_threshold(hists[cell])
    if sweep_layers:
        result["layer_sweep"] = []
        for cell in sweep_rows:
            entry = mt.best_threshold(hists[cell])
            del entry["per_class_iou"]
            result["layer_sweep"].append({"start_layer": cell[0][0], **entry})
    return result


# -- ablation harness ------------------------------------------------------------

REGULARIZER_GRID = (("baseline", 0.0, 0.0), ("act_only", 1.0, 0.0),
                    ("aff_only", 0.0, 1.0), ("full", 1.0, 1.0))
AUGMENTATION_CHOICES = (("fliph", (FLIP_H,)), ("flipv", (FLIP_V,)),
                        ("rot", (ROT90, ROT180, ROT270)),
                        ("fliph+rot", (FLIP_H, ROT90, ROT180, ROT270)))


def _run_cells(config: TrainConfig, samples: list[sd.SyntheticSample],
               eval_samples: list[sd.SyntheticSample] | None,
               cells: list[tuple[dict, TrainConfig]], threshold: bool = False) -> list[dict]:
    """Train each cell's config on `samples`, evaluate it on `eval_samples`
    (default: `samples`) with config's model and map layers, and return
    one row per cell: its head, both mIoUs, the refined threshold when
    asked, and the final loss."""
    rows = []
    for head, cell_cfg in cells:
        result = train(cell_cfg, samples)
        summary = evaluate(result.params, config.vit, eval_samples or samples,
                           map_layers=config.map_layers)
        row = {**head, "unrefined_miou": summary["unrefined"]["miou"],
               "refined_miou": summary["refined"]["miou"]}
        if threshold:
            row["threshold"] = summary["refined"]["threshold"]
        rows.append({**row, "final_loss": result.log[-1]["total"]})
    return rows


def run_regularizer_grid(config: TrainConfig, samples: list[sd.SyntheticSample],
                         eval_samples: list[sd.SyntheticSample] | None = None) -> list[dict]:
    """The 2x2 {activation on/off} x {affinity on/off} table. Cells reuse
    config's alpha/beta as the 'on' magnitudes."""
    cells = []
    for name, act_on, aff_on in REGULARIZER_GRID:
        weights = replace(config.weights, alpha=config.weights.alpha * act_on,
                          beta=config.weights.beta * aff_on)
        cells.append(({"cell": name, "alpha": weights.alpha, "beta": weights.beta},
                      replace(config, weights=weights)))
    return _run_cells(config, samples, eval_samples, cells, threshold=True)


def run_distance_sweep(config: TrainConfig, samples: list[sd.SyntheticSample],
                       eval_samples: list[sd.SyntheticSample] | None = None) -> list[dict]:
    cells = [({"distance": distance},
              replace(config, weights=replace(config.weights, distance=distance)))
             for distance in reg.DISTANCES]
    return _run_cells(config, samples, eval_samples, cells)


def run_augmentation_sweep(config: TrainConfig, samples: list[sd.SyntheticSample],
                           eval_samples: list[sd.SyntheticSample] | None = None) -> list[dict]:
    cells = [({"augmentation": name}, replace(config, augmentations=augs))
             for name, augs in AUGMENTATION_CHOICES]
    return _run_cells(config, samples, eval_samples, cells)

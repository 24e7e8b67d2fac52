"""Class localization maps from attention gradients.

Pipeline per class: take each selected layer's adjoint of the recorded
attention matrix, keep the class-token-to-patch row, average over the
layers, clamp negatives to zero, reshape to the patch grid, divide by
the max (all-zero maps stay all-zero). Optional refinement multiplies
the map (as a row vector) by the layer-averaged patch-to-patch
attention block, then clamp-normalizes again.

Seeds: a pixel is background when every class map sits below the
threshold, otherwise the argmax class wins, ties to the lowest class
index. Stored labels are class_index + 1, 0 = background.

``build_maps`` is the one map builder of the package: it takes the
class-token adjoint rows and patch blocks of an image stack (see
``trainer.adjoint_rows``) and returns every class map of every image at
once. ``trainer.evaluate`` and the ``seeds`` command (a one-image
stack) both go through it. Its kernels (``fuse_rows``, ``patch_affinity``,
``refine_maps``) and ``argmax_seed`` take any number of leading axes.
``grad_localization`` is the one-map, unrefined case for a caller
holding a single image's full adjoint matrices; it only adds validation
and the ``LocalizationMap`` wrapper. Refined maps come only from
``build_maps``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import netpbm
from .atomicio import write_text_atomic
from .autodiff import axis_sum
from .errors import ContractError, DimensionError
from .gridtransform import GridShape, nearest_index


@dataclass
class LocalizationMap:
    class_index: int         # model output index (0-based)
    values: np.ndarray       # (h, w), in [0, 1], max == 1 unless all-zero
    layers_fused: tuple[int, int]  # [start, stop) over model layers
    refined: bool = False


@dataclass
class SeedMask:
    labels: np.ndarray       # (h, w) int64; 0 background, k = class k-1's map
    threshold: float


def resolve_layers(layer_range: tuple[int, int] | None, num_layers: int) -> tuple[int, int]:
    if layer_range is None:
        layer_range = (max(0, num_layers - 2), num_layers)
    start, stop = layer_range
    if not 0 <= start < stop <= num_layers:
        raise ContractError(f"layer range {layer_range} invalid for {num_layers} layers")
    return start, stop


def _clamp_normalize(values: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and divide each map (the last axis) by its
    max; all-zero maps stay all-zero."""
    values = np.maximum(values, 0.0)
    peak = values.max(axis=-1, keepdims=True)
    return values / np.where(peak > 0.0, peak, 1.0)


def _layer_mean(layers: np.ndarray, axis: int) -> np.ndarray:
    """The mean over the layer axis as ndarray.mean computes it, the sum
    then one divide, with axis_sum's sum instead of the strided reduce:
    bit-identical, and cheaper on a few layers."""
    total = axis_sum(layers, axis)
    total /= layers.shape[axis]
    return total


def fuse_rows(rows: np.ndarray, layer_range: tuple[int, int]) -> np.ndarray:
    """Class maps from class-token adjoint rows: (..., L, n) rows -> their
    clamp-normalized mean over layers [start, stop), (..., n)."""
    start, stop = layer_range
    return _clamp_normalize(_layer_mean(rows[..., start:stop, :], -2))


def patch_affinity(blocks: np.ndarray, layer_range: tuple[int, int]) -> np.ndarray:
    """(..., L, n, n) patch-to-patch attention blocks -> their mean over
    layers [start, stop), (..., n, n)."""
    start, stop = layer_range
    return _layer_mean(blocks[..., start:stop, :, :], -3)


def refine_maps(values: np.ndarray, affinity: np.ndarray) -> np.ndarray:
    """(..., c, n) maps, each as a row vector times its image's (..., n, n)
    affinity, then clamp-normalized. Every product is a (1, n) @ (n, n)
    one, as for a single map, so stacking changes no bit."""
    spread = values[..., None, :] @ affinity[..., None, :, :]
    return _clamp_normalize(spread[..., 0, :])


def build_maps(rows: np.ndarray, blocks: np.ndarray, layer_range: tuple[int, int],
               refine: bool, fused: np.ndarray | None = None) -> np.ndarray:
    """The (..., c, n) class maps of a stack: (..., c, L, n) class-token
    adjoint rows fused over layers [start, stop), then, with `refine`,
    spread along the same layers' mean of the (..., L, n, n) patch blocks.
    A caller that built the unrefined maps of the same rows and range
    passes them as `fused`, and the rows are not fused again."""
    values = fuse_rows(rows, layer_range) if fused is None else fused
    if refine:
        values = refine_maps(values, patch_affinity(blocks, layer_range))
    return values


def argmax_seed(values: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., c, h, w) maps of the ascending class indices (..., c) ->
    (labels, peak), both (..., h, w): labels is the argmax map's class + 1
    (the first max wins, so ties go to the lowest class) and peak the max
    over the maps."""
    winner = np.argmax(values, axis=-3)
    labels = np.take_along_axis(np.asarray(classes, dtype=np.int64)[..., None, None],
                                winner[..., None, :, :], axis=-3)[..., 0, :, :] + 1
    return labels, values.max(axis=-3)


def grad_localization(adjoints: Sequence[np.ndarray], grid: GridShape, class_index: int,
                      layer_range: tuple[int, int] | None = None) -> LocalizationMap:
    """Fuse per-layer attention adjoints into one normalized class map.

    `adjoints` is the full per-layer list (as returned by
    `attention_adjoints`); `layer_range` selects [start, stop), defaulting
    to the last two layers."""
    if len(adjoints) == 0:
        raise ContractError("no adjoints given")
    start, stop = resolve_layers(layer_range, len(adjoints))
    m = grid.n + 1
    rows = np.empty((len(adjoints), grid.n))
    for i in range(start, stop):
        adj = np.asarray(adjoints[i], dtype=np.float64)
        if adj.shape != (m, m):
            raise DimensionError(f"layer {i}: adjoint shape {adj.shape} does not "
                                 f"match grid {grid}")
        rows[i] = adj[0, 1:]
    return LocalizationMap(class_index=class_index,
                           values=fuse_rows(rows, (start, stop)).reshape(grid.h, grid.w),
                           layers_fused=(start, stop), refined=False)


def seed_from_maps(maps: Sequence[LocalizationMap], threshold: float) -> SeedMask:
    """Binarize: background where all maps < threshold, else the argmax
    map's class (ties to the lowest class index); labels are
    class_index + 1."""
    if len(maps) == 0:
        raise ContractError("need at least one map to build a seed mask")
    maps = sorted(maps, key=lambda m: m.class_index)
    classes = [m.class_index for m in maps]
    if len(set(classes)) != len(classes):
        raise ContractError(f"duplicate class maps: {classes}")
    shape = maps[0].values.shape
    if any(m.values.shape != shape for m in maps):
        raise DimensionError("all maps must share one grid shape")
    labels, peak = argmax_seed(np.stack([m.values for m in maps]), classes)
    labels[peak < threshold] = 0
    return SeedMask(labels=labels, threshold=float(threshold))


def upsample_nearest(labels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor upsample of an integer label grid, (..., h, w) ->
    (..., out_h, out_w) (half-pixel centers; exact block replication for
    integer factors)."""
    labels = np.asarray(labels)
    if labels.ndim < 2:
        raise DimensionError(f"expected (..., h, w) labels, got shape {labels.shape}")
    if out_h < 1 or out_w < 1:
        raise ContractError("output size must be positive")
    return labels[..., nearest_index(labels.shape[-2], out_h)[:, None],
                  nearest_index(labels.shape[-1], out_w)[None, :]]


def export_map(path_base, loc_map: LocalizationMap) -> tuple[Path, Path]:
    """Write `<base>.pgm` (values x255) and `<base>.json` sidecar, each
    replaced atomically."""
    base = Path(path_base)
    pgm = base.with_suffix(".pgm")
    meta = base.with_suffix(".json")
    netpbm.write_pgm(pgm, np.rint(loc_map.values * 255.0).astype(np.uint8))
    write_text_atomic(meta, json.dumps({"class_index": loc_map.class_index,
                                        "layers_fused": list(loc_map.layers_fused),
                                        "refined": loc_map.refined}, sort_keys=True) + "\n")
    return pgm, meta

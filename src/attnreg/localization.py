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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import netpbm
from .errors import ContractError, DimensionError
from .gridtransform import GridShape


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


def _resolve_layers(layer_range: tuple[int, int] | None, num_layers: int) -> tuple[int, int]:
    if layer_range is None:
        layer_range = (max(0, num_layers - 2), num_layers)
    start, stop = layer_range
    if not 0 <= start < stop <= num_layers:
        raise ContractError(f"layer range {layer_range} invalid for {num_layers} layers")
    return start, stop


def _clamp_normalize(values: np.ndarray) -> np.ndarray:
    values = np.maximum(values, 0.0)
    peak = values.max()
    if peak > 0.0:
        values = values / peak
    return values


def grad_localization(adjoints: Sequence[np.ndarray], grid: GridShape, class_index: int,
                      layer_range: tuple[int, int] | None = None) -> LocalizationMap:
    """Fuse per-layer attention adjoints into one normalized class map.

    `adjoints` is the full per-layer list (as returned by
    `attention_adjoints`); `layer_range` selects [start, stop), defaulting
    to the last two layers."""
    if len(adjoints) == 0:
        raise ContractError("no adjoints given")
    start, stop = _resolve_layers(layer_range, len(adjoints))
    m = grid.n + 1
    rows = []
    for i in range(start, stop):
        adj = np.asarray(adjoints[i], dtype=np.float64)
        if adj.shape != (m, m):
            raise DimensionError(f"layer {i}: adjoint shape {adj.shape} does not "
                                 f"match grid {grid}")
        rows.append(adj[0, 1:])
    fused = np.mean(rows, axis=0).reshape(grid.h, grid.w)
    return LocalizationMap(class_index=class_index, values=_clamp_normalize(fused),
                           layers_fused=(start, stop), refined=False)


def affinity_refine(loc_map: LocalizationMap, attentions: Sequence[np.ndarray],
                    layer_range: tuple[int, int] | None = None) -> LocalizationMap:
    """Right-multiply the map by the layer-averaged patch-to-patch
    attention block, then clamp-normalize. Refining twice is rejected."""
    if loc_map.refined:
        raise ContractError("map is already affinity-refined")
    if len(attentions) == 0:
        raise ContractError("no attention matrices given")
    start, stop = _resolve_layers(layer_range if layer_range is not None
                                  else loc_map.layers_fused, len(attentions))
    h, w = loc_map.values.shape
    n = h * w
    blocks = []
    for i in range(start, stop):
        a = np.asarray(attentions[i], dtype=np.float64)
        if a.shape != (n + 1, n + 1):
            raise DimensionError(f"layer {i}: attention shape {a.shape} does not "
                                 f"match a {h}x{w} map")
        blocks.append(a[1:, 1:])
    affinity = np.mean(blocks, axis=0)
    spread = loc_map.values.reshape(1, n) @ affinity
    return LocalizationMap(class_index=loc_map.class_index,
                           values=_clamp_normalize(spread.reshape(h, w)),
                           layers_fused=(start, stop), refined=True)


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
    stack = np.stack([m.values for m in maps])          # (k, h, w)
    winner = np.argmax(stack, axis=0)                    # first max wins = lowest class
    labels = np.asarray(classes, dtype=np.int64)[winner] + 1
    background = np.all(stack < threshold, axis=0)
    labels[background] = 0
    return SeedMask(labels=labels, threshold=float(threshold))


def upsample_nearest(labels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor upsample of an integer label grid (half-pixel
    centers; exact block replication for integer factors)."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise DimensionError(f"expected (h, w) labels, got shape {labels.shape}")
    if out_h < 1 or out_w < 1:
        raise ContractError("output size must be positive")

    def indices(src: int, dst: int) -> np.ndarray:
        u = (np.arange(dst) + 0.5) * (src / dst) - 0.5
        return np.clip(np.rint(u).astype(np.int64), 0, src - 1)

    return labels[indices(labels.shape[0], out_h)[:, None],
                  indices(labels.shape[1], out_w)[None, :]]


def export_map(path_base, loc_map: LocalizationMap) -> tuple[Path, Path]:
    """Write `<base>.pgm` (values x255) and `<base>.json` sidecar."""
    base = Path(path_base)
    pgm = base.with_suffix(".pgm")
    meta = base.with_suffix(".json")
    netpbm.write_pgm(pgm, np.rint(loc_map.values * 255.0).astype(np.uint8))
    meta.write_text(json.dumps({"class_index": loc_map.class_index,
                                "layers_fused": list(loc_map.layers_fused),
                                "refined": loc_map.refined}, sort_keys=True) + "\n")
    return pgm, meta


def export_attention_csv(path, matrix: np.ndarray) -> None:
    """Attention matrix as plain CSV for inspection."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {matrix.shape}")
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")


@dataclass
class ImageLocalizationData:
    """Per-image inputs for seed evaluation: per-class adjoint stacks, the
    recorded attention matrices, and pixel ground truth (None if unknown)."""

    adjoints_by_class: dict[int, list[np.ndarray]]
    attentions: list[np.ndarray]
    gt_mask: np.ndarray | None


def build_maps(data: ImageLocalizationData, grid: GridShape,
               layer_range: tuple[int, int] | None, refine: bool) -> list[LocalizationMap]:
    maps = []
    for class_index, adjoints in sorted(data.adjoints_by_class.items()):
        loc = grad_localization(adjoints, grid, class_index, layer_range)
        if refine:
            loc = affinity_refine(loc, data.attentions, layer_range)
        maps.append(loc)
    return maps

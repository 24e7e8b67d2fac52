"""Deterministic synthetic multi-label shape dataset with pixel masks,
plus the two-view augmentation pipeline.

Each image holds 1-3 colored shapes (disk, square, triangle, ring,
cross — the first K are the classes) on a noise-textured background.
Placement retries guarantee every painted shape keeps at least 30% of
its footprint visible under later occlusion. Labels are recomputed from
the final mask, so label/mask consistency holds by construction.

Per-sample randomness derives from ``default_rng([master_seed, index])``
— no global state, samples independent of generation order.

``augment`` states no transform of its own. A flip or rotation is one
gather of the image's pixels by ``gridtransform.token_permutation`` of
the pixel grid (each pixel a token), the coordinate table that also
inverts attention; a resize is the separable bilinear product
Bh @ image @ Bw^T, whose per-axis matrices, kron'd and bordered with
the class token, are the matrix that resizes attention.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .atomicio import write_text_atomic
from .errors import ContractError, DimensionError
from .gridtransform import (GridShape, SpatialTransform, TransformKind, bilinear_matrix,
                            token_permutation)

CLASS_NAMES = ("disk", "square", "triangle", "ring", "cross")

# per-class RGB base color; grayscale uses evenly spread brightness bands
_RGB_BASE = (
    (0.85, 0.15, 0.15),  # disk: red
    (0.15, 0.80, 0.20),  # square: green
    (0.20, 0.25, 0.90),  # triangle: blue
    (0.85, 0.80, 0.15),  # ring: yellow
    (0.80, 0.15, 0.80),  # cross: magenta
)

_VISIBLE_FRACTION = 0.30
_MIN_FOOTPRINT_PIXELS = 12
_PLACEMENT_TRIES = 60


@dataclass(frozen=True)
class DatasetConfig:
    num_samples: int
    num_classes: int = 3
    height: int = 32
    width: int = 32
    channels: int = 3
    seed: int = 0
    min_shapes: int = 1
    max_shapes: int = 3

    def __post_init__(self):
        if self.num_samples < 0 or self.seed < 0:
            raise ContractError("num_samples and seed must be >= 0")
        if not 1 <= self.num_classes <= len(CLASS_NAMES):
            raise ContractError(f"num_classes must be in 1..{len(CLASS_NAMES)}")
        if self.height < 16 or self.width < 16:
            raise ContractError("images must be at least 16x16")
        if self.channels not in (1, 3):
            raise ContractError("channels must be 1 (grayscale) or 3 (RGB)")
        if not 1 <= self.min_shapes <= self.max_shapes:
            raise ContractError("need 1 <= min_shapes <= max_shapes")

    def to_dict(self) -> dict:
        return {**asdict(self), "class_names": list(CLASS_NAMES[:self.num_classes])}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetConfig":
        d = {k: v for k, v in d.items() if k != "class_names"}
        return cls(**d)


@dataclass
class SyntheticSample:
    image: np.ndarray   # (C, H, W) float64 in [0, 1]
    labels: np.ndarray  # (K,) multi-hot
    mask: np.ndarray    # (H, W) int64: 0 background, k = class k
    seed: tuple[int, int]  # (master seed, sample index)


# -- shape footprints ---------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _pixel_grid(h: int, w: int) -> np.ndarray:
    """(2, h, w) float row and column coordinates; cached read-only."""
    grid = np.mgrid[0:h, 0:w].astype(np.float64)
    grid.flags.writeable = False
    return grid


def _footprint(class_index: int, h: int, w: int, cy: float, cx: float,
               size: float) -> np.ndarray:
    yy, xx = _pixel_grid(h, w)
    dy, dx = yy - cy, xx - cx
    name = CLASS_NAMES[class_index - 1]
    if name == "disk":
        return dy * dy + dx * dx <= size * size
    if name == "square":
        return np.maximum(np.abs(dy), np.abs(dx)) <= size
    if name == "triangle":  # apex up, base at cy + size
        return (dy >= -size) & (dy <= size) & (np.abs(dx) <= (dy + size) / 2.0)
    if name == "ring":
        r2 = dy * dy + dx * dx
        return (r2 <= size * size) & (r2 >= (0.55 * size) ** 2)
    if name == "cross":
        bar = max(1.0, 0.35 * size)
        return ((np.abs(dy) <= bar) & (np.abs(dx) <= size)) | \
               ((np.abs(dx) <= bar) & (np.abs(dy) <= size))
    raise ContractError(f"no footprint for class {class_index}")


def _shape_color(class_index: int, channels: int, rng) -> np.ndarray:
    if channels == 3:
        base = np.array(_RGB_BASE[class_index - 1])
    else:
        k, total = class_index, len(CLASS_NAMES)
        base = np.array([0.08 + 0.84 * (k - 1) / (total - 1)])
    return base + rng.uniform(-0.08, 0.08, size=channels)


def generate_sample(config: DatasetConfig, index: int) -> SyntheticSample:
    """One sample, fully determined by (config.seed, index)."""
    rng = np.random.default_rng([config.seed, index])
    h, w, c = config.height, config.width, config.channels

    gray = rng.uniform(0.38, 0.52)
    image = np.empty((c, h, w))
    image[:] = gray + rng.uniform(-0.03, 0.03, size=c)[:, None, None]
    image += rng.uniform(-0.08, 0.08, size=(c, h, w))
    mask = np.zeros((h, w), dtype=np.int64)

    n_shapes = int(rng.integers(config.min_shapes, config.max_shapes + 1))
    # per placed shape: (still-visible pixels, original pixel count)
    placed: list[tuple[np.ndarray, int]] = []
    for _ in range(n_shapes):
        for _try in range(_PLACEMENT_TRIES):
            cls = int(rng.integers(1, config.num_classes + 1))
            size = rng.uniform(3.0, 0.22 * min(h, w))
            cy = rng.uniform(0.6 * size, h - 1 - 0.6 * size)
            cx = rng.uniform(0.6 * size, w - 1 - 0.6 * size)
            fp = _footprint(cls, h, w, cy, cx, size)
            count = int(fp.sum())
            if count < _MIN_FOOTPRINT_PIXELS:
                continue
            if any(int((visible & ~fp).sum()) < _VISIBLE_FRACTION * total
                   for visible, total in placed):
                continue
            color = _shape_color(cls, c, rng)
            texture = rng.uniform(-0.05, 0.05, size=(c, h, w))
            image[:, fp] = color[:, None] + texture[:, fp]
            mask[fp] = cls
            placed = [(visible & ~fp, total) for visible, total in placed]
            placed.append((fp, count))
            break

    np.clip(image, 0.0, 1.0, out=image)
    labels = np.array([1.0 if np.any(mask == k) else 0.0
                       for k in range(1, config.num_classes + 1)])
    return SyntheticSample(image=image, labels=labels, mask=mask,
                           seed=(config.seed, index))


def generate(config: DatasetConfig) -> list[SyntheticSample]:
    return [generate_sample(config, i) for i in range(config.num_samples)]


# -- the two-view augmentation pipeline ---------------------------------------

def augment(image: np.ndarray, transform: SpatialTransform,
            cell_pixels: int = 1) -> np.ndarray:
    """Apply a spatial transform to a (C, H, W) image. Flips/rotations are
    one pixel-exact gather; resize is half-pixel-center bilinear, one
    product Bh @ image @ Bw^T. The resize target is a grid of cells, each
    `cell_pixels` square (pass the model's patch size so grid-level
    transforms match pixel-level ones)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise DimensionError(f"expected (C, H, W), got shape {image.shape}")
    c, h, w = image.shape
    if transform.kind is TransformKind.RESIZE:
        target = transform.resize_target
        return (bilinear_matrix(h, target.h * cell_pixels) @ image
                @ bilinear_matrix(w, target.w * cell_pixels).T)
    grid = GridShape(h, w)
    out = transform.target_grid(grid)
    gathered = np.take(image.reshape(c, grid.n), token_permutation(transform, grid).sigma,
                       axis=1)
    return gathered.reshape(c, out.h, out.w)


# -- persistence ---------------------------------------------------------------

def _quantize(image: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)


def save_dataset(directory: os.PathLike | str, samples: list[SyntheticSample],
                 config: DatasetConfig) -> None:
    """Write images (P6/P5), masks (P5), a JSON-lines index and meta.json;
    the index and meta.json are replaced atomically."""
    root = Path(directory)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    lines = []
    for i, s in enumerate(samples):
        ext = "ppm" if config.channels == 3 else "pgm"
        img_rel = f"images/{i:05d}.{ext}"
        mask_rel = f"masks/{i:05d}.pgm"
        q = _quantize(s.image)
        if config.channels == 3:
            netpbm.write_ppm(root / img_rel, q)
        else:
            netpbm.write_pgm(root / img_rel, q[0])
        netpbm.write_pgm(root / mask_rel, s.mask.astype(np.uint8))
        lines.append(json.dumps({"index": i, "image": img_rel, "mask": mask_rel,
                                 "labels": [int(v) for v in s.labels],
                                 "seed": list(s.seed)}, sort_keys=True))
    write_text_atomic(root / "index.jsonl", "\n".join(lines) + ("\n" if lines else ""))
    write_text_atomic(root / "meta.json",
                      json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")


def load_dataset(directory: os.PathLike | str) -> tuple[list[SyntheticSample], DatasetConfig]:
    """Read a saved dataset; images come back uint8-quantized to [0, 1].
    A malformed meta.json or index line -- bad JSON, a missing key, labels
    not a 0/1 list of the dataset's num_classes, a mask whose shape is not
    its image's (H, W) or whose value exceeds num_classes -- raises
    ContractError."""
    root = Path(directory)
    meta = root / "meta.json"
    index = root / "index.jsonl"
    if not meta.is_file() or not index.is_file():
        raise ContractError(f"{root} is not a dataset directory "
                            "(missing meta.json or index.jsonl)")
    try:
        config = DatasetConfig.from_dict(json.loads(meta.read_text()))
    except (ValueError, TypeError, AttributeError) as exc:
        raise ContractError(f"{meta}: malformed dataset metadata: {exc}") from exc
    try:
        lines = index.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ContractError(f"{index}: not a UTF-8 index: {exc}") from exc
    samples = []
    for lineno, line in enumerate(lines, 1):
        where = f"{index} line {lineno}"
        try:
            rec = json.loads(line)
            image_path, mask_path = root / rec["image"], root / rec["mask"]
            labels = np.asarray(rec["labels"], dtype=np.float64)
            seed = tuple(int(v) for v in rec["seed"])
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise ContractError(f"{where}: malformed index record: {exc!r}") from exc
        if labels.shape != (config.num_classes,) or not np.all((labels == 0) | (labels == 1)):
            raise ContractError(f"{where}: labels must be {config.num_classes} values "
                                f"in {{0, 1}}, got {rec['labels']!r}")
        try:
            raw, mask = netpbm.read_netpbm(image_path), netpbm.read_netpbm(mask_path)
        except IsADirectoryError as exc:
            raise ContractError(f"{where}: {exc.filename} is a directory, not an image") from exc
        except FileNotFoundError as exc:
            raise ContractError(f"{where}: no image at {exc.filename}") from exc
        if raw.ndim == 2:
            raw = raw[None, :, :]
        image = raw.astype(np.float64) / 255.0
        mask = mask.astype(np.int64)
        if mask.shape != image.shape[1:]:
            raise ContractError(f"{where}: mask {rec['mask']!r} has shape {mask.shape}, "
                                f"not its image's (H, W) {image.shape[1:]}")
        if mask.max(initial=0) > config.num_classes:
            raise ContractError(f"{where}: mask {rec['mask']!r} holds class value "
                                f"{mask.max()}, above num_classes {config.num_classes}")
        samples.append(SyntheticSample(image=image, labels=labels, mask=mask, seed=seed))
    return samples, config

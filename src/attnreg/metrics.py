"""Segmentation metrics over integer label masks.

Counts are pooled over the whole dataset before any ratio is taken
(VOC convention), so results are independent of image order and of how
images are grouped into ``add`` calls. Class 0 is background. Every
score is read from a confusion matrix (``matrix[truth, pred]`` pixel
counts) by :func:`scores`.

Rate definitions (documented because the choice is a convention):
  fp_rate = pixels predicted foreground where truth is background / all pixels
  fn_rate = pixels predicted background where truth is foreground / all pixels

The threshold sweep is one pass over the pixels. A seed pixel is
background at threshold t when all class maps, i.e. their max, lie below
t; otherwise it takes the argmax class, which does not depend on t. So
each pixel is binned once by (number of thresholds <= its max, truth,
argmax label); cumulative sums over the bins give every threshold's
confusion matrix. The sweep has two halves: :func:`add_seeds` bins
images into a leveled :class:`ConfusionAccumulator` as they come, one
integer code per patch cell, upsampled once, and :func:`best_threshold`
picks the threshold from it once all are in, scoring every threshold
from one (thresholds, K, K) table and running :func:`scores` only at
the winner.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError
from .localization import seed_from_maps, upsample_nearest

# the background thresholds of every sweep, ascending: 0.05 .. 0.95, step 0.05
THRESHOLDS = np.round(np.arange(0.05, 1.0, 0.05), 2)
THRESHOLDS.flags.writeable = False


def scores(matrix: np.ndarray) -> dict:
    """Per-class IoU (None for classes absent from both pred and truth),
    their mean, the FP/FN rates and the pixel total of a confusion matrix."""
    inter = np.diagonal(matrix)
    union = matrix.sum(axis=0) + matrix.sum(axis=1) - inter
    per_class = [i / u if u > 0 else None for i, u in zip(inter, union)]
    present = [v for v in per_class if v is not None]
    total = int(matrix.sum())
    return {"per_class_iou": per_class,
            "miou": float(np.mean(present)) if present else None,
            "fp_rate": int(matrix[0, 1:].sum()) / total if total else None,
            "fn_rate": int(matrix[1:, 0].sum()) / total if total else None,
            "total_pixels": total}


class ConfusionAccumulator:
    """Pooled confusion counts, ``counts[level, truth, pred]``. One level
    (the default) is a plain K x K confusion matrix; the threshold sweep
    bins pixels into one level per threshold interval."""

    def __init__(self, num_classes: int, levels: int = 1):
        if num_classes < 1:
            raise ContractError("num_classes (including background) must be >= 1")
        self.num_classes = num_classes
        self.counts = np.zeros((levels, num_classes, num_classes), dtype=np.int64)

    def add(self, pred: np.ndarray, gt: np.ndarray, level=0, upsample: bool = False) -> None:
        """Count pixel pairs; ``level`` is an int or an int array shaped
        like ``pred``. With ``upsample``, ``pred`` and ``level`` are
        (..., h, w) patch-cell arrays, upsampled nearest-neighbor to gt's
        (..., H, W). Each cell's (level, pred) is coded as one integer, so
        one upsample and one bincount count the pixels."""
        pred, gt, level = (np.asarray(a, dtype=np.int64) for a in (pred, gt, level))
        k = self.num_classes
        for name, labels, top in (("pred", pred, k), ("gt", gt, k),
                                  ("level", level, len(self.counts))):
            if labels.size and (labels.min() < 0 or labels.max() >= top):
                raise ContractError(f"{name} labels outside 0..{top - 1}")
        code = level * (k * k) + pred
        if upsample:
            code = upsample_nearest(code, *gt.shape[-2:])
        if code.shape != gt.shape:
            raise DimensionError(f"pred shape {code.shape} != gt shape {gt.shape}")
        code += gt * k
        self.counts += np.bincount(code.ravel(), minlength=self.counts.size
                                   ).reshape(self.counts.shape)

    @property
    def matrix(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def per_class_iou(self) -> list[float | None]:
        """IoU per class; None for classes absent from both pred and gt."""
        return self.summary()["per_class_iou"]

    def miou(self) -> float | None:
        return self.summary()["miou"]

    def fp_rate(self) -> float | None:
        return self.summary()["fp_rate"]

    def fn_rate(self) -> float | None:
        return self.summary()["fn_rate"]

    def summary(self) -> dict:
        return scores(self.matrix)


def add_seeds(hist: ConfusionAccumulator, gt: np.ndarray,
              labels: np.ndarray | None = None, peak: np.ndarray | None = None) -> None:
    """Bin one image, or a stack of them, into the leveled histogram of
    THRESHOLDS (``len(THRESHOLDS) + 1`` levels): each pixel by
    (number of thresholds <= its peak, truth, argmax label). ``labels``
    and ``peak`` are (..., h, w) and are upsampled nearest-neighbor to
    gt's (..., H, W); without them every pixel is background."""
    if labels is None:
        hist.add(np.zeros_like(gt), gt)
        return
    hist.add(labels, gt, np.searchsorted(THRESHOLDS, peak, side="right"), upsample=True)


def best_threshold(hist: ConfusionAccumulator) -> dict:
    """The threshold of THRESHOLDS with the best mIoU (ties go to the
    smaller threshold) and its miou, fp_rate, fn_rate and per_class_iou,
    read from a histogram filled by add_seeds. No pixels -> all None.

    Every threshold's confusion matrix comes from one cumulative sum, as
    a (T, K, K) table, and so does its per-class IoU; its mIoU is the
    np.mean over its present classes that :func:`scores` takes, so the
    values are scores()'s bit for bit. scores() runs once, at the winner."""
    below = np.cumsum(hist.counts, axis=0)   # [i]: background at THRESHOLDS[i]
    matrices = below[-1] - below[:-1]
    matrices[:, :, 0] += below[:-1].sum(axis=2)
    inter = np.diagonal(matrices, axis1=1, axis2=2)
    union = matrices.sum(axis=1) + matrices.sum(axis=2) - inter
    present = union > 0
    iou = inter / np.where(present, union, 1)
    best_i, best = None, None
    for i in np.flatnonzero(present.any(axis=1)).tolist():
        score = float(np.mean(iou[i][present[i]]))
        if best is None or score > best:
            best_i, best = i, score
    at_best = scores(matrices[best_i]) if best_i is not None else {}
    return {"threshold": None if best_i is None else float(THRESHOLDS[best_i]), "miou": best,
            **{key: at_best.get(key) for key in ("fp_rate", "fn_rate", "per_class_iou")}}


def best_threshold_miou(maps_per_image, gt_masks, num_classes: int) -> dict:
    """Sweep the background threshold over THRESHOLDS; return the best
    threshold and its miou, fp_rate, fn_rate and per_class_iou. Ties go
    to the smaller threshold. Seeds are upsampled nearest-neighbor to
    each ground-truth mask's size; an image without maps is all
    background. Empty input -> all values None."""
    if len(maps_per_image) != len(gt_masks):
        raise DimensionError(f"{len(maps_per_image)} map sets vs {len(gt_masks)} truths")
    hist = ConfusionAccumulator(num_classes, levels=len(THRESHOLDS) + 1)
    for maps, gt in zip(maps_per_image, gt_masks):
        if not maps:
            add_seeds(hist, gt)
            continue
        # no map value lies below -inf, so this seed is the argmax label
        labels = seed_from_maps(maps, -np.inf).labels
        add_seeds(hist, gt, labels, np.max([m.values for m in maps], axis=0))
    return best_threshold(hist)

"""Consistency losses between the attention maps of two augmented views.

Given per-layer attention matrices A (plain view) and A' (transformed
view), the method takes two steps:

  1. invert: `invert_layers` maps each layer's A' back into the plain
     view's token order (`invert_attention`, once per layer);
  2. compare: the region losses take A and that InvertedLayers and
     compare them block-wise --
       * activation loss  -- class-to-patch rows  A[0, 1:]
       * affinity loss    -- patch-to-patch block A[1:, 1:]

Distances reduce by mean over block elements so the weights are
resolution-independent, and layers are averaged. Everything is built
from tape ops, so gradients reach both branches' parameters, including
through the inversion's re-indexing.

Every loss also takes a stack of k samples: (k, n+1, n+1) attention per
layer and (k, classes) logits and targets; invert_layers then takes a
transform per sample. A stack's loss is the mean of the k per-sample
losses (every sample has the same block size and class count), so k
times it is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DISTANCES, Tensor
from .errors import ContractError, DimensionError
from .gridtransform import GridShape, SpatialTransform, invert_attention


@dataclass(frozen=True)
class LossWeights:
    """Weights of the two consistency terms and the distance they use.

    ``total = l_cls + alpha * l_act + beta * l_aff``.
    """

    alpha: float = 100.0
    beta: float = 100.0
    distance: str = "l1"

    def __post_init__(self):
        if not all(0 <= w < math.inf for w in (self.alpha, self.beta)):
            raise ContractError(f"loss weights must be finite and >= 0, got alpha={self.alpha}, "
                                f"beta={self.beta}")
        if self.distance not in DISTANCES:
            raise ContractError(f"distance must be one of {DISTANCES}, got {self.distance!r}")


@dataclass
class LossBreakdown:
    """Scalar tape tensors; backward on .total trains the model."""

    l_cls: Tensor
    l_act: Tensor
    l_aff: Tensor
    total: Tensor

    def to_floats(self) -> dict[str, float]:
        return {"l_cls": float(self.l_cls.data), "l_act": float(self.l_act.data),
                "l_aff": float(self.l_aff.data), "total": float(self.total.data)}


@dataclass(frozen=True)
class InvertedLayers:
    """Augmented-view attention matrices A' mapped back into the plain
    view's token order, as invert_layers returns them. The region losses
    take nothing else: for a flip, a raw A' has the shape of its
    inversion, so a forgotten inversion would pass every shape check."""

    layers: tuple[Tensor, ...]


def invert_layers(a_prime_layers: Sequence[Tensor],
                  transform: SpatialTransform | Sequence[SpatialTransform],
                  grid: GridShape) -> InvertedLayers:
    """Invert every layer's A' once: a matrix, or a (k, n'+1, n'+1) stack
    with one transform per sample, back onto `grid`. One op per layer for
    a permutation stack."""
    return InvertedLayers(tuple(invert_attention(ap, transform, grid) for ap in a_prime_layers))


def _check_layers(a_layers: Sequence[Tensor], back_layers: Sequence[Tensor]) -> int:
    if len(a_layers) == 0 or len(a_layers) != len(back_layers):
        raise DimensionError(f"need equal nonzero layer counts, got {len(a_layers)} "
                             f"and {len(back_layers)}")
    for i, (a, back) in enumerate(zip(a_layers, back_layers)):
        if a.ndim < 2 or a.shape[-1] != a.shape[-2] or back.shape != a.shape:
            raise DimensionError(f"layer {i}: expected square attention of one shape in "
                                 f"both views, got {a.shape} and {back.shape}")
    return len(a_layers)


def _block_loss(a_layers: Sequence[Tensor], back: InvertedLayers, distance: str,
                key: tuple) -> Tensor:
    """Mean distance between the block `key` of A and the same block of
    inv(A'), averaged over layers."""
    if not isinstance(back, InvertedLayers):
        raise ContractError("invert A′ with invert_layers first")
    layers = _check_layers(a_layers, back.layers)
    total = None
    for a, b in zip(a_layers, back.layers):
        term = ad.mean_distance(ad.index(a, key), ad.index(b, key), distance)
        total = term if total is None else ad.add(total, term)
    return total if layers == 1 else ad.mul(total, 1.0 / layers)


def region_activation_loss(a_layers: Sequence[Tensor], back: InvertedLayers,
                           distance: str = "l1") -> Tensor:
    """Consistency of the class token's attention over patches: compares
    A[0, 1:] against inv(A')[0, 1:] per layer. For stacks the loss is the
    mean over samples."""
    return _block_loss(a_layers, back, distance, np.s_[..., 0:1, 1:])


def region_affinity_loss(a_layers: Sequence[Tensor], back: InvertedLayers,
                         distance: str = "l1") -> Tensor:
    """Consistency of patch-to-patch affinities: compares A[1:, 1:]
    against inv(A')[1:, 1:] per layer. For stacks the loss is the mean
    over samples."""
    return _block_loss(a_layers, back, distance, np.s_[..., 1:, 1:])


def classification_loss(logits: Tensor, logits_prime: Tensor, targets) -> Tensor:
    """Mean of BCE-with-logits over the two views (multi-hot targets), and
    over the samples of a stack."""
    t = targets if isinstance(targets, Tensor) else Tensor(np.asarray(targets, dtype=np.float64))
    if t.shape != logits.shape:
        raise DimensionError(f"targets shape {t.shape} != logits shape {logits.shape}")
    both = ad.add(ad.bce_with_logits(logits, t), ad.bce_with_logits(logits_prime, t))
    return ad.mul(both, 0.5)


def total_loss(logits: Tensor, logits_prime: Tensor, targets,
               act: Tensor, aff: Tensor, weights: LossWeights) -> LossBreakdown:
    """Weighted objective: classification + alpha * activation
    consistency + beta * affinity consistency."""
    l_cls = classification_loss(logits, logits_prime, targets)
    total = l_cls
    if weights.alpha != 0.0:
        total = ad.add(total, ad.mul(act, weights.alpha))
    if weights.beta != 0.0:
        total = ad.add(total, ad.mul(aff, weights.beta))
    return LossBreakdown(l_cls=l_cls, l_act=act, l_aff=aff, total=total)

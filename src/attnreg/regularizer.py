"""Consistency losses between the attention maps of two augmented views.

Given per-layer attention matrices A (plain view) and A' (transformed
view), the method maps A' back into the plain view's token order and
compares the two block-wise:
  * activation loss  -- class-to-patch rows  A[0, 1:]
  * affinity loss    -- patch-to-patch block A[1:, 1:]

Distances reduce by mean over block elements so the weights are
resolution-independent, and layers are averaged. One tape node,
autodiff.view_consistency, computes both terms of every layer, so
gradients reach both branches' parameters, including through the
inversion's re-indexing:

* training calls it through `consistency_terms`, the one place that
  turns a chunk's transforms into an inversion: permutations, one per
  sample, are inverted by the node's own gather; a resize, which must be
  every sample's, by one resample node per layer before it;
* the public two-step form -- `invert_layers`, then
  `region_activation_loss` or `region_affinity_loss` -- is the same
  node on layers inverted by one transform, with no gather, plus one
  index of its result.

Every loss also takes a stack of k samples: (k, n+1, n+1) attention per
layer and (k, classes) logits and targets. A stack's loss is the mean of
the k per-sample losses (every sample has the same block size and class
count), so k times it is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DISTANCES, Tensor
from .errors import ContractError, DimensionError
from .gridtransform import (GridShape, SpatialTransform, TransformKind, invert_attention,
                            inverse_token_indices)


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
    """Scalar tape tensors; backward on .total trains the model.
    ``residuals``, when the loss computed them, is the (2, L) array of
    each loss layer's activation and affinity distance (see
    consistency_terms), whatever the weights."""

    l_cls: Tensor
    l_act: Tensor
    l_aff: Tensor
    total: Tensor
    residuals: np.ndarray | None = None

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


def invert_layers(a_prime_layers: Sequence[Tensor], transform: SpatialTransform,
                  grid: GridShape) -> InvertedLayers:
    """Invert every layer's A' once, back onto `grid`: a matrix, or a
    (k, n'+1, n'+1) stack of views that `transform` made alike. One op
    per layer."""
    return InvertedLayers(tuple(invert_attention(ap, transform, grid) for ap in a_prime_layers))


def consistency_terms(a_layers: Sequence[Tensor], ap_layers: Sequence[Tensor] | None,
                      transforms: Sequence[SpatialTransform], grid: GridShape,
                      distance: str) -> ad.Consistency:
    """Both consistency terms of k samples, over the loss layers, as one
    autodiff.view_consistency node. Per loss layer, `a_layers` holds the
    plain views' (k, n+1, n+1) stack and `ap_layers` the augmented
    views'; with `ap_layers` None, `a_layers` holds (2k, n+1, n+1)
    stacks of both views, plain first. `transforms` holds each sample's
    transform: the node's gather inverts permutations, one per sample. A
    resize has a grid of its own, even when it is `grid`: it must be
    every sample's transform, its stacks are passed apart, and one
    invert_attention (a resample node) per layer inverts it first."""
    transforms = tuple(transforms)
    if any(t.kind is TransformKind.RESIZE for t in transforms):
        if ap_layers is None or len(set(transforms)) > 1:
            raise ContractError("a resize must be every sample's transform, its views' "
                                "stacks passed apart")
        back = [invert_attention(ap, transforms[0], grid) for ap in ap_layers]
        return ad.view_consistency(a_layers, back, distance)
    return ad.view_consistency(a_layers, ap_layers, distance,
                               inverse_token_indices(transforms, grid))


def _block_loss(a_layers: Sequence[Tensor], back: InvertedLayers, distance: str,
                term: int) -> Tensor:
    """Term `term` (0 activation, 1 affinity) of view_consistency between
    A and inv(A')."""
    if not isinstance(back, InvertedLayers):
        raise ContractError("invert A′ with invert_layers first")
    return ad.index(ad.view_consistency(a_layers, back.layers, distance).loss, term)


def region_activation_loss(a_layers: Sequence[Tensor], back: InvertedLayers,
                           distance: str = "l1") -> Tensor:
    """Consistency of the class token's attention over patches: compares
    A[0, 1:] against inv(A')[0, 1:] per layer. For stacks the loss is the
    mean over samples."""
    return _block_loss(a_layers, back, distance, 0)


def region_affinity_loss(a_layers: Sequence[Tensor], back: InvertedLayers,
                         distance: str = "l1") -> Tensor:
    """Consistency of patch-to-patch affinities: compares A[1:, 1:]
    against inv(A')[1:, 1:] per layer. For stacks the loss is the mean
    over samples."""
    return _block_loss(a_layers, back, distance, 1)


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

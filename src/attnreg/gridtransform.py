"""Spatial transforms of a patch grid and their action on attention matrices.

A mini ViT flattens an h x w patch grid into n = h*w tokens in row-major
order, plus a class token at index 0. A flip or right-angle rotation of
the image permutes the patches, so it conjugates the (n+1) x (n+1)
attention matrix by a token permutation. This module knows that
permutation in two independent ways:

* the fast path: build the permutation directly from the pixel
  coordinate maps and re-index rows/columns (a differentiable gather);
* the oracle: materialize the same conjugation from dense Kronecker
  products of flip matrices and a commutation matrix, in the
  column-major vec convention, and convert token order on both sides.

The two must agree to float precision; the test-suite and the
``check-inversion`` CLI command hold them against each other.

The coordinate table ``_COORD_MAPS`` is the only statement of a flip or
rotation. Pixels follow from it too: ``synthdata.augment`` treats an
image's pixel grid as tokens and gathers its pixels with that grid's
token permutation. A resize is no permutation: on an attention matrix it
is P A P^T, with the bordered bilinear matrix P = blockdiag(1, W) of
``bordered_interp_matrix`` (W interpolates patch tokens, the 1 keeps the
class token), its rows rescaled to P times A's row sums: one
``autodiff.resample`` node. A resized view's positional rows are P
times the configured ones.

Conventions: grid coordinates are (row i, column j) with i in [0, h) and
j in [0, w); Rot90 is counter-clockwise, (i, j) -> (w-1-j, i), so
Rot180 == FlipHV and Rot270 == Rot90 applied three times. vec() stacks
columns (column-major), and row-major flattening of X equals
vec(X^T), which is why the order-conversion permutation below is itself
a commutation matrix.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, ResourceError


@dataclass(frozen=True, order=True)
class GridShape:
    """Patch-grid extent: h rows by w columns."""

    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ContractError(f"grid dimensions must be positive, got {self.h}x{self.w}")

    @property
    def n(self) -> int:
        return self.h * self.w

    @classmethod
    def parse(cls, text: str) -> "GridShape":
        try:
            h, w = text.lower().split("x")
            return cls(int(h), int(w))
        except (ValueError, TypeError):
            raise ContractError(f"cannot parse grid shape {text!r}; expected e.g. '8x8'") from None

    def __str__(self) -> str:
        return f"{self.h}x{self.w}"


# The most patch tokens of a grid that the package runs or inverts. A
# forward holds (heads, n+1, n+1) attention per view and the Kronecker
# oracle (n, n) factors; at 10,000 tokens one view's attention alone is
# 1.6 GB.
TOKEN_CAP = 1024


def check_token_cap(grid: GridShape, what: str) -> None:
    """Refuse a grid of more than TOKEN_CAP patch tokens with
    ResourceError, before anything of its size is allocated."""
    if grid.n > TOKEN_CAP:
        raise ResourceError(f"{what}: grid {grid} has {grid.n} tokens, over the cap of "
                            f"{TOKEN_CAP}")


class TransformKind(enum.Enum):
    IDENTITY = "identity"
    FLIP_H = "fliph"
    FLIP_V = "flipv"
    FLIP_HV = "fliphv"
    ROT90 = "rot90"
    ROT180 = "rot180"
    ROT270 = "rot270"
    RESIZE = "resize"


_ROTATING = (TransformKind.ROT90, TransformKind.ROT270)


@dataclass(frozen=True)
class SpatialTransform:
    """A grid-level spatial transform; RESIZE carries its target grid."""

    kind: TransformKind
    resize_target: GridShape | None = None

    def __post_init__(self):
        if self.kind is TransformKind.RESIZE:
            if self.resize_target is None:
                raise ContractError("resize transform needs a resize_target grid")
        elif self.resize_target is not None:
            raise ContractError(f"{self.kind.value} does not take a resize_target")

    def target_grid(self, grid: GridShape) -> GridShape:
        """Grid shape of the transformed view."""
        if self.kind is TransformKind.RESIZE:
            return self.resize_target
        if self.kind in _ROTATING:
            return GridShape(grid.w, grid.h)
        return grid

    def inverse(self) -> "SpatialTransform":
        """The transform that undoes this one. Flips and 180-degree
        rotation are involutions; rot90/rot270 swap. A resize has no
        exact inverse (interpolation loses information), so it is
        rejected rather than silently approximated."""
        if self.kind is TransformKind.RESIZE:
            raise ContractError("resize has no exact inverse transform")
        if self.kind is TransformKind.ROT90:
            return ROT270
        if self.kind is TransformKind.ROT270:
            return ROT90
        return self

    @classmethod
    def parse(cls, text: str) -> "SpatialTransform":
        text = text.strip().lower()
        if text.startswith("resize:"):
            return cls(TransformKind.RESIZE, GridShape.parse(text.split(":", 1)[1]))
        for kind in TransformKind:
            if kind.value == text and kind is not TransformKind.RESIZE:
                return cls(kind)
        raise ContractError(f"unknown transform {text!r}")

    def __str__(self) -> str:
        if self.kind is TransformKind.RESIZE:
            return f"resize:{self.resize_target}"
        return self.kind.value


IDENTITY = SpatialTransform(TransformKind.IDENTITY)
FLIP_H = SpatialTransform(TransformKind.FLIP_H)
FLIP_V = SpatialTransform(TransformKind.FLIP_V)
FLIP_HV = SpatialTransform(TransformKind.FLIP_HV)
ROT90 = SpatialTransform(TransformKind.ROT90)
ROT180 = SpatialTransform(TransformKind.ROT180)
ROT270 = SpatialTransform(TransformKind.ROT270)

# source coordinate (i, j) on an (h, w) grid -> target coordinate
_COORD_MAPS = {
    TransformKind.IDENTITY: lambda i, j, h, w: (i, j),
    TransformKind.FLIP_H: lambda i, j, h, w: (i, w - 1 - j),
    TransformKind.FLIP_V: lambda i, j, h, w: (h - 1 - i, j),
    TransformKind.FLIP_HV: lambda i, j, h, w: (h - 1 - i, w - 1 - j),
    TransformKind.ROT180: lambda i, j, h, w: (h - 1 - i, w - 1 - j),
    TransformKind.ROT90: lambda i, j, h, w: (w - 1 - j, i),
    TransformKind.ROT270: lambda i, j, h, w: (j, h - 1 - i),
}


@dataclass(frozen=True)
class TokenPermutation:
    """sigma[target_token] = source_token, row-major token order.

    Gather semantics: a field F on the source grid transforms to
    F'[t] = F[sigma[t]] on the target grid.
    """

    sigma: np.ndarray
    source: GridShape
    target: GridShape

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=np.intp)
        object.__setattr__(self, "sigma", sig)
        n = self.source.n
        if self.target.n != n or sig.shape != (n,):
            raise DimensionError("permutation length must match both grids")
        if not np.array_equal(np.sort(sig), np.arange(n)):
            raise ContractError("sigma is not a permutation of token indices")

    def inverse(self) -> "TokenPermutation":
        inv = np.empty_like(self.sigma)
        inv[self.sigma] = np.arange(self.sigma.size)
        return TokenPermutation(inv, self.target, self.source)

    def compose(self, then: "TokenPermutation") -> "TokenPermutation":
        """Permutation of `self` followed by `then`."""
        if self.target != then.source:
            raise DimensionError(f"cannot compose: {self.target} feeds into {then.source}")
        return TokenPermutation(self.sigma[then.sigma], self.source, then.target)

    def is_identity(self) -> bool:
        return self.source == self.target and np.array_equal(self.sigma, np.arange(self.sigma.size))


@functools.lru_cache(maxsize=256)
def token_permutation(transform: SpatialTransform, grid: GridShape) -> TokenPermutation:
    """Patch-level permutation realizing `transform` on `grid`. Built, with
    its validation, once per (transform, grid): every caller shares the
    instance, and its sigma is read-only."""
    if transform.kind is TransformKind.RESIZE:
        raise ContractError("resize is not a token permutation; use resize_attention")
    h, w = grid.h, grid.w
    coord = _COORD_MAPS[transform.kind]
    target = transform.target_grid(grid)
    ii, jj = np.indices((h, w), dtype=np.intp)
    ti, tj = coord(ii, jj, h, w)
    sigma = np.empty(grid.n, dtype=np.intp)
    sigma[(ti * target.w + tj).ravel()] = (ii * w + jj).ravel()
    sigma.flags.writeable = False
    return TokenPermutation(sigma, grid, target)


def invert_attention_fast(a_prime, transform: SpatialTransform, grid: GridShape) -> Tensor:
    """Map an augmented view's attention matrix back into the source view's
    token order by pure re-indexing (differentiable; class row/column are
    re-indexed along their patch axis only, the (0,0) entry is untouched).

    `a_prime` is the (n+1) x (n+1) attention of the transformed view, or a
    (..., n+1, n+1) stack of views that `transform` made alike, and `grid`
    the source grid; the inversion is one gather. To invert each entry of
    a stack by a transform of its own, gather by inverse_token_indices."""
    if not isinstance(transform, SpatialTransform):
        raise ContractError(f"invert one SpatialTransform per call, got a "
                            f"{type(transform).__name__}")
    a_prime = a_prime if isinstance(a_prime, Tensor) else Tensor(a_prime)
    n = grid.n
    if a_prime.ndim < 2 or a_prime.shape[-2:] != (n + 1, n + 1):
        raise DimensionError(f"attention must be {(n + 1, n + 1)} for grid {grid}, "
                             f"got {a_prime.shape}")
    idx = np.broadcast_to(_inverse_token_index(transform, grid), a_prime.shape[:-1])
    return ad.permute_rc(a_prime, idx)


def inverse_token_indices(transforms, grid: GridShape) -> np.ndarray:
    """(k, n+1): row e the row and column gather index that inverts
    transforms[e] on `grid` (see _inverse_token_index), as
    autodiff.view_consistency gathers a stack of augmented views, each
    by its own sample's transform."""
    return np.stack([_inverse_token_index(t, grid) for t in transforms])


@functools.lru_cache(maxsize=256)
def _inverse_token_index(transform: SpatialTransform, grid: GridShape) -> np.ndarray:
    """Row and column gather index of invert_attention_fast: the class
    token stays at 0 and source token s reads target token inv[s] + 1.
    Built, with the permutation's validation, once per (transform, grid);
    the cached array is read-only."""
    inv = token_permutation(transform, grid).inverse().sigma  # inv[source_token] = target_token
    idx = np.concatenate(([0], inv + 1))
    idx.flags.writeable = False
    return idx


# ---------------------------------------------------------------------------
# dense oracle

def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).ravel(order="F")


def commutation_matrix(rows: int, cols: int) -> np.ndarray:
    """K with K @ vec(H) = vec(H^T) for H of shape (rows, cols).

    K is a permutation matrix, orthogonal, and K(rows, cols).T equals
    K(cols, rows); for the square case K is an involution."""
    if rows < 1 or cols < 1:
        raise ContractError("commutation matrix needs positive dimensions")
    n = rows * cols
    # vec(H)[i + j*rows] = H[i, j]; vec(H^T)[j + i*cols] = H[i, j]
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    k = np.zeros((n, n))
    k[jj + ii * cols, ii + jj * rows] = 1.0
    return k


def _exchange(k: int) -> np.ndarray:
    j = np.zeros((k, k))
    j[np.arange(k), k - 1 - np.arange(k)] = 1.0
    return j


def _oracle_factors(transform: SpatialTransform, grid: GridShape):
    """(P_h, P_w, C) with the forward action on the column-major-vec'd
    patch field q: vec(q') = (P_w^T kron P_h) C vec(q).

    Flip family: q' = P_h q P_w with P_h (h x h), P_w (w x w), C = I.
    Rotations: q' = P_h q^T P_w with P_h (w x w), P_w (h x h), and C the
    commutation matrix of the source grid (vec of the transpose)."""
    h, w = grid.h, grid.w
    kind = transform.kind
    eye_h, eye_w = np.eye(h), np.eye(w)
    ex_h, ex_w = _exchange(h), _exchange(w)
    if kind is TransformKind.IDENTITY:
        return eye_h, eye_w, np.eye(grid.n)
    if kind is TransformKind.FLIP_H:
        return eye_h, ex_w, np.eye(grid.n)
    if kind is TransformKind.FLIP_V:
        return ex_h, eye_w, np.eye(grid.n)
    if kind in (TransformKind.FLIP_HV, TransformKind.ROT180):
        return ex_h, ex_w, np.eye(grid.n)
    comm = commutation_matrix(h, w)
    if kind is TransformKind.ROT90:
        return ex_w, eye_h, comm  # flipud of the transpose
    if kind is TransformKind.ROT270:
        return eye_w, ex_h, comm  # fliplr of the transpose
    raise ContractError(f"{kind.value} has no permutation oracle")


def invert_attention_kronecker(a_prime_patch, transform: SpatialTransform,
                               grid: GridShape) -> np.ndarray:
    """Brute-force inversion of the patch-to-patch attention block via
    dense Kronecker algebra: conjugate by C^T (P_w kron P_h^T) in the
    column-major vec convention, converting row-major token order in and
    out with the grid's commutation matrix. Intended as an oracle for
    invert_attention_fast; refuses grids beyond TOKEN_CAP tokens, since
    its dense factors are (n, n)."""
    if transform.kind is TransformKind.RESIZE:
        raise ContractError("resize inversions go through resize_attention")
    check_token_cap(grid, "invert_attention_kronecker")
    n = grid.n
    a = np.asarray(a_prime_patch.data if isinstance(a_prime_patch, Tensor) else a_prime_patch,
                   dtype=np.float64)
    if a.shape != (n, n):
        raise DimensionError(f"patch block must be {(n, n)} for grid {grid}, got {a.shape}")
    p_h, p_w, comm = _oracle_factors(transform, grid)
    target = transform.target_grid(grid)
    m = np.kron(p_w, p_h.T)
    to_rm_src = commutation_matrix(grid.h, grid.w)      # column-major -> row-major, source grid
    to_rm_tgt = commutation_matrix(target.h, target.w)  # same, target grid
    a_cm = to_rm_tgt.T @ a @ to_rm_tgt
    inverted = comm.T @ m @ a_cm @ m.T @ comm
    return to_rm_src @ inverted @ to_rm_src.T


# ---------------------------------------------------------------------------
# bilinear resize


@functools.lru_cache(maxsize=64)
def bilinear_matrix(src: int, dst: int) -> np.ndarray:
    """(dst, src) interpolation weights, half-pixel-center convention with
    border clamp. Rows sum to 1; src == dst yields the identity exactly.
    Built once per (src, dst); the cached array is read-only."""
    if src < 1 or dst < 1:
        raise ContractError("bilinear_matrix needs positive sizes")
    out = np.zeros((dst, src))
    scale = src / dst
    for o in range(dst):
        u = (o + 0.5) * scale - 0.5
        i0 = int(np.floor(u))
        t = u - i0
        lo = min(max(i0, 0), src - 1)
        hi = min(max(i0 + 1, 0), src - 1)
        out[o, lo] += 1.0 - t
        out[o, hi] += t
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def bordered_interp_matrix(source: GridShape, target: GridShape) -> np.ndarray:
    """(target.n+1, source.n+1) bordered bilinear matrix P = blockdiag(1, W):
    W is the kron of the per-axis matrices over row-major token fields,
    and the 1 carries the class token through. Built once per (source,
    target); the cached array is read-only."""
    weights = np.zeros((target.n + 1, source.n + 1))
    weights[0, 0] = 1.0
    weights[1:, 1:] = np.kron(bilinear_matrix(source.h, target.h),
                              bilinear_matrix(source.w, target.w))
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=64)
def nearest_index(src: int, dst: int) -> np.ndarray:
    """(dst,) source index of each output cell of a nearest-neighbour
    resize from src to dst cells (half-pixel centers; exact block
    replication for integer factors). Built once per (src, dst); the
    cached array is read-only."""
    u = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    index = np.clip(np.rint(u).astype(np.int64), 0, src - 1)
    index.flags.writeable = False
    return index


def resize_attention(a_prime, source: GridShape, target: GridShape) -> Tensor:
    """Bilinearly resize an attention matrix, or each matrix of a
    (..., n+1, n+1) stack, between patch grids.

    With the bordered matrix P (bordered_interp_matrix) this is P A P^T:
    the class-to-patch row and patch-to-class column are interpolated
    over their patch grid, the patch-to-patch block along both its query
    and key grids, and (0,0) is kept. Each row of the result is then
    rescaled so its sum equals P times the source row sums (the class row
    keeps its own sum), which makes the operation exact for source ==
    target and keeps row-stochastic matrices row-stochastic. One tape
    node, autodiff.resample; differentiable end to end."""
    a_prime = a_prime if isinstance(a_prime, Tensor) else Tensor(a_prime)
    ns = source.n
    if a_prime.ndim < 2 or a_prime.shape[-2:] != (ns + 1, ns + 1):
        raise DimensionError(f"attention must be {(ns + 1, ns + 1)} for grid {source}, "
                             f"got {a_prime.shape}")
    return ad.resample(a_prime, bordered_interp_matrix(source, target))


def invert_attention(a_prime, transform: SpatialTransform, grid: GridShape) -> Tensor:
    """Undo `transform`'s action on an attention matrix, or on a stack of
    views that `transform` made alike: a permutation re-indexes
    (invert_attention_fast), a resize interpolates back to `grid`
    (resize_attention)."""
    if isinstance(transform, SpatialTransform) and transform.kind is TransformKind.RESIZE:
        return resize_attention(a_prime, transform.resize_target, grid)
    return invert_attention_fast(a_prime, transform, grid)

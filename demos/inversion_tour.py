#!/usr/bin/env python3
"""What happens to an attention matrix when you flip the image?

A spatial transform permutes the patch tokens, which conjugates the
(n+1)x(n+1) attention matrix by that permutation (the class token at
index 0 stays put). The fast inversion just re-indexes rows and columns;
the dense oracle builds the same map out of Kronecker products and the
commutation matrix. This script shows both agree to the bit.
"""

import numpy as np

from attnreg import gridtransform as gt
from attnreg.autodiff import Tensor
from attnreg.gridtransform import FLIP_H, GridShape, ROT90

grid = GridShape(2, 3)
n = grid.n

# label each token by its (row, col) so the permutation is easy to see
labels = np.array([f"{i}{j}" for i in range(grid.h) for j in range(grid.w)])
print("token layout on the 2x3 grid:")
print(labels.reshape(2, 3))

for transform in (FLIP_H, ROT90):
    perm = gt.token_permutation(transform, grid)
    target = transform.target_grid(grid)
    print(f"\n{transform}: sigma = {perm.sigma} (target grid {target})")
    print(labels[perm.sigma].reshape(target.h, target.w))

# now a fake attention matrix: row-stochastic, one row per token (+ class)
rng = np.random.default_rng(7)
a = rng.random(size=(n + 1, n + 1))
a /= a.sum(axis=1, keepdims=True)

# pretend the image was flipped: the transformed view's attention is the
# same matrix with rows/columns re-indexed by the permutation
perm = gt.token_permutation(FLIP_H, grid)
idx = np.concatenate(([0], perm.sigma + 1))
a_view = a[np.ix_(idx, idx)]

recovered = gt.invert_attention_fast(Tensor(a_view), FLIP_H, grid)
print("\nfast inversion recovers the original exactly:",
      np.array_equal(recovered.data, a))

# the oracle route: vec/Kronecker/commutation algebra on the patch block
oracle = gt.invert_attention_kronecker(a_view[1:, 1:], FLIP_H, grid)
print("fast vs oracle max difference:",
      np.max(np.abs(recovered.data[1:, 1:] - oracle)))

# the commutation matrix itself, the workhorse of the oracle:
h = rng.normal(size=(2, 3))
k = gt.commutation_matrix(2, 3)
print("\nC vec(H) == vec(H^T):", np.array_equal(k @ gt.vec(h), gt.vec(h.T)))

# resizes are different: interpolation is lossy, so a resize permutes no
# tokens and has no exact inverse — asking for its permutation is a
# contract error.
resize = gt.SpatialTransform.parse("resize:3x3")
try:
    gt.token_permutation(resize, grid)
except Exception as exc:
    print(f"\nresize is no permutation: {type(exc).__name__}: {exc}")

#!/usr/bin/env python3
# A tour of the reverse-mode tape: build a computation, pull gradients out,
# and double-check one of them with a finite difference by hand.

import numpy as np

from attnreg import autodiff as ad
from attnreg.autodiff import Tape, Tensor

rng = np.random.default_rng(0)

# leaves: a 3x2 weight matrix and a length-3 input row
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
x = Tensor(rng.normal(size=(1, 3)), requires_grad=True)

with Tape() as tape:
    h = ad.matmul(x, w)          # (1, 2)
    h = ad.gelu(h)
    y = ad.mean(ad.mul(h, h))    # scalar loss
tape.backward(y)

print("loss      :", float(y.data))
print("dL/dw     :\n", w.grad)
print("dL/dx     :", x.grad)

# --- check dL/dw[0,0] numerically -------------------------------------------
eps = 1e-6
def loss_at(delta):
    w2 = w.data.copy()
    w2[0, 0] += delta
    with Tape():  # recorded, never swept: only the value is read
        h = ad.gelu(ad.matmul(Tensor(x.data), Tensor(w2)))
        out = ad.mean(ad.mul(h, h))
    return float(out.data)

numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
print("analytic  :", w.grad[0, 0])
print("numeric   :", numeric)
print("difference:", abs(w.grad[0, 0] - numeric))

# tapes are single-use: after backward, a new recording opens a new Tape.
# gradients ACCUMULATE across tapes until zeroed — handy for mini-batches:
w.zero_grad(); x.zero_grad()
for _ in range(4):
    with Tape() as tape:
        y = ad.mean(ad.matmul(x, w))
    tape.backward(y)
print("\nafter 4 accumulating passes, dL/dx =", x.grad)
print("(exactly 4x one pass:", x.grad / 4, ")")

# the built-in checker sweeps every coordinate for you:
err = ad.grad_check(lambda t: ad.mean(ad.mul(ad.gelu(t), t)), Tensor(rng.normal(size=(2, 3))))
print("\ngrad_check worst relative error:", err)

"""mean_distance, the one op behind the l1, l2 and smooth-l1 consistency
distances, against copies of the three forms it replaced: abs_mean,
smooth_l1_mean (delta 1) and the sub -> mul -> mean chain for l2.

Value and both operand gradients must agree with np.array_equal: the
fused op evaluates the same expressions, and for l2 its c * (2 d) equals
the chain's accumulated c * d + c * d because doubling is exact.
"""

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError


# -- the replaced ops, as they were -------------------------------------------

def old_sub(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check_pair("sub", a, b)

    def bw(g):
        return (ad._reduce_to(g, a.shape) if a.requires_grad else None,
                ad._reduce_to(-g, b.shape) if b.requires_grad else None)

    return ad._apply("sub", (a, b), a.data - b.data, bw)


def old_abs_mean(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check_pair("abs_mean", a, b)
    d = a.data - b.data
    n = float(d.size)
    sign = np.sign(d)

    def bw(g):
        ga = float(g) / n * sign
        return (ad._reduce_to(ga, a.shape) if a.requires_grad else None,
                ad._reduce_to(-ga, b.shape) if b.requires_grad else None)

    return ad._apply("abs_mean", (a, b), np.asarray(np.abs(d).mean()), bw)


def old_smooth_l1_mean(a, b, delta=1.0):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check_pair("smooth_l1_mean", a, b)
    d = a.data - b.data
    n = float(d.size)
    absd = np.abs(d)
    inside = absd <= delta
    elems = np.where(inside, 0.5 * d * d, delta * (absd - 0.5 * delta))

    def bw(g):
        slope = np.where(inside, d, delta * np.sign(d))
        ga = float(g) / n * slope
        return (ad._reduce_to(ga, a.shape) if a.requires_grad else None,
                ad._reduce_to(-ga, b.shape) if b.requires_grad else None)

    return ad._apply("smooth_l1_mean", (a, b), np.asarray(elems.mean()), bw)


def old_l2_chain(a, b):
    diff = old_sub(a, b)
    return ad.mean(ad.mul(diff, diff))


OLD = {"l1": old_abs_mean, "l2": old_l2_chain, "smooth_l1": old_smooth_l1_mean}

# a (k, n+1, n+1) stack of k samples' attention blocks, a single block, and
# a scalar second operand
SHAPES = {"2d": ((9, 9), (9, 9)), "stacked": ((4, 9, 9), (4, 9, 9)),
          "scalar": ((4, 9, 9), ())}


def run(op, a, b, seed):
    """Value and both gradients of op(a, b) swept from the adjoint `seed`."""
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = op(ta, tb)
    tape.backward(out, seed=seed)
    return out.data, ta.grad, tb.grad


@pytest.mark.parametrize("scale", [1e-3, 0.3, 3.0])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("distance", ad.DISTANCES)
def test_value_and_both_gradients_equal_the_old_ops(distance, shape, scale):
    rng = np.random.default_rng(7)
    a = rng.normal(size=shape[0]) * scale
    b = rng.normal(size=shape[1]) * scale
    seed = np.asarray(rng.normal())
    new = run(lambda x, y: ad.mean_distance(x, y, distance), a, b, seed)
    old = run(OLD[distance], a, b, seed)
    for got, expected in zip(new, old):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_unknown_distance_is_a_contract_error():
    with pytest.raises(ContractError):
        ad.mean_distance(Tensor(np.ones(2)), Tensor(np.zeros(2)), "l3")

"""The l1, l2 and smooth-l1 distances of view_consistency, the one node
for both consistency terms, against copies of the three forms that
preceded its distances: abs_mean, smooth_l1_mean (delta 1) and the
sub -> mul -> mean chain for l2, each applied to the blocks of the two
views (an index of each, then the old form, per term).

Values and both views' gradients must agree with np.array_equal: the op
evaluates the same expressions, and for l2 its c * (2 d) equals the
chain's accumulated c * d + c * d because doubling is exact.
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

# one view per operand: a single (9, 9) matrix, a (4, 9, 9) stack of k
# samples' attention, and a stack against a view holding one value
# everywhere (view_consistency takes equal shapes: the scalar is spread)
SHAPES = {"2d": ((9, 9), (9, 9)), "stacked": ((4, 9, 9), (4, 9, 9)),
          "scalar": ((4, 9, 9), ())}


def old_run(a, b, distance, seed):
    """[l_act, l_aff] of one layer through the old form -- per block an
    index of each view and the form -- and both views' gradients of
    seed[0] l_act + seed[1] l_aff."""
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        terms = [OLD[distance](ad.index(ta, key), ad.index(tb, key))
                 for key in ad.CONSISTENCY_BLOCKS]
        total = ad.add(*(ad.mul(t, s) for t, s in zip(terms, seed)))
    tape.backward(total)
    return np.array([t.data for t in terms]), ta.grad, tb.grad


def new_run(a, b, distance, seed):
    """The same through view_consistency, swept from `seed`."""
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = ad.view_consistency([ta], [tb], distance).loss
    tape.backward(out, seed=seed)
    return out.data, ta.grad, tb.grad


@pytest.mark.parametrize("scale", [1e-3, 0.3, 3.0])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("distance", ad.DISTANCES)
def test_value_and_both_gradients_equal_the_old_ops(distance, shape, scale):
    rng = np.random.default_rng(7)
    a = rng.normal(size=shape[0]) * scale
    b = np.broadcast_to(rng.normal(size=shape[1]) * scale, shape[0]).copy()
    seed = rng.normal(size=2)
    new = new_run(a, b, distance, seed)
    old = old_run(a, b, distance, seed)
    for got, expected in zip(new, old):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_unknown_distance_is_a_contract_error():
    with pytest.raises(ContractError):
        ad.view_consistency([Tensor(np.ones((2, 2)))], [Tensor(np.zeros((2, 2)))], "l3")

"""autodiff.index, numpy basic indexing as one tape op, against copies of
the two ops it replaced: pick (an entry, or a run of entries, of the first
axis) and slice2d (rows and columns of the last two axes). Values and
input gradients must agree bit for bit, and every key that is not basic
indexing, or selects nothing, is refused.
"""

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError


# -- the replaced ops, as they were --------------------------------------------

def old_pick(x, index):
    shape = x.shape

    def bw(g):
        gx = np.zeros(shape)
        gx[index] = g
        return (gx,)

    return ad._apply("pick", (x,), np.asarray(x.data[index]), bw)


def old_slice2d(x, row_start=None, row_stop=None, col_start=None, col_stop=None):
    rs, cs = slice(row_start, row_stop), slice(col_start, col_stop)
    shape = x.shape

    def bw(g):
        gx = np.zeros(shape)
        gx[..., rs, cs] = g
        return (gx,)

    return ad._apply("slice2d", (x,), np.ascontiguousarray(x.data[..., rs, cs]), bw)


def value_and_grad(op, data):
    """op's output and the gradient it sends back for a random adjoint."""
    x = Tensor(data, requires_grad=True)
    with Tape() as tape:
        out = op(x)
    g = np.random.default_rng(7).normal(size=out.shape)
    tape.backward(out, seed=g)
    return out.data, x.grad


def r(*shape):
    return np.random.default_rng(len(shape)).normal(size=shape)


# (input, old op, index key): each key takes what the old op took
CASES = {
    "pick_1d_int": (r(5), lambda x: old_pick(x, 3), 3),
    "pick_1d_last": (r(5), lambda x: old_pick(x, 4), np.int64(4)),
    "pick_1d_slice": (r(5), lambda x: old_pick(x, slice(1, 4)), np.s_[1:4]),
    "pick_1d_ellipsis": (r(5), lambda x: old_pick(x, slice(None)), ...),
    "pick_2d_int": (r(4, 5), lambda x: old_pick(x, 2), 2),
    "pick_3d_int": (r(2, 3, 4), lambda x: old_pick(x, 1), 1),
    "pick_3d_int_ellipsis": (r(2, 3, 4), lambda x: old_pick(x, 1), np.s_[1, ...]),
    "pick_3d_slice": (r(2, 3, 4), lambda x: old_pick(x, slice(0, 1)), np.s_[0:1]),
    "pick_3d_step": (r(4, 3, 4), lambda x: old_pick(x, slice(0, 4, 2)), np.s_[::2]),
    "slice2d_2d_block": (r(4, 5), lambda x: old_slice2d(x, 1, None, 1, None), np.s_[1:, 1:]),
    "slice2d_2d_row": (r(4, 5), lambda x: old_slice2d(x, 0, 1, 1, None),
                       np.s_[..., 0:1, 1:]),
    "slice2d_3d_class_row": (r(2, 3, 4), lambda x: old_slice2d(x, 0, 1, 1, None),
                             np.s_[..., 0:1, 1:]),
    "slice2d_3d_patch_block": (r(2, 3, 4), lambda x: old_slice2d(x, 1, None, 1, None),
                               np.s_[..., 1:, 1:]),
    "slice2d_3d_rows": (r(2, 3, 4), lambda x: old_slice2d(x, 0, 1), np.s_[..., 0:1, :]),
    "slice2d_3d_columns": (r(2, 3, 4), lambda x: old_slice2d(x, None, None, 2, 4),
                           np.s_[..., 2:4]),
}


@pytest.mark.parametrize("name", CASES)
def test_index_matches_the_op_it_replaced(name):
    data, old, key = CASES[name]
    value, grad = value_and_grad(lambda x: ad.index(x, key), data)
    old_value, old_grad = value_and_grad(old, data)
    assert value.shape == old_value.shape  # an int of a 1-d tensor stays 0-d
    assert np.array_equal(value, old_value)
    assert np.array_equal(grad, old_grad)


@pytest.mark.parametrize("key", [np.array([0, 1]), [0, 1], True, np.bool_(False), None,
                                 (0, [1]), (..., None), 1.0, np.s_[0.5:2], np.s_[::0]],
                         ids=["array", "list", "bool", "numpy_bool", "none", "tuple_with_list",
                              "tuple_with_none", "float", "float_slice", "zero_step"])
def test_a_key_that_is_not_basic_indexing_is_refused(key):
    with pytest.raises(ContractError):
        ad.index(Tensor(r(3, 4)), key)


@pytest.mark.parametrize("key", [3, -4, (0, 4), (0, 0, 0), (..., ...)],
                         ids=["past_the_end", "before_the_start", "past_the_end_of_axis_1",
                              "too_many", "two_ellipses"])
def test_an_out_of_range_key_is_refused(key):
    with pytest.raises(ContractError):
        ad.index(Tensor(r(3, 4)), key)


@pytest.mark.parametrize("key", [np.s_[2:2], np.s_[..., 3:1], np.s_[..., 0:0, :]],
                         ids=["empty_rows", "reversed_columns", "no_rows_of_a_block"])
def test_an_empty_selection_is_refused(key):
    with pytest.raises(DimensionError):
        ad.index(Tensor(r(3, 4)), key)

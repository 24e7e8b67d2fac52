"""autodiff.index, numpy basic indexing as one tape op, against
reference.index_kernel: the value x[key] and a backward that assigns the
adjoint into zeros at key, the expression of both ops index replaced,
pick (an entry, or a run of entries, of the first axis) and slice2d
(rows and columns of the last two axes). Values and input gradients must
agree bit for bit, and every key that is not basic indexing, or selects
nothing, is refused.
"""

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg.autodiff import Tensor
from attnreg.errors import ContractError, DimensionError


def r(*shape):
    return np.random.default_rng(len(shape)).normal(size=shape)


# (input, index key), named by the op the key's selection once took
CASES = {
    "pick_1d_int": (r(5), 3),
    "pick_1d_last": (r(5), np.int64(4)),
    "pick_1d_slice": (r(5), np.s_[1:4]),
    "pick_1d_ellipsis": (r(5), ...),
    "pick_2d_int": (r(4, 5), 2),
    "pick_3d_int": (r(2, 3, 4), 1),
    "pick_3d_int_ellipsis": (r(2, 3, 4), np.s_[1, ...]),
    "pick_3d_slice": (r(2, 3, 4), np.s_[0:1]),
    "pick_3d_step": (r(4, 3, 4), np.s_[::2]),
    "slice2d_2d_block": (r(4, 5), np.s_[1:, 1:]),
    "slice2d_2d_row": (r(4, 5), np.s_[..., 0:1, 1:]),
    "slice2d_3d_class_row": (r(2, 3, 4), np.s_[..., 0:1, 1:]),
    "slice2d_3d_patch_block": (r(2, 3, 4), np.s_[..., 1:, 1:]),
    "slice2d_3d_rows": (r(2, 3, 4), np.s_[..., 0:1, :]),
    "slice2d_3d_columns": (r(2, 3, 4), np.s_[..., 2:4]),
}


@pytest.mark.parametrize("name", CASES)
def test_index_matches_the_op_it_replaced(name):
    data, key = CASES[name]
    ref.assert_kernel(lambda x: ad.index(x, key), [data],
                      lambda x, g: ref.index_kernel(x, g, key))


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

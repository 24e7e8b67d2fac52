"""The kernels that compute in arrays they own: softmax_rows, layer_norm,
gelu, mean over an axis (and axis_sum, its head sum) and permute_rc.

Their value and every input gradient are checked by
reference.assert_kernel against the plain expressions they replaced
(reference.*_kernel), which allocate a fresh array per step: the
in-place forms keep each expression's operation order, so they must
agree bit for bit. A second
check seeds the backward of every op of the engine with a read-only
adjoint, so a backward that writes into the adjoint it is given fails.
The op names come from the engine's source, so an op added without a
case here or in test_autodiff's finite-difference cases fails too.
"""

import inspect
import math
import re

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg.autodiff import Tape, Tensor
from test_autodiff import _fd_cases, fd_probe

LEADS = {"2d": (), "stacked": (2, 3)}
M, K = 5, 7


def case(name, lead, seed=0):
    """(op on Tensors, input arrays, its reference.*_kernel)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (M, K)) * 3.0
    if name == "softmax_rows":
        return ad.softmax_rows, [x], ref.softmax_rows_kernel
    if name == "layer_norm":
        gain, bias = rng.normal(size=(1, K)), rng.normal(size=(1, K))
        return ad.layer_norm, [x, gain, bias], ref.layer_norm_kernel
    if name == "gelu":
        return ad.gelu, [x], ref.gelu_kernel
    if name == "mean":
        axis = -3 if lead else 0
        return (lambda t: ad.mean(t, axis), [x],
                lambda a, g: ref.mean_kernel(a, g, axis))
    # per entry K - 1 distinct tokens of a (K, K) matrix
    square = rng.normal(size=lead + (K, K)) * 3.0
    index = np.array([rng.permutation(K)[:K - 1] for _ in range(math.prod(lead))]
                     ).reshape(lead + (K - 1,))
    return (lambda t: ad.permute_rc(t, index), [square],
            lambda a, g: ref.permute_rc_kernel(a, g, index))


@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
@pytest.mark.parametrize("name", ["softmax_rows", "layer_norm", "gelu", "mean", "permute_rc"])
def test_value_and_every_gradient_match_the_reference(name, lead):
    ref.assert_kernel(*case(name, lead))


@pytest.mark.parametrize("heads", [1, 2, 4, 8])  # 3: the "stacked" case
def test_mean_over_each_head_count_matches_the_reference(heads):
    """mean adds the head slices in order; numpy's reduce over that axis
    does the same, whatever the count (1 head is a copy)."""
    ref.assert_kernel(*case("mean", (2, heads)))


@pytest.mark.parametrize("heads", range(1, 9))
@pytest.mark.parametrize("views", [1, 4])
def test_axis_sum_of_a_head_stack_is_numpys_reduce(views, heads):
    """At the size of an evaluation stack's (views, heads, n+1, n+1)
    adjoints, and over the heads of one row, as attention_adjoints sums."""
    x = np.random.default_rng(heads).normal(size=(views, heads, 65, 65))
    assert np.array_equal(ad.axis_sum(x, -3), x.sum(axis=-3))
    assert np.array_equal(ad.axis_sum(x[..., 0, :], -2), x.sum(axis=-3)[..., 0, :])


# -- no backward writes into its adjoint ----------------------------------------

def every_op():
    """(name, inputs, op) for each of the engine's ops, all inputs
    requiring grad; several branches of an op get a case each."""
    rng = np.random.default_rng(2)
    r = lambda *shape: rng.normal(size=shape)  # noqa: E731
    probs = np.exp(r(2, 2, 3, 3))
    probs /= probs.sum(axis=-1, keepdims=True)
    interp = np.abs(r(4, 3))
    return [
        ("add", [r(2, 3, 4), r(3, 4)], ad.add),
        ("mul", [r(2, 3, 4), r(3, 4)], ad.mul),
        ("matmul", [r(2, 3, 4), r(4, 5)], ad.matmul),
        ("matmul", [r(2, 3, 4), r(2, 4, 5)], ad.matmul),
        ("linear", [r(2, 3, 4), r(4, 6), r(1, 6)], ad.linear),
        ("attention_scores", [r(2, 3, 4), r(4, 4), r(1, 4), r(4, 4), r(1, 4)],
         lambda *t: ad.attention_scores(*t, heads=2, scale=0.5)),
        ("attend", [probs, r(2, 3, 4), r(4, 4), r(1, 4)], ad.attend),
        ("gelu", [r(2, 3, 4)], ad.gelu),
        ("layer_norm", [r(2, 3, 4), r(1, 4), r(1, 4)], ad.layer_norm),
        ("softmax_rows", [r(2, 3, 4)], ad.softmax_rows),
        ("resample", [r(2, 3, 3) ** 2 + 0.5], lambda t: ad.resample(t, interp)),
        ("mean", [r(2, 3, 4)], ad.mean),
        ("mean", [r(2, 3, 4)], lambda t: ad.mean(t, 0)),
        # two stacks gathered, with each distance; two layers' stacks of both views
        *(("view_consistency", [r(2, 3, 3) * 3.0, r(2, 3, 3)],
           lambda a, b, _d=d: ad.view_consistency([a], [b], _d, [[0, 2, 1], [0, 1, 2]]).loss)
          for d in ad.DISTANCES),
        ("view_consistency", [r(2, 3, 3), r(2, 3, 3)],
         lambda a, b: ad.view_consistency([a, b], None, "l2").loss),
        ("bce_with_logits", [r(2, 3), r(2, 3)], ad.bce_with_logits),
        ("concat", [r(1, 4), r(2, 3, 4)], lambda *t: ad.concat(t, axis=0)),
        ("concat", [r(2, 3, 2), r(2, 3, 4)], lambda *t: ad.concat(t, axis=1)),
        ("index", [r(2, 3, 4)], lambda t: ad.index(t, np.s_[..., 1:3, 0:2])),
        ("index", [r(2, 3, 4)], lambda t: ad.index(t, 1)),
        ("index", [r(3, 3, 4)], lambda t: ad.index(t, np.s_[0:2])),
        ("permute_rc", [r(2, 3, 3)], lambda t: ad.permute_rc(t, [[2, 0], [0, 1]])),
    ]


OPS = every_op()


def engine_ops() -> set[str]:
    """Every op name the engine records: the names autodiff passes to _apply."""
    return set(re.findall(r'_apply\("(\w+)"', inspect.getsource(ad)))


def documented_ops() -> tuple[int, set[str]]:
    """The count and the names in the module docstring's "The N ops: ..."
    paragraph (parenthesized asides and the joining words dropped)."""
    count, text = re.search(r"The (\d+) ops: (.*?)\n\n", ad.__doc__, re.S).groups()
    words = set(re.findall(r"\w+", re.sub(r"\([^)]*\)", "", text)))
    return int(count), words - {"and", "the", "fused", "losses"}


def test_the_catalog_covers_every_op():
    """The read-only-adjoint catalog and the autodiff docstring's op
    count and list name exactly the ops the engine records."""
    assert {name for name, _, _ in OPS} == engine_ops()
    assert documented_ops() == (len(engine_ops()), engine_ops())


def test_every_op_has_a_finite_difference_case():
    """Criterion 05 iterates _fd_cases: every op must carry the probe's
    gradient in at least one of them, that is, record an input that
    requires grad (its output then does too)."""
    checked = set()
    for name, builder in _fd_cases():
        with Tape() as tape:
            builder(Tensor(fd_probe(name), requires_grad=True))
        checked.update(node.op for node in tape.nodes
                       if any(ref is not None for ref in node.inputs))
    assert engine_ops() <= checked


@pytest.mark.parametrize("name,arrays,op", OPS, ids=[n for n, _, _ in OPS])
def test_backward_leaves_a_read_only_adjoint_alone(name, arrays, op):
    check_read_only_adjoint(name, arrays, op)


def test_attend_of_query_rows_leaves_a_read_only_adjoint_alone():
    """The branch that computes only the first query rows and scatters
    their probability gradient into a fresh array."""
    (_, arrays, _), = [case for case in OPS if case[0] == "attend"]
    check_read_only_adjoint("attend", arrays, lambda *t: ad.attend(*t, rows=1))


def check_read_only_adjoint(name, arrays, op):
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*inputs)
    (node,) = tape.nodes
    assert node.op == name
    g = np.random.default_rng(3).normal(size=out.shape)
    g.flags.writeable = False
    grads = node.backward(g)  # an in-place write into g raises ValueError here
    assert all(gi is not None and gi.shape == t.shape for gi, t in zip(grads, inputs))

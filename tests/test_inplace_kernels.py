"""The kernels that compute in arrays they own: softmax_rows, layer_norm,
gelu, mean over an axis (and axis_sum, its head sum) and permute_rc.

Their value and every input gradient are checked with np.array_equal
against copies of the plain expressions they replaced, which allocate a
fresh array per step: the in-place forms keep each expression's
operation order, so they must agree bit for bit. A second check seeds
the backward of every op of the engine with a read-only adjoint, so a
backward that writes into the adjoint it is given fails. The op names
come from the engine's source, so an op added without a case here or in
test_autodiff's finite-difference cases fails too.
"""

import inspect
import re

import numpy as np
import pytest
from scipy.special import erf

from attnreg import autodiff as ad
from attnreg.autodiff import Tape, Tensor
from test_autodiff import _fd_cases, fd_probe

LEADS = {"2d": (), "stacked": (2, 3)}
M, K = 5, 7


# -- the reference expressions: value and input gradients for adjoint g -------

def ref_softmax_rows(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y, [y * (g - dot)]


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gg = g * gain
    gx = inv * (gg - gg.sum(axis=-1, keepdims=True) / d
                - xhat * (gg * xhat).sum(axis=-1, keepdims=True) / d)
    return xhat * gain + bias, [gx, (g * xhat).reshape(-1, d).sum(axis=0, keepdims=True),
                                g.reshape(-1, d).sum(axis=0, keepdims=True)]


def ref_gelu(x, g):
    phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * phi, [g * (phi + x * pdf)]


def ref_mean(x, g, axis):
    k = x.shape[axis]
    return x.mean(axis=axis), [np.broadcast_to(np.expand_dims(g / k, axis), x.shape)]


def ref_permute_rc(x, g, ri, ci):
    *lead, m, k = x.shape
    entries = int(np.prod(lead, dtype=int))
    entry = np.arange(entries)[:, None, None]
    rows = ri.reshape(entries, 1, -1).transpose(0, 2, 1)
    cols = ci.reshape(entries, 1, -1)
    out = x.reshape(entries, m, k)[entry, rows, cols].reshape(g.shape)
    gx = np.zeros((entries, m, k))
    gx[entry, rows, cols] = g.reshape(entries, rows.shape[1], cols.shape[2])
    return out, [gx.reshape(x.shape)]


def permutations(rng, lead, n, take):
    """One index per entry of `lead`: `take` distinct entries of range(n)."""
    return np.array([rng.permutation(n)[:take] for _ in range(int(np.prod(lead, dtype=int)))]
                    ).reshape(lead + (take,))


def case(name, lead, seed=0):
    """(op on Tensors, input arrays, reference on arrays and the adjoint)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (M, K)) * 3.0
    if name == "softmax_rows":
        return ad.softmax_rows, [x], ref_softmax_rows
    if name == "layer_norm":
        gain, bias = rng.normal(size=(1, K)), rng.normal(size=(1, K))
        return ad.layer_norm, [x, gain, bias], ref_layer_norm
    if name == "gelu":
        return ad.gelu, [x], ref_gelu
    if name == "mean":
        axis = -3 if lead else 0
        return (lambda t: ad.mean(t, axis), [x],
                lambda a, g: ref_mean(a, g, axis))
    ri, ci = permutations(rng, lead, M, M - 1), permutations(rng, lead, K, K)
    return (lambda t: ad.permute_rc(t, ri, ci), [x],
            lambda a, g: ref_permute_rc(a, g, ri, ci))


@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
@pytest.mark.parametrize("name", ["softmax_rows", "layer_norm", "gelu", "mean", "permute_rc"])
def test_value_and_every_gradient_match_the_reference(name, lead):
    check_against_reference(*case(name, lead))


@pytest.mark.parametrize("heads", [1, 2, 4, 8])  # 3: the "stacked" case
def test_mean_over_each_head_count_matches_the_reference(heads):
    """mean adds the head slices in order; numpy's reduce over that axis
    does the same, whatever the count (1 head is a copy)."""
    check_against_reference(*case("mean", (2, heads)))


@pytest.mark.parametrize("heads", range(1, 9))
@pytest.mark.parametrize("views", [1, 4])
def test_axis_sum_of_a_head_stack_is_numpys_reduce(views, heads):
    """At the size of an evaluation stack's (views, heads, n+1, n+1)
    adjoints, and over the heads of one row, as attention_adjoints sums."""
    x = np.random.default_rng(heads).normal(size=(views, heads, 65, 65))
    assert np.array_equal(ad.axis_sum(x, -3), x.sum(axis=-3))
    assert np.array_equal(ad.axis_sum(x[..., 0, :], -2), x.sum(axis=-3)[..., 0, :])


def check_against_reference(op, arrays, ref):
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*inputs)
    g = np.random.default_rng(1).normal(size=out.shape)
    tape.backward(out, seed=g)
    value, grads = ref(*arrays, g)
    assert np.array_equal(out.data, value)
    for t, expected in zip(inputs, grads):
        assert np.array_equal(t.grad, expected)


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
        ("permute_rc", [r(2, 3, 4)],
         lambda t: ad.permute_rc(t, [[2, 0, 1], [0, 1, 2]], [[3, 1], [0, 2]])),
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

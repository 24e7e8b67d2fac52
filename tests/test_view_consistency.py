"""autodiff.view_consistency, the one node for both consistency terms,
against the chain it replaced (reference.consistency_chain): per loss
layer an index of each half of a stacked record, a permute_rc of the
augmented half or a resampled view, a block index of each view and
mean_distance, then the layer sums.

Values, each layer's distances and every input adjoint must be equal
bit for bit, signed zeros included, for each distance, every
permutation transform, mixed per-entry transforms and resized feeds,
stacks of 1, 3 and 8 samples, one loss layer and three, and both input
layouts: one (2k, m, m) stack per layer or two (k, m, m) stacks; and on
signed (m, m) matrices and stacks whose differences reach past smooth-l1's
|d| <= 1.
"""

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError, NumericalError
from attnreg.gridtransform import GridShape

GRID = GridShape(8, 8)
M = GRID.n + 1
PERMUTATIONS = ("fliph", "flipv", "rot90", "rot180", "rot270")
FEEDS = (*PERMUTATIONS, "mixed", "resize:6x6", "resize:10x10")


def transforms_of(feed, k):
    if feed == "mixed":
        return [gt.SpatialTransform.parse(PERMUTATIONS[e % 5]) for e in range(k)]
    return [gt.SpatialTransform.parse(feed)] * k


def attention(rng, lead, m):
    raw = rng.random(size=lead + (m, m)) + 0.05
    return raw / raw.sum(axis=-1, keepdims=True)


def make_case(feed, k, layers, seed):
    """Per layer the plain stack a (k, M, M) and the augmented view's
    stack a' on its own grid, with a equal to inv(a') on a third of the
    entries, so the distance has exact zeros (l1 kinks, signed-zero
    adjoints)."""
    rng = np.random.default_rng(seed)
    transforms = transforms_of(feed, k)
    target = transforms[0].target_grid(GRID)
    augmented = [attention(rng, (k,), target.n + 1) for _ in range(layers)]
    plain = []
    for ap in augmented:
        back = invert(Tensor(ap), transforms).data
        a = attention(rng, (k,), M)
        same = rng.random(size=a.shape) < 1 / 3
        plain.append(np.where(same, back, a))
    return plain, augmented, transforms


def invert(ap, transforms):
    """Each entry of `ap` back onto GRID: a resize, every entry's, by its
    resample node, permutations by one gather of their own rows."""
    if transforms[0].kind is gt.TransformKind.RESIZE:
        return gt.invert_attention(ap, transforms[0], GRID)
    return ad.permute_rc(ap, gt.inverse_token_indices(transforms, GRID))


def leaves(plain, augmented, stacked, requires_grad=True):
    """The op's input tensors: one stack of both views per layer, or the
    plain stacks and then the augmented ones."""
    arrays = ([np.concatenate([a, ap]) for a, ap in zip(plain, augmented)] if stacked
              else [*plain, *augmented])
    return [Tensor(x, requires_grad=requires_grad) for x in arrays]


def feed(inputs, stacked, transforms):
    """(a, ap, index) for the op or the chain: a resized view goes through
    its resample node first, a permuted one through the gather."""
    layers = len(inputs) if stacked else len(inputs) // 2
    a, ap = (inputs, None) if stacked else (inputs[:layers], inputs[layers:])
    if transforms[0].kind is gt.TransformKind.RESIZE:
        return a, [invert(t, transforms) for t in ap], None
    return a, ap, gt.inverse_token_indices(transforms, GRID)


def fused(plain, augmented, transforms, distance, stacked, seeds):
    """The op's loss (2,) and per-layer distances, and every input's
    adjoint after a sweep seeded with `seeds` on [l_act, l_aff]."""
    inputs = leaves(plain, augmented, stacked)
    with Tape() as tape:
        a, ap, index = feed(inputs, stacked, transforms)
        result = ad.view_consistency(a, ap, distance, index)
    tape.backward(result.loss, seed=np.asarray(seeds))
    return result.loss.data, result.layers, [t.grad for t in inputs]


def chain(plain, augmented, transforms, distance, stacked, seeds):
    """The same through reference.consistency_chain: its [l_act, l_aff],
    and every input's adjoint of seeds[0] l_act + seeds[1] l_aff, a term
    with seed 0 left out of the chain."""
    a, ap, index = feed(leaves(plain, augmented, stacked, False), stacked, transforms)
    value = np.array([t.data for t in ref.consistency_chain(a, ap, distance, index)])
    inputs = leaves(plain, augmented, stacked)
    with Tape() as tape:
        a, ap, index = feed(inputs, stacked, transforms)
        terms = ref.consistency_chain(a, ap, distance, index,
                                      terms=tuple(s != 0.0 for s in seeds))
        parts = [ad.mul(t, s) for t, s in zip(terms, seeds) if t is not None]
        total = parts[0] if len(parts) == 1 else ad.add(*parts)
    tape.backward(total)
    return value, [t.grad for t in inputs]


def chain_layers(plain, augmented, transforms, distance):
    """Each layer's mean_distance of either term, through the chain."""
    out = np.empty((2, len(plain)))
    for i, (a, ap) in enumerate(zip(plain, augmented)):
        back = invert(Tensor(ap), transforms)
        for t, key in enumerate(ref.BLOCKS):
            out[t, i] = ref.mean_distance(ad.index(Tensor(a), key), ad.index(back, key),
                                          distance).data
    return out


@pytest.mark.parametrize("layers", [1, 3], ids=["one_layer", "three_layers"])
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("stacked", [True, False], ids=["one_stack", "two_stacks"])
@pytest.mark.parametrize("feed", FEEDS)
@pytest.mark.parametrize("distance", ad.DISTANCES)
def test_values_and_adjoints_equal_the_chain(distance, feed, stacked, k, layers):
    if stacked and feed.startswith("resize"):
        pytest.skip("a resized view has a grid of its own")
    plain, augmented, transforms = make_case(feed, k, layers, seed=k * 10 + layers)
    seeds = (-0.7, 1.3)  # a negative seed makes -0 adjoints at the l1 kinks
    value, per_layer, grads = fused(plain, augmented, transforms, distance, stacked, seeds)
    ref_value, ref_grads = chain(plain, augmented, transforms, distance, stacked, seeds)
    assert ref.bit_equal(value, ref_value)
    assert ref.bit_equal(per_layer, chain_layers(plain, augmented, transforms, distance))
    for g, rg in zip(grads, ref_grads, strict=True):
        assert ref.bit_equal(g, rg)


@pytest.mark.parametrize("scale", [0.3, 3.0], ids=["small", "large"])
@pytest.mark.parametrize("gathered", [False, True], ids=["as_is", "gathered"])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["2d", "stacked"])
@pytest.mark.parametrize("distance", ad.DISTANCES)
def test_signed_matrices_equal_the_chain(distance, lead, gathered, scale):
    """Matrices that are not attention: (m, m) ones with no leading axis
    as well as stacks, entries of either sign and, at scale 3, most
    differences beyond 1, on smooth-l1's outer branch."""
    rng = np.random.default_rng(12)
    arrays = [rng.normal(size=lead + (M, M)) * scale for _ in range(2)]
    index = (np.broadcast_to(gt.inverse_token_indices([gt.FLIP_H], GRID)[0], lead + (M,))
             if gathered else None)
    seeds = (-0.7, 1.3)
    inputs = [Tensor(x, requires_grad=True) for x in arrays]
    with Tape() as tape:
        result = ad.view_consistency(inputs[:1], inputs[1:], distance, index)
    tape.backward(result.loss, seed=np.asarray(seeds))
    ref_inputs = [Tensor(x, requires_grad=True) for x in arrays]
    with Tape() as tape:
        terms = ref.consistency_chain(ref_inputs[:1], ref_inputs[1:], distance, index)
        total = ad.add(*(ad.mul(t, s) for t, s in zip(terms, seeds)))
    tape.backward(total)
    assert ref.bit_equal(result.loss.data, np.array([t.data for t in terms]))
    for t, rt in zip(inputs, ref_inputs, strict=True):
        assert ref.bit_equal(t.grad, rt.grad)


@pytest.mark.parametrize("seeds", [(-0.7, 0.0), (0.0, -1.3), (2.0, 0.0), (0.0, 0.0)],
                         ids=["act_only", "aff_only", "act_only_positive", "neither"])
@pytest.mark.parametrize("stacked", [True, False], ids=["one_stack", "two_stacks"])
@pytest.mark.parametrize("feed", ["rot90", "mixed", "resize:6x6"])
def test_a_term_weighted_zero_is_left_out(feed, stacked, seeds):
    """A zero adjoint on a term: the adjoints of the chain without that
    term; with neither, no adjoint at all."""
    if stacked and feed.startswith("resize"):
        pytest.skip("a resized view has a grid of its own")
    plain, augmented, transforms = make_case(feed, 3, 2, seed=5)
    _, _, grads = fused(plain, augmented, transforms, "l1", stacked, seeds)
    if seeds == (0.0, 0.0):
        assert all(g is None for g in grads)
        return
    _, ref_grads = chain(plain, augmented, transforms, "l1", stacked, seeds)
    for g, rg in zip(grads, ref_grads, strict=True):
        assert ref.bit_equal(g, rg)


def test_a_term_weighted_zero_does_no_backward_work(monkeypatch):
    """The slope of a term whose adjoint is zero is never computed, and a
    backward with both zero does nothing."""
    calls = []
    elements, slope = ad._DISTANCE_TERMS["l1"]
    monkeypatch.setitem(ad._DISTANCE_TERMS, "l1",
                        (elements, lambda d: calls.append(d.shape) or slope(d)))
    plain, augmented, transforms = make_case("fliph", 2, 2, seed=6)
    index = gt.inverse_token_indices(transforms, GRID)
    for seed, expected in (((1.0, 0.0), [(2, 1, M - 1)] * 2), ((0.0, 1.0), [(2, M - 1, M - 1)] * 2),
                           ((0.0, 0.0), [])):
        a = [Tensor(x, requires_grad=True) for x in plain]
        with Tape() as tape:
            loss = ad.view_consistency(a, [Tensor(x) for x in augmented], "l1", index).loss
        calls.clear()
        tape.backward(loss, seed=np.asarray(seed))
        assert calls == expected, seed
        assert all((t.grad is None) == (seed == (0.0, 0.0)) for t in a)


def test_only_inputs_that_require_grad_get_adjoints():
    plain, augmented, transforms = make_case("rot180", 2, 2, seed=7)
    a = [Tensor(x, requires_grad=True) for x in plain]
    b = [Tensor(x) for x in augmented]
    with Tape() as tape:
        loss = ad.view_consistency(a, b, "l2", gt.inverse_token_indices(transforms, GRID)).loss
    tape.backward(loss, seed=np.ones(2))
    assert all(t.grad is not None for t in a) and all(t.grad is None for t in b)


def test_works_without_a_tape():
    plain, augmented, transforms = make_case("flipv", 2, 1, seed=8)
    index = gt.inverse_token_indices(transforms, GRID)
    result = ad.view_consistency([Tensor(plain[0])], [Tensor(augmented[0])], "l1", index)
    assert result.loss.shape == (2,) and not result.loss.requires_grad
    assert ref.bit_equal(result.loss.data, result.layers[:, 0])


class TestRefusals:
    """Bad shapes and indices end as the errors permute_rc raises, naming
    view_consistency."""

    def args(self, k=2):
        plain, augmented, transforms = make_case("fliph", k, 1, seed=9)
        return ([Tensor(plain[0])], [Tensor(augmented[0])],
                gt.inverse_token_indices(transforms, GRID))

    @pytest.mark.parametrize("bad,error", [
        (lambda idx: np.concatenate([idx[:, :1], idx[:, :-1]], axis=1), "indices repeat"),
        (lambda idx: idx + 1, "indices out of range"),
        (lambda idx: idx - 1, "indices out of range"),
        (lambda idx: idx[:1], "does not match the leading axes"),
    ], ids=["repeat", "too_high", "negative", "wrong_entries"])
    def test_bad_index_is_refused_as_permute_rc_refuses_it(self, bad, error):
        a, b, idx = self.args()
        with pytest.raises((ContractError, DimensionError)) as got:
            ad.view_consistency(a, b, "l1", bad(idx))
        with pytest.raises(got.type) as expected:
            ad.permute_rc(b[0], bad(idx))
        assert str(got.value) == str(expected.value).replace("permute_rc", "view_consistency")
        assert error in str(got.value)

    def test_index_of_another_token_count(self):
        a, b, idx = self.args()
        with pytest.raises(DimensionError, match="view_consistency"):
            ad.view_consistency(a, b, "l1", idx[:, :-1])

    def test_bad_shapes(self):
        a, b, _ = self.args()
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError, match="layer counts"):
            ad.view_consistency(a, b * 2, "l1")
        with pytest.raises(DimensionError, match="layer counts"):
            ad.view_consistency([], [], "l1")
        with pytest.raises(DimensionError, match="square"):
            ad.view_consistency([Tensor(rng.random((2, 3, 4)))], [Tensor(rng.random((2, 3, 4)))],
                                "l1")
        with pytest.raises(DimensionError, match="square"):  # no patch token
            ad.view_consistency([Tensor(rng.random((2, 1, 1)))], [Tensor(rng.random((2, 1, 1)))],
                                "l1")
        with pytest.raises(DimensionError, match="both views"):
            ad.view_consistency(a, [Tensor(rng.random((2, 5, 5)))], "l1")
        with pytest.raises(DimensionError, match="even leading axis"):
            ad.view_consistency([Tensor(rng.random((3, M, M)))], None, "l1")

    def test_unknown_distance(self):
        a, b, _ = self.args()
        with pytest.raises(ContractError, match="distance must be one of"):
            ad.view_consistency(a, b, "l3")

    def test_non_finite_result_names_the_op(self):
        big = np.full((1, 3, 3), 1e200)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="view_consistency: result contains NaN or Inf"):
            ad.view_consistency([Tensor(big)], [Tensor(-big)], "l2")

"""The last block's class-row tail against the all-rows reference.

`vit.forward` runs the last block's attention on all n+1 rows, then
computes attend's query row 0 only and carries one row per view through
wo, the residual, the MLP, the final layer norm and the head. Oracle:
reference.forward, one view at a time with every block on all n+1 rows.
Logits, attention matrices, chunk losses, parameter gradients and the
seeded sweeps' class-token adjoint rows must match it to 1e-12 on both
benchmark models. A 1-row product rounds differently from the same row
of an (n+1)-row one, so equality is to rounding, not bit for bit.

attend's query-row count is also checked on its own: central
differences on 2-d and stacked inputs, and the value and every input
gradient against the full op, whose adjoint is zero on the other rows.
"""

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import DimensionError
from attnreg.gridtransform import SpatialTransform
from attnreg.vit import ViTConfig

# the two models of the benchmark workloads
MODELS = {"c07": ref.C07, "default": ViTConfig()}


def images_for(cfg, count, seed=0):
    return np.random.default_rng(seed).random(
        (count, cfg.in_channels, cfg.grid.h * cfg.patch_size, cfg.grid.w * cfg.patch_size))


@pytest.mark.parametrize("stack", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("model", list(MODELS))
def test_logits_and_attention_match_the_full_rows(model, stack):
    cfg = MODELS[model]
    params = vit.init_params(cfg, np.random.default_rng(1))
    images = images_for(cfg, stack or 1, seed=2)
    with Tape() as tape:
        res = vit.forward(images if stack else images[0], params, cfg)
    assert len(tape.nodes) == ref.forward_nodes(cfg)
    m = cfg.grid.n + 1
    assert res.logits.shape == ((stack,) if stack else ()) + (cfg.num_classes,)
    logits = res.logits.data.reshape(len(images), cfg.num_classes)
    for v, image in enumerate(images):
        expected = ref.forward(image, params, cfg)
        ref.assert_close(logits[v], expected.logits.data, f"view {v} logits")
        for i, (rec, ref_rec) in enumerate(zip(res.attentions, expected.attentions,
                                               strict=True)):
            ref.assert_close(rec.matrix.data.reshape(len(images), m, m)[v], ref_rec.matrix.data,
                             f"view {v} attention {i}")


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("transform", ["fliph", "resize:6x6"])
@pytest.mark.parametrize("model", list(MODELS))
def test_chunk_loss_and_gradients_match_the_full_rows(model, transform, k):
    """k times the mean loss of one chunk against the k samples' summed
    reference losses: the loss terms and every parameter gradient."""
    config = tr.TrainConfig(vit=MODELS[model], weights=ref.WEIGHTS)
    params = vit.init_params(config.vit, np.random.default_rng(3))
    pairs = [(ref.sample_for(config.vit, 10 + j), SpatialTransform.parse(transform))
             for j in range(k)]
    fresh = ref.fresh(params)
    chunk = [tr._two_views(j, s, t, config.vit) for j, (s, t) in enumerate(pairs)]
    terms = tr._chunk_backward(chunk, fresh, config)
    ref_terms, ref_grads = ref.sample_sums(pairs, params, config)
    for key, value in ref_terms.items():
        assert abs(terms[key] - value) <= ref.TOL, key
    assert fresh.keys() == ref_grads.keys()
    for name, g in ref_grads.items():
        ref.assert_close(fresh[name].grad, g, f"d/d{name}")


@pytest.mark.parametrize("model", list(MODELS))
def test_adjoint_rows_match_the_full_rows(model):
    """Each image's class-token adjoint rows against a reference forward
    of the image alone swept from its class's logit."""
    cfg = MODELS[model]
    params = vit.init_params(cfg, np.random.default_rng(4))
    images = images_for(cfg, 3, seed=5)
    classes = np.array([[0, 2], [1, 2], [0, 1]])
    rows, blocks = tr.adjoint_rows(images, classes, params, cfg)
    frozen = {k: Tensor(p.data) for k, p in params.items()}
    for v, image in enumerate(images):
        for r, k in enumerate(classes[v]):
            with Tape() as tape:
                expected = ref.forward(image, frozen, cfg)
            adjoints = ref.adjoints(tape, expected.logits, expected, np.eye(cfg.num_classes)[k])
            for i, rec in enumerate(expected.attentions):
                ref.assert_close(rows[v, r, i], adjoints[i][0, 1:], f"image {v} class {k}")
                ref.assert_close(blocks[v, i], rec.matrix.data[1:, 1:], f"image {v} layer {i}")


# -- attend with a query-row count ---------------------------------------------

M, D, WIDTH, HEADS = 4, 4, 6, 2
LEADS = {"2d": (), "stacked": (2,)}


def attend_operands(lead, seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=lead + (HEADS, M, M))
    probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    return [probs, rng.normal(size=lead + (M, D)), rng.normal(size=(D, WIDTH)),
            rng.normal(size=(1, WIDTH))]


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("lead", LEADS)
def test_attend_rows_grad_check(lead, rows, i):
    arrays = attend_operands(LEADS[lead])
    weight = Tensor(np.random.default_rng(1).normal(size=LEADS[lead] + (rows, WIDTH)))

    def f(probe):
        inputs = [probe if j == i else Tensor(a) for j, a in enumerate(arrays)]
        return ad.mean(ad.mul(ad.attend(*inputs, rows=rows), weight))

    err = ad.grad_check(f, Tensor(arrays[i]), step=1e-5)
    assert err < 1e-6, f"input {i}: finite-difference mismatch {err:.3e}"


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("lead", LEADS)
def test_attend_rows_are_the_first_rows_of_the_full_op(lead, rows):
    """Value: the full op's first rows. Gradients: the full op's, swept
    from an adjoint that is zero on the rows not computed."""
    arrays = attend_operands(LEADS[lead], seed=2)
    g = np.random.default_rng(3).normal(size=LEADS[lead] + (rows, WIDTH))
    results = []
    for count, seed in ((rows, g), (None, np.concatenate(
            [g, np.zeros(LEADS[lead] + (M - rows, WIDTH))], axis=-2))):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = ad.attend(*inputs, rows=count)
        tape.backward(out, seed=seed)
        results.append((out.data[..., :rows, :], [t.grad for t in inputs]))
    (value, grads), (ref_value, ref_grads) = results
    ref.assert_close(value, ref_value, "value")
    for j, (gi, expected) in enumerate(zip(grads, ref_grads, strict=True)):
        ref.assert_close(gi, expected, f"input {j}")
    assert not grads[0][..., rows:, :].any()


@pytest.mark.parametrize("rows", [0, M + 1])
def test_attend_rows_out_of_range(rows):
    with pytest.raises(DimensionError, match="query rows"):
        ad.attend(*map(Tensor, attend_operands(())), rows=rows)


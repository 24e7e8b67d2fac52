"""The last block's class-row tail against the full-row forward.

`vit.forward` runs the last block's attention on all n+1 rows, then
computes attend's query row 0 only and carries one row per view through
wo, the residual, the MLP, the final layer norm and the head. Oracle: a
forward built here from the same engine ops in the full-row order --
attend on every row, the class row sliced after the final layer norm.
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

from attnreg import autodiff as ad
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import DimensionError
from attnreg.gridtransform import GridShape, SpatialTransform
from attnreg.regularizer import LossWeights
from attnreg.vit import ViTConfig

TOL = 1e-12

# the two models and loss weights of the benchmark workloads
MODELS = {
    "c07": ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16, num_layers=2,
                     num_heads=2, num_classes=3, use_positional_embedding=False),
    "default": ViTConfig(),
}
WEIGHTS = LossWeights(alpha=2.0, beta=0.25, distance="l1")


def full_row_forward(images, params, config):
    """The forward with every block on all n+1 rows and the class row
    sliced after the final layer norm."""
    images = np.asarray(images, dtype=np.float64)
    grid = GridShape(images.shape[-2] // config.patch_size,
                     images.shape[-1] // config.patch_size)
    x = ad.linear(Tensor(vit.patchify(images, config.patch_size)),
                  params["patch_embed.weight"], params["patch_embed.bias"])
    x = ad.concat([params["cls_token"], x], axis=0)
    if config.use_positional_embedding:
        x = ad.add(x, vit._positional_rows(params, config, grid))
    scale = 1.0 / np.sqrt(config.head_dim)
    records = []
    for i in range(config.num_layers):
        p = f"blocks.{i}."
        h = ad.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        scores = ad.attention_scores(h, params[p + "attn.wq"], params[p + "attn.bq"],
                                     params[p + "attn.wk"], params[p + "attn.bk"],
                                     config.num_heads, scale)
        per_head = ad.softmax_rows(scores)
        per_head.retain_grad()
        records.append(vit.AttentionRecord(layer=i, matrix=ad.mean(per_head, axis=-3),
                                           heads=per_head))
        merged = ad.attend(per_head, h, params[p + "attn.wv"], params[p + "attn.bv"])
        x = ad.add(x, ad.linear(merged, params[p + "attn.wo"], params[p + "attn.bo"]))
        h2 = ad.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        hidden = ad.gelu(ad.linear(h2, params[p + "mlp.w1"], params[p + "mlp.b1"]))
        x = ad.add(x, ad.linear(hidden, params[p + "mlp.w2"], params[p + "mlp.b2"]))
    x = ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    cls = ad.index(x, np.s_[..., 0:1, :])
    logits = ad.reshape(ad.linear(cls, params["head.weight"], params["head.bias"]),
                        images.shape[:-3] + (config.num_classes,))
    return vit.ForwardResult(logits=logits, attentions=records, grid=grid)


def assert_close(got, expected, what):
    assert got.shape == expected.shape, what
    worst = float(np.max(np.abs(got - expected)))
    assert worst <= TOL, f"{what}: {worst:.3e}"


def images_for(cfg, count, seed=0):
    return np.random.default_rng(seed).random(
        (count, cfg.in_channels, cfg.grid.h * cfg.patch_size, cfg.grid.w * cfg.patch_size))


def sample_for(cfg, seed):
    rng = np.random.default_rng(seed)
    image = images_for(cfg, 1, seed)[0]
    labels = (rng.random(cfg.num_classes) < 0.5).astype(np.float64)
    return sd.SyntheticSample(image=image, labels=labels,
                              mask=np.zeros(image.shape[1:], dtype=np.int64), seed=(seed, 0))


@pytest.mark.parametrize("stack", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("model", list(MODELS))
def test_logits_and_attention_match_the_full_rows(model, stack):
    cfg = MODELS[model]
    params = vit.init_params(cfg, np.random.default_rng(1))
    images = images_for(cfg, stack or 1, seed=2)
    if stack is None:
        images = images[0]
    with Tape() as tape:
        res = vit.forward(images, params, cfg)
    with Tape() as ref_tape:
        ref = full_row_forward(images, params, cfg)
    assert len(tape.nodes) == len(ref_tape.nodes)
    assert_close(res.logits.data, ref.logits.data, "logits")
    for rec, ref_rec in zip(res.attentions, ref.attentions, strict=True):
        assert_close(rec.matrix.data, ref_rec.matrix.data, f"attention {rec.layer}")


def chunk_backward(pairs, params, config):
    """k times the mean loss of one chunk of `pairs`: its loss terms and
    every parameter gradient."""
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    chunk = [tr._two_views(j, s, t, config.vit) for j, (s, t) in enumerate(pairs)]
    return tr._chunk_backward(chunk, params, config), {k: p.grad for k, p in params.items()}


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("transform", ["fliph", "resize:6x6"])
@pytest.mark.parametrize("model", list(MODELS))
def test_chunk_loss_and_gradients_match_the_full_rows(monkeypatch, model, transform, k):
    config = tr.TrainConfig(vit=MODELS[model], weights=WEIGHTS)
    params = vit.init_params(config.vit, np.random.default_rng(3))
    pairs = [(sample_for(config.vit, 10 + j), SpatialTransform.parse(transform))
             for j in range(k)]
    terms, grads = chunk_backward(pairs, params, config)
    monkeypatch.setattr(vit, "forward", full_row_forward)
    ref_terms, ref_grads = chunk_backward(pairs, params, config)
    for key, value in ref_terms.items():
        assert abs(terms[key] - value) <= TOL, key
    assert grads.keys() == ref_grads.keys()
    for name, g in ref_grads.items():
        assert_close(grads[name], g, f"d/d{name}")


@pytest.mark.parametrize("model", list(MODELS))
def test_adjoint_rows_match_the_full_rows(monkeypatch, model):
    cfg = MODELS[model]
    params = vit.init_params(cfg, np.random.default_rng(4))
    images = images_for(cfg, 3, seed=5)
    classes = np.array([[0, 2], [1, 2], [0, 1]])
    rows, blocks = tr.adjoint_rows(images, classes, params, cfg)
    monkeypatch.setattr(vit, "forward", full_row_forward)
    ref_rows, ref_blocks = tr.adjoint_rows(images, classes, params, cfg)
    assert_close(rows, ref_rows, "class-token adjoint rows")
    assert_close(blocks, ref_blocks, "attention blocks")


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
    assert_close(value, ref_value, "value")
    for j, (gi, ref) in enumerate(zip(grads, ref_grads, strict=True)):
        assert_close(gi, ref, f"input {j}")
    assert not grads[0][..., rows:, :].any()


@pytest.mark.parametrize("rows", [0, M + 1])
def test_attend_rows_out_of_range(rows):
    with pytest.raises(DimensionError, match="query rows"):
        ad.attend(*map(Tensor, attend_operands(())), rows=rows)


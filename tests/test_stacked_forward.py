"""The stacked forward against the per-view forward it replaced.

The references below are the earlier model code, kept as oracles: one
forward per view, every head its own slice/transpose/matmul/softmax
chain, heads averaged by repeated adds and merged by concatenation, and
the two-view loss built from two such forwards. The stacked path runs
both views of a sample on a view axis and all heads on a head axis; its
logits, attention matrices, adjoints, loss terms and every parameter
gradient must agree with the references to 1e-12.
"""

import zlib
from dataclasses import dataclass, replace

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg import regularizer as reg
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import DimensionError
from attnreg.gridtransform import GridShape, SpatialTransform
from attnreg.regularizer import LossWeights
from attnreg.vit import ViTConfig
from test_fused_ops import transpose

TOL = 1e-12


@dataclass
class ReferenceRecord:
    layer: int
    matrix: Tensor
    heads: tuple

    @property
    def adjoint(self):
        total = self.heads[0].grad.copy()
        for h in self.heads[1:]:
            total += h.grad
        return total


@dataclass
class ReferenceResult:
    logits: Tensor
    attentions: list
    grid: GridShape


def affine(x, w, b):
    """x @ w + b from primitives: the (1, n) bias as an (n,) row that add
    broadcasts over x's rows."""
    return ad.add(ad.matmul(x, w), ad.reshape(b, (b.shape[-1],)))


def reference_forward(image, params, config):
    """One (C, H, W) image; the per-head 2-d op chains."""
    image = np.asarray(image, dtype=np.float64)
    grid = GridShape(image.shape[1] // config.patch_size, image.shape[2] // config.patch_size)
    patches = Tensor(vit.patchify(image, config.patch_size))
    x = affine(patches, params["patch_embed.weight"], params["patch_embed.bias"])
    x = ad.concat([params["cls_token"], x], axis=0)
    if config.use_positional_embedding:
        x = ad.add(x, vit._positional_rows(params, config, grid))
    heads, dh = config.num_heads, config.head_dim
    scale = 1.0 / np.sqrt(dh)
    records = []
    for i in range(config.num_layers):
        p = f"blocks.{i}."
        h = ad.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        q = affine(h, params[p + "attn.wq"], params[p + "attn.bq"])
        k = affine(h, params[p + "attn.wk"], params[p + "attn.bk"])
        v = affine(h, params[p + "attn.wv"], params[p + "attn.bv"])
        per_head, values = [], []
        for j in range(heads):
            cols = np.s_[..., j * dh:(j + 1) * dh]
            qj = ad.index(q, cols)
            kj = ad.index(k, cols)
            values.append(ad.index(v, cols))
            attn_j = ad.softmax_rows(ad.mul(ad.matmul(qj, transpose(kj)), scale))
            attn_j.retain_grad()
            per_head.append(attn_j)
        if heads == 1:
            averaged = per_head[0]
        else:
            acc = per_head[0]
            for j in range(1, heads):
                acc = ad.add(acc, per_head[j])
            averaged = ad.mul(acc, 1.0 / heads)
        records.append(ReferenceRecord(layer=i, matrix=averaged, heads=tuple(per_head)))
        outs = [ad.matmul(per_head[j], values[j]) for j in range(heads)]
        merged = outs[0] if heads == 1 else ad.concat(outs, axis=1)
        x = ad.add(x, affine(merged, params[p + "attn.wo"], params[p + "attn.bo"]))
        h2 = ad.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        m = ad.gelu(affine(h2, params[p + "mlp.w1"], params[p + "mlp.b1"]))
        m = affine(m, params[p + "mlp.w2"], params[p + "mlp.b2"])
        x = ad.add(x, m)
    x = ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    cls = ad.index(x, np.s_[..., 0:1, :])
    logits = ad.reshape(affine(cls, params["head.weight"], params["head.bias"]),
                        (config.num_classes,))
    return ReferenceResult(logits=logits, attentions=records, grid=grid)


def reference_two_view_loss(sample, transform, params, config):
    """Two separate forwards, then the same losses."""
    cfg = config.vit
    view_b = sd.augment(sample.image, transform, cell_pixels=cfg.patch_size)
    res_a = reference_forward(sample.image, params, cfg)
    res_b = reference_forward(view_b, params, cfg)
    lo, hi = tr._loss_layer_slice(config)
    act = aff = Tensor(0.0)
    if config.weights.alpha != 0.0 or config.weights.beta != 0.0:
        a = [rec.matrix for rec in res_a.attentions[lo:hi]]
        ap = [rec.matrix for rec in res_b.attentions[lo:hi]]
        back = reg.invert_layers(ap, transform, res_a.grid)
        if config.weights.alpha != 0.0:
            act = reg.region_activation_loss(a, back, config.weights.distance)
        if config.weights.beta != 0.0:
            aff = reg.region_affinity_loss(a, back, config.weights.distance)
    return reg.total_loss(res_a.logits, res_b.logits, sample.labels, act, aff, config.weights)


def transforms(text):
    return tuple(SpatialTransform.parse(p) for p in text.split(","))


_WEIGHTS = LossWeights(alpha=2.0, beta=0.25, distance="l1")

# the benchmark's two training configurations, and variations of them
CONSISTENCY = tr.TrainConfig(
    vit=ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16, num_layers=2,
                  num_heads=2, num_classes=3, use_positional_embedding=False),
    weights=_WEIGHTS, augmentations=transforms("fliph,flipv,rot90,rot180,rot270"))
RESIZE_WIDE = tr.TrainConfig(vit=ViTConfig(), weights=_WEIGHTS,
                             augmentations=transforms("fliph,resize:6x6,resize:10x10"))
SMALL = ViTConfig(patch_size=2, grid=GridShape(3, 4), embed_dim=8, num_layers=3, num_heads=2,
                  num_classes=2, use_positional_embedding=True)
NON_SQUARE = tr.TrainConfig(vit=SMALL, weights=_WEIGHTS,
                            augmentations=transforms("rot90,rot270,flipv,resize:2x2"))
CASES = {
    "consistency": CONSISTENCY,
    "resize_wide": RESIZE_WIDE,
    "non_square_pos": NON_SQUARE,
    "one_head": replace(NON_SQUARE, vit=replace(SMALL, num_heads=1)),
    "four_heads": replace(NON_SQUARE, vit=replace(SMALL, num_heads=4)),
    "loss_layers": replace(NON_SQUARE, loss_layers=(1, 3),
                           weights=LossWeights(alpha=3.0, beta=1.5, distance="smooth_l1")),
    "l2_no_pos": replace(CONSISTENCY, vit=replace(CONSISTENCY.vit, grid=GridShape(4, 4)),
                         weights=LossWeights(alpha=1.0, beta=0.0, distance="l2")),
    "classification_only": replace(NON_SQUARE, weights=LossWeights(alpha=0.0, beta=0.0)),
}


def sample_for(cfg, seed):
    rng = np.random.default_rng(seed)
    image = rng.random((cfg.in_channels, cfg.grid.h * cfg.patch_size,
                        cfg.grid.w * cfg.patch_size))
    labels = (rng.random(cfg.num_classes) < 0.5).astype(np.float64)
    return sd.SyntheticSample(image=image, labels=labels,
                              mask=np.zeros(image.shape[1:], dtype=np.int64), seed=(seed, 0))


def one_sample_loss(sample, transform, params, config, snapshot=None):
    """The training loss of a one-sample chunk: its mean is the sample's loss."""
    chunk = [tr._two_views(0, sample, transform, config.vit)]
    return tr._chunk_loss(chunk, params, config, snapshot)


def loss_and_grads(loss_fn, sample, transform, params, config):
    fresh = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    with Tape() as tape:
        breakdown = loss_fn(sample, transform, fresh, config)
    tape.backward(breakdown.total)
    return breakdown.to_floats(), {k: p.grad for k, p in fresh.items()}


def assert_close(a, b, what):
    worst = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert worst <= TOL, f"{what}: {worst:.3e}"


class TestTwoViewLoss:
    @pytest.mark.parametrize("name", list(CASES))
    def test_loss_terms_and_every_gradient_match(self, name):
        config = CASES[name]
        params = vit.init_params(config.vit, np.random.default_rng(3))
        for step, transform in enumerate(config.augmentations):
            sample = sample_for(config.vit, 10 + step)
            floats, grads = loss_and_grads(one_sample_loss, sample, transform, params, config)
            ref_floats, ref_grads = loss_and_grads(reference_two_view_loss, sample, transform,
                                                   params, config)
            for key, value in ref_floats.items():
                assert abs(floats[key] - value) <= TOL, f"{transform} {key}"
            assert grads.keys() == ref_grads.keys()
            for key, g in ref_grads.items():
                assert g is not None and grads[key] is not None, key
                assert_close(grads[key], g, f"{transform} d/d{key}")

    def test_same_grid_views_share_one_forward(self, monkeypatch):
        calls = []
        real = vit.forward
        monkeypatch.setattr(vit, "forward", lambda images, *a: calls.append(
            np.shape(images)) or real(images, *a))
        config = NON_SQUARE
        params = vit.init_params(config.vit, np.random.default_rng(0))
        sample = sample_for(config.vit, 0)
        expected = {"rot90": 2, "rot270": 2, "flipv": 1, "resize:2x2": 2}
        for transform in config.augmentations:
            calls.clear()
            with Tape():
                one_sample_loss(sample, transform, params, config)
            assert len(calls) == expected[str(transform)], transform
            if len(calls) == 1:
                assert calls[0][0] == 2

    def test_divergence_snapshot_keys(self):
        for transform in transforms("flipv,rot90"):
            snapshot = {}
            config = NON_SQUARE
            params = vit.init_params(config.vit, np.random.default_rng(0))
            with Tape():
                one_sample_loss(sample_for(config.vit, 1), transform, params, config, snapshot)
            layers = range(config.vit.num_layers)
            assert set(snapshot) == {"view_a", "view_b",
                                     *(f"attention_{t}_{i}" for t in "ab" for i in layers)}


class TestStackedForward:
    @pytest.mark.parametrize("name", ["consistency", "non_square_pos", "one_head",
                                      "four_heads"])
    def test_logits_attentions_and_adjoints_match_per_view(self, name):
        cfg = CASES[name].vit
        params = vit.init_params(cfg, np.random.default_rng(5))
        frozen = {k: Tensor(p.data, requires_grad=False) for k, p in params.items()}
        rng = np.random.default_rng(6)
        views = np.stack([sample_for(cfg, s).image for s in (1, 2, 3)])
        seed = rng.normal(size=(len(views), cfg.num_classes))
        with Tape() as tape:
            res = vit.forward(views, frozen, cfg)
        tape.backward(res.logits, seed=seed)
        assert res.logits.shape == (len(views), cfg.num_classes)
        for v, image in enumerate(views):
            with Tape() as tape:
                ref = reference_forward(image, frozen, cfg)
            tape.backward(ref.logits, seed=seed[v])
            assert_close(res.logits.data[v], ref.logits.data, f"view {v} logits")
            for rec, ref_rec in zip(res.attentions, ref.attentions, strict=True):
                assert rec.heads.shape == (len(views), cfg.num_heads, cfg.grid.n + 1,
                                           cfg.grid.n + 1)
                assert_close(rec.matrix.data[v], ref_rec.matrix.data, f"view {v} attention")
                assert_close(rec.adjoint[v], ref_rec.adjoint, f"view {v} adjoint")

    @pytest.mark.parametrize("name", ["resize_wide", "four_heads"])
    def test_single_image_has_no_view_axis(self, name):
        cfg = CASES[name].vit
        params = vit.init_params(cfg, np.random.default_rng(7))
        image = sample_for(cfg, 4).image
        with Tape() as tape:
            res = vit.forward(image, params, cfg)
            y = vit.class_logit(res, 1)
        tape.backward(y)
        with Tape() as tape:
            ref = reference_forward(image, params, cfg)
            y_ref = vit.class_logit(ref, 1)
        tape.backward(y_ref)
        assert res.logits.shape == (cfg.num_classes,)
        assert_close(res.logits.data, ref.logits.data, "logits")
        adjoints = vit.attention_adjoints(res)
        for rec, ref_rec, adj in zip(res.attentions, ref.attentions, adjoints, strict=True):
            assert rec.matrix.shape == (cfg.grid.n + 1, cfg.grid.n + 1)
            assert_close(rec.matrix.data, ref_rec.matrix.data, "attention")
            assert_close(adj, ref_rec.adjoint, "adjoint")

    def test_deeper_stack_rejected(self):
        cfg = SMALL
        params = vit.init_params(cfg, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            vit.forward(np.zeros((2, 2, cfg.in_channels, 6, 8)), params, cfg)


class TestGradCheckThroughTwoViewLoss:
    """Central differences through the training loss, on both paths."""

    @pytest.mark.parametrize("transform", ["flipv", "rot90", "resize:2x2"])
    def test_loss_gradient(self, transform):
        config = replace(NON_SQUARE, weights=LossWeights(alpha=2.0, beta=1.0, distance="l2"))
        params = vit.init_params(config.vit, np.random.default_rng(8))
        sample = sample_for(config.vit, 9)
        transform = SpatialTransform.parse(transform)
        for name in ("blocks.0.attn.wq", "blocks.2.mlp.w1", "cls_token"):
            def f(probe, _name=name):
                patched = dict(params)
                patched[_name] = probe
                return one_sample_loss(sample, transform, patched, config).total

            err = ad.grad_check(f, Tensor(params[name].data.copy()), step=1e-5,
                                max_coords=12, rng=np.random.default_rng(0))
            assert err < 1e-6, f"{transform} {name}: {err:.3e}"


def _batched_cases():
    """(name, input shape, builder) for the ops that take leading axes."""
    rng = np.random.default_rng(30)
    w = rng.normal(size=(4, 3))
    other3 = rng.normal(size=(2, 3, 3))
    other4 = rng.normal(size=(2, 3, 4))
    table = rng.normal(size=(3, 4))
    row = rng.normal(size=(1, 4))
    cls = rng.normal(size=(1, 4))
    batched = rng.normal(size=(2, 4, 5))
    resized = rng.normal(size=(2, 7, 7))
    return [
        ("matmul_batched_left", (2, 3, 4), lambda x: ad.mean(ad.matmul(x, Tensor(w)))),
        ("matmul_shared_weight", (4, 3),
         lambda x: ad.mean(ad.mul(ad.matmul(Tensor(other4), x), Tensor(other3)))),
        ("matmul_batched_both", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.matmul(x, Tensor(batched)), ad.matmul(x, Tensor(batched))))),
        ("matmul_batched_right", (2, 4, 5),
         lambda x: ad.mean(ad.mul(ad.matmul(Tensor(other4), x), ad.matmul(Tensor(other4), x)))),
        ("layer_norm_batched_x", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.layer_norm(x, Tensor(row), Tensor(cls)), Tensor(other4)))),
        ("layer_norm_shared_gain", (1, 4),
         lambda x: ad.mean(ad.mul(ad.layer_norm(Tensor(other4), x, Tensor(cls)), Tensor(other4)))),
        ("layer_norm_shared_bias", (1, 4),
         lambda x: ad.mean(ad.mul(ad.layer_norm(Tensor(other4), Tensor(row), x), Tensor(other4)))),
        ("softmax_rows_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.softmax_rows(x), Tensor(other4)))),
        ("add_shared_table", (3, 4),
         lambda x: ad.mean(ad.mul(ad.add(Tensor(other4), x), Tensor(other4)))),
        ("mul_shared_table", (3, 4),
         lambda x: ad.mean(ad.mul(ad.mul(x, Tensor(other4)), Tensor(other4)))),
        ("concat_broadcast_row", (1, 4),
         lambda x: ad.mean(ad.mul(ad.concat([x, Tensor(other4)], axis=0),
                                  ad.concat([x, Tensor(other4)], axis=0)))),
        ("concat_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.concat([Tensor(np.ones((1, 4))), x], axis=0),
                                  ad.concat([Tensor(cls), ad.mul(x, x)], axis=0)))),
        ("slice2d_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.index(x, np.s_[..., 0:1, 1:]), ad.index(x, np.s_[..., 2:3, 0:3])))),
        ("pick_view", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.index(x, 1), Tensor(table)))),
        ("mean_head_axis", (2, 3, 3, 4),
         lambda x: ad.mean(ad.mul(ad.mean(x, axis=-3), Tensor(other4)))),
        ("permute_rc_per_entry", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.permute_rc(x, [[2, 0, 1], [1, 2, 0]], [[3, 1], [0, 2]]),
                                  Tensor(other4[:, :, :2])))),
        ("sum_rows_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.sum_rows(ad.mul(x, x)), Tensor(other3[:, :, :1])))),
        ("scale_rows_to_sums_batched_x", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.scale_rows_to_sums(ad.add(ad.mul(x, x), 0.5),
                                                        Tensor(other3[:, :, :1])),
                                  Tensor(other4)))),
        ("scale_rows_to_sums_batched_target", (2, 3, 1),
         lambda x: ad.mean(ad.mul(ad.scale_rows_to_sums(Tensor(np.abs(other4) + 0.5), x),
                                  Tensor(other4)))),
        ("resize_attention_batched", (2, 5, 5),
         lambda x: ad.mean(ad.mul(gt.resize_attention(ad.add(ad.mul(x, x), 0.1),
                                                      GridShape(2, 2), GridShape(3, 2)),
                                  Tensor(resized)))),
    ]


class TestBatchedOpGradients:
    @pytest.mark.parametrize("name,shape,builder", _batched_cases(),
                             ids=[n for n, _, _ in _batched_cases()])
    def test_op_gradient(self, name, shape, builder):
        x = np.random.default_rng(zlib.crc32(name.encode())).normal(size=shape)
        err = ad.grad_check(builder, Tensor(x), step=1e-5)
        assert err < 1e-6, f"{name}: finite-difference mismatch {err:.3e}"

    def test_split_then_merge_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 5, 6))
        split = ad._split_heads(x, 3)
        assert split.shape == (2, 3, 5, 2) and split.flags["C_CONTIGUOUS"]
        assert np.array_equal(split[1, 2], x[1, :, 4:6])
        assert np.array_equal(ad._merge_heads(split), x)

    def test_batched_shape_contracts(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 5))))
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4))))
        with pytest.raises(DimensionError):
            ad.concat([Tensor(np.ones((2, 1, 4))), Tensor(np.ones((3, 2, 4)))], axis=0)
        with pytest.raises(DimensionError):
            ad.mean(Tensor(np.ones((2, 3))), axis=2)

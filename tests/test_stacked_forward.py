"""The stacked forward against the per-view reference.

The stacked path runs both views of a sample on a view axis and all
heads on a head axis. Its logits, attention matrices, adjoints, loss
terms and every parameter gradient must agree with reference.forward
(one forward per view, every head its own chain) and the two-view loss
built from two such forwards, to 1e-12.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import DimensionError
from attnreg.gridtransform import GridShape, SpatialTransform
from attnreg.regularizer import LossWeights
from attnreg.vit import ViTConfig

CONSISTENCY, NON_SQUARE, SMALL = ref.CONSISTENCY, ref.NON_SQUARE, ref.SMALL
# the benchmark's two training configurations, and variations of them
RESIZE_WIDE = tr.TrainConfig(vit=ViTConfig(), weights=ref.WEIGHTS,
                             augmentations=ref.transforms("fliph,resize:6x6,resize:10x10"))
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


def one_sample_loss(sample, transform, params, config, snapshot=None):
    """The training loss of a one-sample chunk: its mean is the sample's loss."""
    chunk = [tr._two_views(0, sample, transform, config.vit)]
    return tr._chunk_loss(chunk, params, config, snapshot)


def one_sample_sums(sample, transform, params, config):
    """one_sample_loss's terms and parameter gradients, as reference.sample_sums
    returns them."""
    params = ref.fresh(params)
    with Tape() as tape:
        breakdown = one_sample_loss(sample, transform, params, config)
    tape.backward(breakdown.total)
    return breakdown.to_floats(), {k: p.grad for k, p in params.items()}


class TestTwoViewLoss:
    @pytest.mark.parametrize("name", list(CASES))
    def test_loss_terms_and_every_gradient_match(self, name):
        config = CASES[name]
        params = vit.init_params(config.vit, np.random.default_rng(3))
        for step, transform in enumerate(config.augmentations):
            sample = ref.sample_for(config.vit, 10 + step)
            floats, grads = one_sample_sums(sample, transform, params, config)
            ref_floats, ref_grads = ref.sample_sums([(sample, transform)], params, config)
            for key, value in ref_floats.items():
                assert abs(floats[key] - value) <= ref.TOL, f"{transform} {key}"
            assert grads.keys() == ref_grads.keys()
            for key, g in ref_grads.items():
                assert g is not None and grads[key] is not None, key
                ref.assert_close(grads[key], g, f"{transform} d/d{key}")

    def test_same_grid_views_share_one_forward(self, monkeypatch):
        calls = []
        real = vit.forward
        monkeypatch.setattr(vit, "forward", lambda images, *a: calls.append(
            np.shape(images)) or real(images, *a))
        config = NON_SQUARE
        params = vit.init_params(config.vit, np.random.default_rng(0))
        sample = ref.sample_for(config.vit, 0)
        expected = {"rot90": 2, "rot270": 2, "flipv": 1, "resize:2x2": 2}
        for transform in config.augmentations:
            calls.clear()
            with Tape():
                one_sample_loss(sample, transform, params, config)
            assert len(calls) == expected[str(transform)], transform
            if len(calls) == 1:
                assert calls[0][0] == 2

    def test_divergence_snapshot_keys(self):
        for transform in ref.transforms("flipv,rot90"):
            snapshot = {}
            config = NON_SQUARE
            params = vit.init_params(config.vit, np.random.default_rng(0))
            with Tape():
                one_sample_loss(ref.sample_for(config.vit, 1), transform, params, config, snapshot)
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
        views = np.stack([ref.sample_for(cfg, s).image for s in (1, 2, 3)])
        seed = rng.normal(size=(len(views), cfg.num_classes))
        with Tape() as tape:
            res = vit.forward(views, frozen, cfg)
        adjoints = vit.attention_adjoints(tape, res, seed)
        assert res.logits.shape == (len(views), cfg.num_classes)
        for v, image in enumerate(views):
            with Tape() as tape:
                expected = ref.forward(image, frozen, cfg)
            ref_adjoints = ref.adjoints(tape, expected.logits, expected, seed[v])
            ref.assert_close(res.logits.data[v], expected.logits.data, f"view {v} logits")
            for rec, ref_rec, adj, ref_adj in zip(res.attentions, expected.attentions,
                                                  adjoints, ref_adjoints, strict=True):
                assert rec.heads.shape == (len(views), cfg.num_heads, cfg.grid.n + 1,
                                           cfg.grid.n + 1)
                ref.assert_close(rec.matrix.data[v], ref_rec.matrix.data, f"view {v} attention")
                ref.assert_close(adj[v], ref_adj, f"view {v} adjoint")

    @pytest.mark.parametrize("name", ["resize_wide", "four_heads"])
    def test_single_image_has_no_view_axis(self, name):
        cfg = CASES[name].vit
        params = vit.init_params(cfg, np.random.default_rng(7))
        image = ref.sample_for(cfg, 4).image
        with Tape() as tape:
            res = vit.forward(image, params, cfg)
        adjoints = vit.attention_adjoints(tape, res, np.eye(cfg.num_classes)[1])
        with Tape() as tape:
            expected = ref.forward(image, params, cfg)
            y_ref = vit.class_logit(expected, 1)
        ref_adjoints = ref.adjoints(tape, y_ref, expected)
        assert res.logits.shape == (cfg.num_classes,)
        ref.assert_close(res.logits.data, expected.logits.data, "logits")
        for rec, ref_rec, adj, ref_adj in zip(res.attentions, expected.attentions, adjoints,
                                              ref_adjoints, strict=True):
            assert rec.matrix.shape == (cfg.grid.n + 1, cfg.grid.n + 1)
            ref.assert_close(rec.matrix.data, ref_rec.matrix.data, "attention")
            ref.assert_close(adj, ref_adj, "adjoint")

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
        sample = ref.sample_for(config.vit, 9)
        transform = SpatialTransform.parse(transform)
        for name in ("blocks.0.attn.wq", "blocks.2.mlp.w1", "cls_token"):
            def f(probe, _name=name):
                patched = dict(params)
                patched[_name] = probe
                return one_sample_loss(sample, transform, patched, config).total

            err = ad.grad_check(f, Tensor(params[name].data.copy()), step=1e-5,
                                max_coords=12, rng=np.random.default_rng(0))
            assert err < 1e-6, f"{transform} {name}: {err:.3e}"


class TestBatchedOpGradients:
    """The head split and the shape contracts of the ops that take
    leading axes; their finite-difference cases are in test_autodiff's
    catalog (_fd_catalog)."""

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

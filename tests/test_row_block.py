"""Row-block adjoints through the last block's softmax, against the dense path.

The last block's attend computes the class row only, so its gradient of
the per-head probabilities is zero outside row 0 and travels as a row
block; softmax_rows' backward maps it to a row block, and the sweep
densifies a block before any other backward, any addition, any stored
``.grad`` and any ``wrt`` return. The oracle is the dense path: attend
as it was before row blocks, kept below, which fills the rows it did not
compute with zeros, so softmax_rows' backward runs on every row. Its
outputs must match bit for bit (np.array_equal), and no row block may
reach a caller.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.regularizer import LossWeights


def dense_attend(probs, h, wv, bv, rows=None):
    """attend with a dense probabilities' adjoint: zeros on the query rows
    not computed."""
    probs, h, wv, bv = (ad._as_tensor(t) for t in (probs, h, wv, bv))
    m = h.shape[-2]
    rows = m if rows is None else rows
    heads = probs.shape[-3]
    pd = probs.data[..., :rows, :]
    v = ad._split_heads(ad._affine(h.data, wv.data, bv.data), heads)

    def bw(g):
        gpv = ad._split_heads(g, heads)
        gp = None
        if probs.requires_grad:
            gp = gpv @ np.swapaxes(v, -1, -2)
            if rows < m:
                full = np.zeros(probs.shape)
                full[..., :rows, :] = gp
                gp = full
        if not (h.requires_grad or wv.requires_grad or bv.requires_grad):
            return gp, None, None, None
        return (gp, *ad._affine_grads(ad._merge_heads(np.swapaxes(pd, -1, -2) @ gpv),
                                      h, wv, bv))

    return ad._apply("attend", (probs, h, wv, bv), ad._merge_heads(pd @ v), bw)


def dense_softmax_grad(g, y):
    """softmax_rows' backward on a dense adjoint, every row."""
    gx = g * y
    dot = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gx)
    gx *= y
    return gx


@pytest.fixture
def block_rows(monkeypatch):
    """The row counts softmax_rows' backward ran on, in call order."""
    seen = []
    real = ad._softmax_grad

    def spy(g, y):
        seen.append(g.shape[-2])
        return real(g, y)

    monkeypatch.setattr(ad, "_softmax_grad", spy)
    return seen


def both_paths(monkeypatch, run):
    """run() with row blocks, then with the dense attend."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(ad, "attend", dense_attend)
        dense = run()
    return fast, dense


def assert_bits_equal(got, expected, what):
    assert type(got) is np.ndarray, f"{what}: {type(got).__name__}"
    assert got.shape == expected.shape, what
    assert got.tobytes() == expected.tobytes(), what


class TestSoftmaxBlock:
    M = 6  # n + 1 rows

    @pytest.mark.parametrize("r", [1, 2, M - 1])
    @pytest.mark.parametrize("lead", [(), (3, 2)], ids=["2d", "stacked"])
    def test_block_backward_is_the_dense_backward(self, r, lead):
        rng = np.random.default_rng(r)
        shape = lead + (self.M, self.M)
        with Tape() as tape:
            y = ad.softmax_rows(Tensor(rng.normal(size=shape), requires_grad=True))
        rows = rng.normal(size=lead + (r, self.M))
        g = np.zeros(shape)
        g[..., :r, :] = rows
        expected = dense_softmax_grad(g, y.data)
        bw = tape.nodes[-1].backward
        (block,) = bw(ad._RowBlock(rows, shape))
        assert type(block) is ad._RowBlock and block.shape == shape
        assert block.rows.shape == lead + (r, self.M)
        assert np.array_equal(block.dense(), expected)
        (dense,) = bw(g)
        assert np.array_equal(dense, expected)

    def test_sweep_returns_the_dense_adjoint(self):
        """A block reaching a leaf through softmax_rows is stored dense."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 2, self.M, self.M)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, self.M, 4)))
        wv, bv = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(1, 4)))
        weight = Tensor(rng.normal(size=(2, 2, 4)))
        grads = []
        for attend in (ad.attend, dense_attend):
            x.zero_grad()
            with Tape() as tape:
                loss = ad.mean(ad.mul(attend(ad.softmax_rows(x), h, wv, bv, rows=2), weight))
            tape.backward(loss)
            grads.append(x.grad)
        assert_bits_equal(*grads, "d/dx")


class TestSweepsMatchTheDensePath:
    @pytest.mark.parametrize("model", list(ref.MODELS))
    def test_attention_adjoints(self, monkeypatch, block_rows, model):
        cfg = ref.MODELS[model]
        params = ref.frozen(vit.init_params(cfg, np.random.default_rng(1)))
        images = ref.images_for(cfg, 3)
        seed = np.zeros((3, cfg.num_classes))
        seed[np.arange(3), [0, 2, 1]] = 1.0

        def run():
            with Tape() as tape:
                res = vit.forward(images, params, cfg)
            return (vit.attention_adjoints(tape, res, seed),
                    vit.attention_adjoints(tape, res, seed, row=0))

        fast, dense = both_paths(monkeypatch, run)
        # the fast path ran the last softmax backward on the class row
        # only (the earlier layers' are dense in both paths)
        assert 1 in block_rows
        for got, expected in zip(fast, dense, strict=True):
            for layer, (g, e) in enumerate(zip(got, expected, strict=True)):
                assert_bits_equal(g, e, f"layer {layer}")

    @pytest.mark.parametrize("model", list(ref.MODELS))
    def test_adjoint_rows(self, monkeypatch, model):
        cfg = ref.MODELS[model]
        params = vit.init_params(cfg, np.random.default_rng(2))
        images = ref.images_for(cfg, 2, seed=3)
        classes = np.array([[0, 2], [1, 2]])
        fast, dense = both_paths(
            monkeypatch, lambda: tr.adjoint_rows(images, classes, params, cfg))
        for got, expected, what in zip(fast, dense, ("rows", "blocks"), strict=True):
            assert_bits_equal(got, expected, what)


class TestChunksMatchTheDensePath:
    """Chunks where no loss reads the last layer's attention: its
    probabilities' adjoint is the class-row block alone."""

    @pytest.mark.parametrize("config", [
        replace(ref.CONSISTENCY, weights=LossWeights(alpha=0.0, beta=0.0)),
        replace(ref.CONSISTENCY, loss_layers=(0, 1)),
    ], ids=["no_consistency", "first_layer_loss"])
    def test_parameter_grads(self, monkeypatch, block_rows, config):
        init = vit.init_params(config.vit, np.random.default_rng(4))
        transforms = ref.transforms("fliph,rot90,flipv,rot270")
        pairs = [tr._two_views(step, ref.sample_for(config.vit, 10 + step), t, config.vit)
                 for step, t in enumerate(transforms)]

        def run():
            params = ref.fresh(init)
            (chunk,) = tr._chunks(pairs, config.vit)
            sums = tr._chunk_backward(chunk, params, config)
            return sums, {k: p.grad for k, p in params.items()}

        (sums, grads), (dense_sums, dense_grads) = both_paths(monkeypatch, run)
        assert 1 in block_rows
        assert sums == dense_sums
        assert grads.keys() == dense_grads.keys()
        for name, g in dense_grads.items():
            assert_bits_equal(grads[name], g, f"d/d{name}")


class TestNoBlockEscapes:
    def test_wrt_returns_are_dense(self):
        cfg = ref.C07
        params = ref.frozen(vit.init_params(cfg, np.random.default_rng(1)))
        with Tape() as tape:
            res = vit.forward(ref.images_for(cfg, 2), params, cfg)
        seed = np.zeros(res.logits.shape)
        seed[:, 1] = 1.0
        heads = [rec.heads for rec in res.attentions]
        for g, t in zip(tape.backward(res.logits, seed=seed, wrt=heads), heads, strict=True):
            assert type(g) is np.ndarray and g.shape == t.shape
        # the last layer's adjoint is zero outside the class row
        assert np.any(g[..., 0, :]) and not np.any(g[..., 1:, :])

    def test_stored_grads_are_dense(self):
        config = replace(ref.CONSISTENCY, weights=LossWeights(alpha=0.0, beta=0.0))
        params = ref.fresh(vit.init_params(config.vit, np.random.default_rng(5)))
        pairs = [tr._two_views(0, ref.sample_for(config.vit, 6), ref.transforms("fliph")[0],
                               config.vit)]
        (chunk,) = tr._chunks(pairs, config.vit)
        tr._chunk_backward(chunk, params, config)
        for name, p in params.items():
            assert type(p.grad) is np.ndarray and p.grad.shape == p.shape, name

    @pytest.mark.parametrize("also_mean", [False, True], ids=["attend_only", "added"])
    def test_a_leaf_fed_by_attend(self, also_mean):
        """The block is stored dense, and densified before it is added
        to the other consumer's adjoint."""
        rng = np.random.default_rng(7)
        probs = Tensor(rng.random((2, 2, 5, 5)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        wv, bv = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(1, 4)))
        weight = Tensor(rng.normal(size=(2, 1, 4)))
        grads = []
        for attend in (ad.attend, dense_attend):
            probs.zero_grad()
            with Tape() as tape:
                loss = ad.mean(ad.mul(attend(probs, h, wv, bv, rows=1), weight))
                if also_mean:
                    loss = ad.add(loss, ad.mean(ad.mul(probs, probs)))
            tape.backward(loss)
            grads.append(probs.grad)
        assert_bits_equal(*grads, "d/dprobs")

    def test_another_op_and_wrt_read_it_dense(self):
        """A block reaching an op other than softmax_rows, or a wrt
        tensor, is densified first."""
        rng = np.random.default_rng(8)
        x = Tensor(rng.random((2, 5, 5)), requires_grad=True)
        h = Tensor(rng.normal(size=(5, 4)))
        wv, bv = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(1, 4)))
        results = []
        for attend in (ad.attend, dense_attend):
            x.zero_grad()
            with Tape() as tape:
                probs = ad.mul(x, 2.0)
                loss = ad.mean(attend(probs, h, wv, bv, rows=2))
            (g,) = tape.backward(loss, wrt=[probs])
            results.append((g, x.grad))
        (g, gx), (dense_g, dense_gx) = results
        assert_bits_equal(g, dense_g, "d/dprobs")
        assert_bits_equal(gx, dense_gx, "d/dx")

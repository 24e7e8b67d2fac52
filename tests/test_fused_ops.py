"""The fused transformer ops: linear, attention_scores and attend.

Each op is checked three ways: central differences with respect to every
input, on a single (m, d) token matrix and on a (V, m, d) stack, with one
and with two heads; its value and every input gradient against the chain
of primitive ops it fuses (reference.affine, head_scores and
head_attend), to 1e-12; and its shape contract. A pin on the node mix of the
forward built from them closes the file.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import DimensionError
from attnreg.gridtransform import FLIP_H

M, D, WIDTH = 3, 4, 4  # tokens, token width, projection width
SCALE = 0.7
LEADS = {"2d": (), "stacked": (2,)}


def operands(op, lead, heads, seed=0):
    """Input arrays of `op` in call order (the probabilities of attend are
    row-stochastic)."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=lead + (M, D))
    w = lambda: rng.normal(size=(D, WIDTH))  # noqa: E731
    b = lambda: rng.normal(size=(1, WIDTH))  # noqa: E731
    if op == "linear":
        return [h, w(), b()]
    if op == "attention_scores":
        return [h, w(), b(), w(), b()]
    logits = rng.normal(size=lead + (heads, M, M))
    probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    return [probs, h, w(), b()]


def fused(op, heads):
    if op == "linear":
        return ad.linear
    if op == "attention_scores":
        return lambda h, wq, bq, wk, bk: ad.attention_scores(h, wq, bq, wk, bk, heads, SCALE)
    return ad.attend


def chained(op, heads):
    """The primitive chain each fused op replaces. attention_scores' chain
    returns its per-head matrices one below the other, (..., heads * m, m),
    the fused op's (..., heads, m, m) in row-major order."""
    if op == "linear":
        return ref.affine
    if op == "attention_scores":
        return lambda h, wq, bq, wk, bk: ad.concat(
            ref.head_scores(h, wq, bq, wk, bk, heads, SCALE), axis=0)
    return lambda probs, h, wv, bv: ref.head_attend(
        [ad.index(probs, np.s_[..., j, :, :]) for j in range(heads)], h, wv, bv)


CASES = [(op, lead, heads, i)
         for op, arity in (("linear", 3), ("attention_scores", 5), ("attend", 4))
         for lead in LEADS
         for heads in ((1,) if op == "linear" else (1, 2))
         for i in range(arity)]


def case_id(case):
    op, lead, heads, i = case
    return f"{op}-{lead}-{heads}h-input{i}"


class TestGradCheck:
    @pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
    def test_input_gradient(self, case):
        op, lead, heads, i = case
        arrays = operands(op, LEADS[lead], heads)
        fn = fused(op, heads)
        out_shape = fn(*map(Tensor, arrays)).shape
        weight = Tensor(np.random.default_rng(1).normal(size=out_shape))

        def f(probe):
            inputs = [probe if j == i else Tensor(a) for j, a in enumerate(arrays)]
            return ad.mean(ad.mul(fn(*inputs), weight))

        err = ad.grad_check(f, Tensor(arrays[i]), step=1e-5)
        assert err < 1e-6, f"{case_id(case)}: finite-difference mismatch {err:.3e}"


ORACLE_CASES = [(op, lead, heads) for op in ("linear", "attention_scores", "attend")
                for lead in LEADS for heads in ((1,) if op == "linear" else (1, 2, 4))]


class TestMatchesPrimitiveChain:
    @pytest.mark.parametrize("op,lead,heads", ORACLE_CASES,
                             ids=[f"{o}-{lead}-{h}h" for o, lead, h in ORACLE_CASES])
    def test_value_and_every_gradient(self, op, lead, heads):
        arrays = operands(op, LEADS[lead], heads, seed=2)
        results = []
        for build in (fused(op, heads), chained(op, heads)):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape() as tape:
                out = build(*inputs)
            seed = np.random.default_rng(3).normal(size=out.size).reshape(out.shape)
            tape.backward(out, seed=seed)
            results.append((out.data, [t.grad for t in inputs]))
        (value, grads), (ref_value, ref_grads) = results
        if op == "attention_scores":  # the chain stacks its heads along the rows
            assert ref_value.shape == value.shape[:-3] + (heads * M, M)
            ref_value = ref_value.reshape(value.shape)
        assert value.shape == ref_value.shape
        assert np.max(np.abs(value - ref_value)) <= 1e-12
        for i, (g, ref) in enumerate(zip(grads, ref_grads, strict=True)):
            assert g.shape == ref.shape and np.max(np.abs(g - ref)) <= 1e-12, f"input {i}"


class TestShapeContracts:
    def test_linear(self):
        x, w, b = (Tensor(a) for a in operands("linear", (2,), 1))
        for bad in ((x, Tensor(np.ones((D + 1, WIDTH))), b),    # inner widths disagree
                    (x, w, Tensor(np.ones((WIDTH,)))),           # bias not (1, n)
                    (x, w, Tensor(np.ones((1, WIDTH + 1)))),
                    (x, Tensor(np.ones((2, D, WIDTH))), b),      # batched weight
                    (Tensor(np.ones(D)), w, b)):                 # x not a matrix
            with pytest.raises(DimensionError):
                ad.linear(*bad)

    def test_attention_scores(self):
        h, wq, bq, wk, bk = (Tensor(a) for a in operands("attention_scores", (2,), 2))
        with pytest.raises(DimensionError):
            ad.attention_scores(h, Tensor(np.ones((D + 1, WIDTH))), bq, wk, bk, 2, SCALE)
        with pytest.raises(DimensionError):
            ad.attention_scores(h, wq, bq, wk, Tensor(np.ones((1, WIDTH + 1))), 2, SCALE)
        with pytest.raises(DimensionError):  # q and k widths differ
            ad.attention_scores(h, wq, bq, Tensor(np.ones((D, 2))), Tensor(np.ones((1, 2))),
                                2, SCALE)
        for heads in (3, 0):  # does not divide the width, or no head at all
            with pytest.raises(DimensionError):
                ad.attention_scores(h, wq, bq, wk, bk, heads, SCALE)

    def test_attend(self):
        probs, h, wv, bv = (Tensor(a) for a in operands("attend", (2,), 2))
        with pytest.raises(DimensionError):
            ad.attend(probs, h, Tensor(np.ones((D + 1, WIDTH))), bv)
        with pytest.raises(DimensionError):
            ad.attend(probs, h, wv, Tensor(np.ones((1, 2))))
        with pytest.raises(DimensionError):  # 3 heads do not divide the width 4
            ad.attend(Tensor(np.ones((2, 3, M, M))), h, wv, bv)
        with pytest.raises(DimensionError):  # stack axes disagree
            ad.attend(Tensor(np.ones((3, 2, M, M))), h, wv, bv)
        with pytest.raises(DimensionError):  # token counts disagree
            ad.attend(Tensor(np.ones((2, 2, M + 1, M + 1))), h, wv, bv)
        with pytest.raises(DimensionError):  # no head axis
            ad.attend(Tensor(np.ones((2, M, M))), h, wv, bv)


# the criterion-07 model
C07 = tr.TrainConfig(vit=ref.C07, weights=ref.WEIGHTS, augmentations=(FLIP_H,))


class TestNodeMix:
    """Tape nodes are the unit of dispatch cost; these counts pin it."""

    @staticmethod
    def chunk_loss_ops(config):
        """The ops one two-view sample's chunk loss records."""
        cfg = config.vit
        params = vit.init_params(cfg, np.random.default_rng(0))
        image = np.random.default_rng(1).random((3, 32, 32))
        sample = sd.SyntheticSample(image=image, labels=np.array([1.0, 0.0, 1.0]),
                                    mask=np.zeros((32, 32), dtype=np.int64), seed=(0, 0))
        with Tape() as tape:
            tr._chunk_loss([tr._two_views(0, sample, FLIP_H, cfg)], params, config)
        return [n.op for n in tape.nodes]

    def test_stacked_training_sample(self):
        cfg = C07.vit
        ops = self.chunk_loss_ops(C07)
        assert len(ops) == ref.chunk_nodes(cfg, scaled=False)
        for gone in ("matmul", "add_bias", "split_heads", "merge_heads", "transpose",
                     "permute_rc", "mean_distance"):
            assert gone not in ops
        # both consistency terms of every loss layer, inversions included
        assert ops.count("view_consistency") == 1
        assert ops.count("attention_scores") == ops.count("attend") == cfg.num_layers

    @pytest.mark.parametrize("distance", ad.DISTANCES)
    def test_every_distance_is_one_node_per_block(self, distance):
        ops = self.chunk_loss_ops(replace(C07, weights=replace(C07.weights, distance=distance)))
        assert len(ops) == ref.chunk_nodes(C07.vit, scaled=False)
        # the activation and affinity blocks of every loss layer: one node
        assert ops.count("view_consistency") == 1

    def test_eval_forward(self):
        cfg = C07.vit
        params = {k: Tensor(p.data) for k, p in
                  vit.init_params(cfg, np.random.default_rng(0)).items()}
        with Tape() as tape:
            vit.forward(np.random.default_rng(2).random((3, 32, 32)), params, cfg)
        assert len(tape.nodes) == ref.forward_nodes(cfg)

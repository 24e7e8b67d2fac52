"""Chunked two-view training against the per-sample loop it replaced.

Oracle: reference.sample_sums and reference.train, every sample on its
own tape -- one reference forward per view, each layer's 2-d attention
inverted by the sample's own transform, the losses of one sample -- and
the loss terms and gradients added up over the samples. A chunk of k
samples records one forward of its 2k views (or one per view grid) and
one backward; k times its mean loss terms must match the per-sample
sums, and its parameter gradients the summed per-sample gradients, to
1e-12.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg import regularizer as reg
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError, NumericalError
from attnreg.gridtransform import GridShape, SpatialTransform
from attnreg.regularizer import LossWeights
from attnreg.vit import ViTConfig

# the criterion-07 model, and a small non-square model with positional rows
CONSISTENCY, NON_SQUARE = ref.CONSISTENCY, ref.NON_SQUARE

# (config, transforms of one chunk, cycled over its samples)
CASES = {
    "mixed_flips_and_rotations": (CONSISTENCY, "fliph,rot90,flipv,rot270,rot180"),
    "rot90_non_square": (NON_SQUARE, "rot90,rot270"),
    "same_grid_with_pos": (NON_SQUARE, "flipv,fliph,rot180"),
    "resize": (NON_SQUARE, "resize:2x2"),
    "resize_up": (NON_SQUARE, "resize:4x5"),
    "resize_same_grid": (NON_SQUARE, "resize:3x4"),
    "loss_layers": (replace(NON_SQUARE, loss_layers=(1, 3)), "rot90,rot270"),
    "loss_layer_1": (replace(CONSISTENCY, loss_layers=(1, 2)), "rot90,fliph"),
    "l2": (replace(NON_SQUARE, weights=LossWeights(alpha=1.0, beta=3.0, distance="l2")),
           "flipv,rot180"),
    "smooth_l1": (replace(CONSISTENCY, weights=LossWeights(alpha=3.0, beta=1.5,
                                                           distance="smooth_l1")),
                  "rot270,fliph"),
    "act_only": (replace(NON_SQUARE, weights=LossWeights(alpha=2.0, beta=0.0)), "resize:2x2"),
    "classification_only": (replace(NON_SQUARE, weights=LossWeights(alpha=0.0, beta=0.0)),
                            "rot90,rot270"),
}


def chunk_sums(pairs, params, config):
    """The same pairs through _chunks and one _chunk_backward per chunk."""
    params = ref.fresh(params)
    sums = dict.fromkeys(("l_cls", "l_act", "l_aff", "total"), 0.0)
    views = [tr._two_views(step, s, t, config.vit) for step, (s, t) in enumerate(pairs)]
    for chunk in tr._chunks(views, config.vit):
        for key, value in tr._chunk_backward(chunk, params, config).items():
            sums[key] = sums.get(key, 0.0) + value
    return sums, {k: p.grad for k, p in params.items()}


def assert_sums_match(got, expected):
    (sums, grads), (ref_sums, ref_grads) = got, expected
    for key, value in ref_sums.items():
        assert abs(sums[key] - value) <= ref.TOL, key
    assert grads.keys() == ref_grads.keys()
    for name, g in ref_grads.items():
        assert grads[name] is not None and g is not None, name
        ref.assert_close(grads[name], g, f"d/d{name}")


def budget_for(cfg, pairs):
    """A budget that fits `pairs` same-grid pairs of the model's images."""
    return pairs * 2 * tr._tape_bytes_per_image(cfg, cfg.grid)


class TestChunkAgainstPerSampleLoop:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(CASES))
    def test_one_chunk(self, monkeypatch, name, k):
        config, text = CASES[name]
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", 10 * budget_for(config.vit, k))
        params = vit.init_params(config.vit, np.random.default_rng(3))
        cycle = ref.transforms(text)
        pairs = [(ref.sample_for(config.vit, 20 + j), cycle[j % len(cycle)]) for j in range(k)]
        views = [tr._two_views(j, s, t, config.vit) for j, (s, t) in enumerate(pairs)]
        assert [len(c) for c in tr._chunks(views, config.vit)] == [k]
        assert_sums_match(chunk_sums(pairs, params, config),
                          ref.sample_sums(pairs, params, config))

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 4])
    @pytest.mark.parametrize("config", [CONSISTENCY, NON_SQUARE], ids=["c07", "non_square"])
    def test_batch_of_chunks(self, monkeypatch, config, per_chunk):
        """A batch whose groups are cut into several chunks, with chunk
        boundaries between samples of one group."""
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, per_chunk))
        params = vit.init_params(config.vit, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        augs = config.augmentations
        pairs = [(ref.sample_for(config.vit, 40 + j), augs[int(rng.integers(len(augs)))])
                 for j in range(9)]
        assert_sums_match(chunk_sums(pairs, params, config),
                          ref.sample_sums(pairs, params, config))


class TestTraining:
    @pytest.mark.parametrize("per_chunk", [1, 3, 4])
    def test_train_matches_per_sample_loop(self, monkeypatch, per_chunk):
        config = replace(NON_SQUARE, epochs=2, batch_size=5, learning_rate=0.05, momentum=0.5)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, per_chunk))
        samples = [ref.sample_for(config.vit, 60 + j) for j in range(10)]
        result = tr.train(config, samples)
        params, totals, norms, residuals = ref.train(config, samples)
        for name, p in params.items():
            ref.assert_close(result.params[name].data, p.data, name)
        for record, total, epoch_norms, epoch_residuals in zip(result.log, totals, norms,
                                                               residuals, strict=True):
            assert abs(record["total"] - total) <= ref.TOL
            assert {k for k in record if "residual" in k} == epoch_residuals.keys()
            for key, value in epoch_residuals.items():
                assert abs(record[key] - value) <= ref.TOL, key
            assert abs(record["grad_norm_mean"] - np.mean(epoch_norms)) <= ref.TOL
            assert abs(record["grad_norm_max"] - max(epoch_norms)) <= ref.TOL
            assert record["clipped_steps"] == sum(n > config.clip_norm for n in epoch_norms)

    @staticmethod
    def count_calls(monkeypatch, config, samples):
        """Train `config` on `samples`; the images each vit.forward took and
        the nodes each Tape.backward swept."""
        forwards, backwards = [], []
        real_forward, real_backward = vit.forward, Tape.backward
        monkeypatch.setattr(vit, "forward", lambda images, *a: forwards.append(
            np.shape(images)[0]) or real_forward(images, *a))
        monkeypatch.setattr(Tape, "backward", lambda self, loss, *a: backwards.append(
            len(self.nodes)) or real_backward(self, loss, *a))
        tr.train(config, [ref.sample_for(config.vit, j) for j in range(samples)])
        return forwards, backwards

    def test_one_forward_and_one_backward_per_chunk(self, monkeypatch):
        config = replace(CONSISTENCY, epochs=1, batch_size=8)
        # budget_for also runs the measuring forward of the model's grid,
        # the only grid here, before vit.forward is counted
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, 3))
        forwards, backwards = self.count_calls(monkeypatch, config, 8)
        assert forwards == [6, 6, 4]   # chunks of 3, 3 and 2 samples, two views each
        assert len(backwards) == 3
        # one recorded loss per chunk, whatever its size
        assert backwards == [ref.chunk_nodes(config.vit)] * 3

    def test_one_tape_per_criterion_07_batch(self, monkeypatch):
        """At the package's own budget, a criterion-07 batch of 8 pairs
        drawn from all five permutation transforms is one chunk: one
        forward of its 16 views and one backward per batch."""
        config = replace(CONSISTENCY, epochs=1, batch_size=8)
        assert {str(t) for t in config.augmentations} == {"fliph", "flipv", "rot90",
                                                          "rot180", "rot270"}
        tr._tape_bytes_per_image(config.vit, config.vit.grid)  # the measuring forward
        forwards, backwards = self.count_calls(monkeypatch, config, 16)
        assert forwards == [16, 16]
        assert backwards == [ref.chunk_nodes(config.vit)] * 2

    def test_chunk_size_follows_the_budget(self):
        """The criterion-07 model fits 8 samples, the default model 1."""
        c07 = CONSISTENCY.vit
        default = ViTConfig()
        for cfg, k in ((c07, 8), (default, 1)):
            pairs = [tr._two_views(j, ref.sample_for(cfg, j), gt.FLIP_H, cfg) for j in range(8)]
            sizes = [len(c) for c in tr._chunks(pairs, cfg)]
            assert max(sizes) == k and sum(sizes) == 8

    def test_chunks_group_by_view_grid_in_order(self, monkeypatch):
        config = NON_SQUARE
        # two rot90 pairs: a view on the transposed grid also resamples the
        # positional rows
        grid, turned = config.vit.grid, GridShape(config.vit.grid.w, config.vit.grid.h)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", 2 * sum(
            tr._tape_bytes_per_image(config.vit, g) for g in (grid, turned)))
        order = ref.transforms("rot90,flipv,resize:2x2,rot270,flipv,rot90,flipv,resize:2x2,"
                               "rot270,resize:4x5")
        pairs = [tr._two_views(j, ref.sample_for(config.vit, j), t, config.vit)
                 for j, t in enumerate(order)]
        chunks = list(tr._chunks(pairs, config.vit))
        steps = [[p.step for p in chunk] for chunk in chunks]
        # groups in order of first appearance, each cut into runs of the
        # budget; a view on a larger grid takes more of it
        assert steps == [[0, 3], [5, 8], [1, 4], [6], [2, 7], [9]]


class TestDivergence:
    def test_failing_chunk_dumps_every_sample(self, tmp_path, monkeypatch):
        config = replace(CONSISTENCY, augmentations=ref.transforms("fliph,rot90"), epochs=1,
                         batch_size=6)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, 3))
        samples = [ref.sample_for(config.vit, j) for j in range(6)]
        calls = []
        real = reg.total_loss

        def total_loss(*args):
            calls.append(1)
            if len(calls) == 2:  # the second chunk of the batch
                raise NumericalError("bce_with_logits: result contains NaN or Inf")
            return real(*args)

        monkeypatch.setattr(reg, "total_loss", total_loss)
        with pytest.raises(NumericalError) as info:
            tr.train(config, samples, out_dir=tmp_path)
        # replay the loop's draws: the batch order, then one transform per step
        loop_rng = np.random.default_rng([config.seed, 1])
        order = loop_rng.permutation(6)
        drawn = [config.augmentations[int(loop_rng.integers(2))] for _ in range(6)]
        pairs = [tr._two_views(j, samples[int(i)], t, config.vit)
                 for j, (i, t) in enumerate(zip(order, drawn))]
        chunk = list(tr._chunks(pairs, config.vit))[1]
        steps = [p.step for p in chunk]
        message = str(info.value)
        assert f"epoch 0 in the chunk of batch steps {', '.join(map(str, steps))}" in message
        dump = tmp_path / f"divergence_epoch0_step{'-'.join(map(str, steps))}.npz"
        assert str(dump) in message
        payload = np.load(dump)
        layers = config.vit.num_layers
        assert set(payload.files) == {"labels", "mask", "view_a", "view_b",
                                      *(f"attention_{t}_{i}" for t in "ab" for i in range(layers))}
        m = config.vit.grid.n + 1
        for j, p in enumerate(chunk):
            assert np.array_equal(payload["view_a"][j], p.sample.image)
            assert np.array_equal(payload["view_b"][j], p.view)
            assert np.array_equal(payload["labels"][j], p.sample.labels)
            assert np.array_equal(payload["mask"][j], p.sample.mask)
        for i in range(layers):
            for t in "ab":
                attention = payload[f"attention_{t}_{i}"]
                assert attention.shape == (len(chunk), m, m)
                np.testing.assert_allclose(attention.sum(axis=-1), 1.0, atol=1e-12)


class TestBatchedInversion:
    def test_stack_inverts_each_entry_by_its_transform(self):
        grid = GridShape(3, 3)
        rng = np.random.default_rng(7)
        chosen = ref.transforms("fliph,rot90,identity,rot270")
        a = rng.random((len(chosen), grid.n + 1, grid.n + 1))
        stacked = ad.permute_rc(Tensor(a), gt.inverse_token_indices(chosen, grid)).data
        for j, t in enumerate(chosen):
            assert np.array_equal(stacked[j], gt.invert_attention(a[j], t, grid).data)
            oracle = gt.invert_attention_kronecker(a[j, 1:, 1:], t, grid)
            np.testing.assert_allclose(stacked[j, 1:, 1:], oracle, rtol=0, atol=1e-12)

    def test_one_gather_per_stack(self):
        """A stack inverts in one gather: by one transform for every entry,
        or by an index row per entry."""
        grid = GridShape(2, 3)
        a = Tensor(np.random.default_rng(8).random((3, 7, 7)), requires_grad=True)
        with Tape() as tape:
            gt.invert_attention(a, gt.ROT180, grid)
            ad.permute_rc(a, gt.inverse_token_indices(ref.transforms("fliph,flipv,rot180"), grid))
        assert [n.op for n in tape.nodes] == ["permute_rc"] * 2

    def test_resize_stack_matches_each_entry(self):
        src, dst = GridShape(2, 3), GridShape(3, 3)
        a = np.random.default_rng(9).random((3, src.n + 1, src.n + 1)) + 0.05
        resize = SpatialTransform.parse("resize:2x3")
        stacked = gt.invert_attention(a, resize, dst).data
        for j in range(3):
            np.testing.assert_allclose(stacked[j], gt.resize_attention(a[j], src, dst).data,
                                       rtol=0, atol=1e-15)

    def test_stack_contracts(self):
        """An inversion takes one transform; consistency_terms refuses a
        resize mixed with another transform, or in one stacked layout."""
        grid = GridShape(2, 2)
        a = Tensor(np.random.default_rng(10).random((2, 5, 5)))
        for invert in (gt.invert_attention, gt.invert_attention_fast):
            with pytest.raises(ContractError, match="one SpatialTransform"):
                invert(a, ref.transforms("fliph,flipv"), grid)
        for text in ("fliph,resize:2x2", "resize:2x2,fliph"):
            with pytest.raises(ContractError, match="every sample's transform"):
                reg.consistency_terms([a], [a], ref.transforms(text), grid, "l1")
        with pytest.raises(ContractError, match="every sample's transform"):
            reg.consistency_terms([a], None, ref.transforms("resize:2x2"), grid, "l1")

    def test_batched_gather_reindexes_each_entry(self):
        rng = np.random.default_rng(11)
        index = np.stack([rng.permutation(5)[:4] for _ in range(3)])
        x = rng.normal(size=(3, 5, 5))
        out = ad.permute_rc(Tensor(x), index).data
        for j in range(3):
            assert np.array_equal(out[j], x[j][np.ix_(index[j], index[j])])

    def test_batched_gather_contracts(self):
        x = Tensor(np.ones((2, 3, 3)))
        with pytest.raises(DimensionError):  # one index for the whole stack
            ad.permute_rc(x, [0, 1, 2])
        with pytest.raises(ContractError):  # a repeat in the second entry only
            ad.permute_rc(x, [[0, 1, 2], [0, 2, 2]])
        with pytest.raises(DimensionError):  # not square
            ad.permute_rc(Tensor(np.ones((2, 3, 4))), [[0, 1, 2], [0, 1, 2]])

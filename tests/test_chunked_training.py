"""Chunked two-view training against the per-sample loop it replaced.

Oracle: every sample on its own tape -- one forward per view, without a
view axis, each layer's 2-d attention inverted by the sample's own
transform, the losses of one sample -- and the loss terms and gradients
added up over the samples. A chunk of k samples records one forward of
its 2k views (or one per view grid) and one backward; k times its mean
loss terms must match the per-sample sums, and its parameter gradients
the summed per-sample gradients, to 1e-12.
"""

from dataclasses import replace

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg import regularizer as reg
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError, NumericalError
from attnreg.gridtransform import GridShape, SpatialTransform
from attnreg.regularizer import LossWeights
from attnreg.vit import ViTConfig

TOL = 1e-12


def transforms(text):
    return tuple(SpatialTransform.parse(p) for p in text.split(","))


_WEIGHTS = LossWeights(alpha=2.0, beta=0.25, distance="l1")
# the criterion-07 model, and a small non-square model with positional rows
CONSISTENCY = tr.TrainConfig(
    vit=ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16, num_layers=2,
                  num_heads=2, num_classes=3, use_positional_embedding=False),
    weights=_WEIGHTS, augmentations=transforms("fliph,flipv,rot90,rot180,rot270"))
SMALL = ViTConfig(patch_size=2, grid=GridShape(3, 4), embed_dim=8, num_layers=3, num_heads=2,
                  num_classes=2, use_positional_embedding=True)
NON_SQUARE = tr.TrainConfig(vit=SMALL, weights=_WEIGHTS,
                            augmentations=transforms("rot90,rot270,flipv,resize:2x2"))

# (config, transforms of one chunk, cycled over its samples)
CASES = {
    "mixed_flips_and_rotations": (CONSISTENCY, "fliph,rot90,flipv,rot270,rot180"),
    "rot90_non_square": (NON_SQUARE, "rot90,rot270"),
    "same_grid_with_pos": (NON_SQUARE, "flipv,fliph,rot180"),
    "resize": (NON_SQUARE, "resize:2x2"),
    "resize_up": (NON_SQUARE, "resize:4x5"),
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


def sample_for(cfg, seed):
    rng = np.random.default_rng(seed)
    image = rng.random((cfg.in_channels, cfg.grid.h * cfg.patch_size,
                        cfg.grid.w * cfg.patch_size))
    labels = (rng.random(cfg.num_classes) < 0.5).astype(np.float64)
    mask = rng.integers(0, cfg.num_classes + 1, size=image.shape[1:])
    return sd.SyntheticSample(image=image, labels=labels, mask=mask, seed=(seed, 0))


def per_sample_loss(sample, transform, params, config):
    """The two-view loss of one sample: a forward per view, 2-d matrices."""
    cfg = config.vit
    view = sd.augment(sample.image, transform, cell_pixels=cfg.patch_size)
    res_a, res_b = (vit.forward(image, params, cfg) for image in (sample.image, view))
    lo, hi = tr._loss_layer_slice(config)
    a = [rec.matrix for rec in res_a.attentions[lo:hi]]
    ap = [rec.matrix for rec in res_b.attentions[lo:hi]]
    w = config.weights
    act = aff = Tensor(0.0)
    if w.alpha != 0.0:
        act = reg.region_activation_loss(a, reg.invert_layers(ap, transform, res_a.grid),
                                         w.distance)
    if w.beta != 0.0:
        aff = reg.region_affinity_loss(a, reg.invert_layers(ap, transform, res_a.grid),
                                       w.distance)
    return reg.total_loss(res_a.logits, res_b.logits, sample.labels, act, aff, w)


def fresh(params):
    return {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}


def per_sample_sums(pairs, params, config):
    """The per-sample loop: each (sample, transform) on its own tape; the
    loss terms and the gradients summed over the samples."""
    params = fresh(params)
    sums = dict.fromkeys(("l_cls", "l_act", "l_aff", "total"), 0.0)
    for sample, transform in pairs:
        with Tape() as tape:
            breakdown = per_sample_loss(sample, transform, params, config)
        tape.backward(breakdown.total)
        for key, value in breakdown.to_floats().items():
            sums[key] += value
    return sums, {k: p.grad for k, p in params.items()}


def chunk_sums(pairs, params, config):
    """The same pairs through _chunks and one _chunk_backward per chunk."""
    params = fresh(params)
    sums = dict.fromkeys(("l_cls", "l_act", "l_aff", "total"), 0.0)
    views = [tr._two_views(step, s, t, config.vit) for step, (s, t) in enumerate(pairs)]
    for chunk in tr._chunks(views, config.vit):
        for key, value in tr._chunk_backward(chunk, params, config).items():
            sums[key] += value
    return sums, {k: p.grad for k, p in params.items()}


def assert_sums_match(got, expected):
    (sums, grads), (ref_sums, ref_grads) = got, expected
    for key, value in ref_sums.items():
        assert abs(sums[key] - value) <= TOL, key
    assert grads.keys() == ref_grads.keys()
    for name, g in ref_grads.items():
        assert grads[name] is not None and g is not None, name
        worst = float(np.max(np.abs(grads[name] - g)))
        assert worst <= TOL, f"d/d{name}: {worst:.3e}"


def budget_for(cfg, pairs):
    """A budget that fits `pairs` same-grid pairs of the model's images."""
    return pairs * 2 * tr._tape_bytes_per_image(cfg)


class TestChunkAgainstPerSampleLoop:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(CASES))
    def test_one_chunk(self, monkeypatch, name, k):
        config, text = CASES[name]
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", 10 * budget_for(config.vit, k))
        params = vit.init_params(config.vit, np.random.default_rng(3))
        cycle = transforms(text)
        pairs = [(sample_for(config.vit, 20 + j), cycle[j % len(cycle)]) for j in range(k)]
        views = [tr._two_views(j, s, t, config.vit) for j, (s, t) in enumerate(pairs)]
        assert [len(c) for c in tr._chunks(views, config.vit)] == [k]
        assert_sums_match(chunk_sums(pairs, params, config),
                          per_sample_sums(pairs, params, config))

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 4])
    @pytest.mark.parametrize("config", [CONSISTENCY, NON_SQUARE], ids=["c07", "non_square"])
    def test_batch_of_chunks(self, monkeypatch, config, per_chunk):
        """A batch whose groups are cut into several chunks, with chunk
        boundaries between samples of one group."""
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, per_chunk))
        params = vit.init_params(config.vit, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        augs = config.augmentations
        pairs = [(sample_for(config.vit, 40 + j), augs[int(rng.integers(len(augs)))])
                 for j in range(9)]
        assert_sums_match(chunk_sums(pairs, params, config),
                          per_sample_sums(pairs, params, config))


def per_sample_train(config, samples):
    """The training loop before chunking: one sample per tape, the same
    draws from the same generators, the same update."""
    init_rng = np.random.default_rng([config.seed, 0])
    loop_rng = np.random.default_rng([config.seed, 1])
    params = vit.init_params(config.vit, init_rng)
    velocity = {name: np.zeros_like(p.data) for name, p in params.items()}
    totals = []
    for _ in range(config.epochs):
        order = loop_rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(samples), config.batch_size):
            batch = order[start:start + config.batch_size]
            for p in params.values():
                p.zero_grad()
            for idx in batch:
                transform = config.augmentations[int(loop_rng.integers(len(config.augmentations)))]
                with Tape() as tape:
                    breakdown = per_sample_loss(samples[int(idx)], transform, params, config)
                tape.backward(breakdown.total)
                total += float(breakdown.total.data)
            grads = {name: p.grad / len(batch) for name, p in params.items()}
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
            if config.clip_norm is not None and norm > config.clip_norm:
                grads = {name: g * (config.clip_norm / norm) for name, g in grads.items()}
            for name, g in grads.items():
                velocity[name] *= config.momentum
                velocity[name] += g
                params[name].data -= config.learning_rate * velocity[name]
        totals.append(total / len(samples))
    return params, totals


class TestTraining:
    @pytest.mark.parametrize("per_chunk", [1, 3, 4])
    def test_train_matches_per_sample_loop(self, monkeypatch, per_chunk):
        config = replace(NON_SQUARE, epochs=2, batch_size=5, learning_rate=0.05, momentum=0.5)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, per_chunk))
        samples = [sample_for(config.vit, 60 + j) for j in range(10)]
        result = tr.train(config, samples)
        params, totals = per_sample_train(config, samples)
        for name, p in params.items():
            worst = float(np.max(np.abs(result.params[name].data - p.data)))
            assert worst <= TOL, f"{name}: {worst:.3e}"
        for record, total in zip(result.log, totals, strict=True):
            assert abs(record["total"] - total) <= TOL

    def test_one_forward_and_one_backward_per_chunk(self, monkeypatch):
        config = replace(CONSISTENCY, epochs=1, batch_size=8)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, 3))
        forwards, backwards = [], []
        real_forward, real_backward = vit.forward, Tape.backward
        monkeypatch.setattr(vit, "forward", lambda images, *a: forwards.append(
            np.shape(images)[0]) or real_forward(images, *a))
        monkeypatch.setattr(Tape, "backward", lambda self, loss, *a: backwards.append(
            len(self.nodes)) or real_backward(self, loss, *a))
        tr.train(config, [sample_for(config.vit, j) for j in range(8)])
        assert forwards == [6, 6, 4]   # chunks of 3, 3 and 2 samples, two views each
        assert len(backwards) == 3
        # one recorded loss per chunk, whatever its size: 62 nodes and the x k
        assert backwards == [63, 63, 63]

    def test_chunk_size_follows_the_budget(self):
        """The criterion-07 model fits 4 samples, the default model 1."""
        c07 = CONSISTENCY.vit
        default = ViTConfig()
        for cfg, k in ((c07, 4), (default, 1)):
            pairs = [tr._two_views(j, sample_for(cfg, j), gt.FLIP_H, cfg) for j in range(8)]
            sizes = [len(c) for c in tr._chunks(pairs, cfg)]
            assert max(sizes) == k and sum(sizes) == 8

    def test_chunks_group_by_view_grid_in_order(self, monkeypatch):
        config = NON_SQUARE
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, 2))
        order = transforms("rot90,flipv,resize:2x2,rot270,flipv,rot90,flipv,resize:2x2,"
                           "rot270,resize:4x5")
        pairs = [tr._two_views(j, sample_for(config.vit, j), t, config.vit)
                 for j, t in enumerate(order)]
        chunks = list(tr._chunks(pairs, config.vit))
        steps = [[p.step for p in chunk] for chunk in chunks]
        # groups in order of first appearance, each cut into runs of the
        # budget; a view on a larger grid takes more of it
        assert steps == [[0, 3], [5, 8], [1, 4], [6], [2, 7], [9]]


class TestDivergence:
    def test_failing_chunk_dumps_every_sample(self, tmp_path, monkeypatch):
        config = replace(CONSISTENCY, augmentations=transforms("fliph,rot90"), epochs=1,
                         batch_size=6)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(config.vit, 3))
        samples = [sample_for(config.vit, j) for j in range(6)]
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
        chosen = transforms("fliph,rot90,identity,rot270")
        a = rng.random((len(chosen), grid.n + 1, grid.n + 1))
        stacked = gt.invert_attention(a, chosen, grid).data
        for j, t in enumerate(chosen):
            assert np.array_equal(stacked[j], gt.invert_attention(a[j], t, grid).data)
            oracle = gt.invert_attention_kronecker(a[j, 1:, 1:], t, grid)
            np.testing.assert_allclose(stacked[j, 1:, 1:], oracle, rtol=0, atol=1e-12)

    def test_one_gather_per_stack(self):
        grid = GridShape(2, 3)
        a = Tensor(np.random.default_rng(8).random((3, 7, 7)), requires_grad=True)
        with Tape() as tape:
            gt.invert_attention(a, transforms("fliph,flipv,rot180"), grid)
        assert [n.op for n in tape.nodes] == ["permute_rc"]

    def test_resize_stack_matches_each_entry(self):
        src, dst = GridShape(2, 3), GridShape(3, 3)
        a = np.random.default_rng(9).random((3, src.n + 1, src.n + 1)) + 0.05
        resize = SpatialTransform.parse("resize:2x3")
        stacked = gt.invert_attention(a, [resize] * 3, dst).data
        for j in range(3):
            np.testing.assert_allclose(stacked[j], gt.resize_attention(a[j], src, dst).data,
                                       rtol=0, atol=1e-15)

    def test_stack_contracts(self):
        grid = GridShape(2, 2)
        a = np.random.default_rng(10).random((2, 5, 5))
        with pytest.raises(DimensionError):
            gt.invert_attention(a, transforms("fliph,flipv,rot90"), grid)
        with pytest.raises(ContractError):
            gt.invert_attention(a, transforms("fliph,resize:2x2"), grid)
        with pytest.raises(ContractError):
            gt.invert_attention_fast(a, transforms("fliph,resize:2x2"), grid)

    def test_batched_gather_reindexes_each_entry(self):
        rng = np.random.default_rng(11)
        rows = np.stack([rng.permutation(5) for _ in range(3)])
        cols = np.stack([rng.permutation(4)[:3] for _ in range(3)])
        x = rng.normal(size=(3, 5, 4))
        out = ad.permute_rc(Tensor(x), rows, cols).data
        for j in range(3):
            assert np.array_equal(out[j], x[j][np.ix_(rows[j], cols[j])])

    def test_batched_gather_contracts(self):
        x = Tensor(np.ones((2, 3, 3)))
        with pytest.raises(DimensionError):  # one index for the whole stack
            ad.permute_rc(x, [0, 1, 2], [0, 1, 2])
        with pytest.raises(ContractError):  # a repeat in the second entry only
            ad.permute_rc(x, [[0, 1, 2], [0, 2, 2]], [[0, 1, 2], [0, 1, 2]])

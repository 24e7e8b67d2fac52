"""One-pass evaluation against the code it replaced.

The references below are the earlier evaluation path, kept as oracles:
a fresh forward + backward per present class, a per-threshold sweep that
re-seeds, re-upsamples and re-counts every image with per-class boolean
masks, and a second counting pass at the best threshold for the FP/FN
rates. The fast path must reproduce them exactly (``==``, no tolerance).
"""

import json

import numpy as np
import pytest

from attnreg import localization as lc
from attnreg import metrics as mt
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError
from attnreg.gridtransform import GridShape
from attnreg.regularizer import LossWeights


class ReferenceCounts:
    """Per-class intersection/union and FP/FN pixel counts by boolean masks."""

    def __init__(self, num_classes):
        self.num_classes = num_classes
        self.intersection = np.zeros(num_classes, dtype=np.int64)
        self.union = np.zeros(num_classes, dtype=np.int64)
        self.over = self.under = self.total = 0

    def add(self, pred, gt):
        assert pred.shape == gt.shape
        for k in range(self.num_classes):
            p, g = pred == k, gt == k
            self.intersection[k] += int((p & g).sum())
            self.union[k] += int((p | g).sum())
        self.over += int(((pred != 0) & (gt == 0)).sum())
        self.under += int(((pred == 0) & (gt != 0)).sum())
        self.total += pred.size

    def per_class_iou(self):
        return [self.intersection[k] / self.union[k] if self.union[k] > 0 else None
                for k in range(self.num_classes)]

    def miou(self):
        present = [v for v in self.per_class_iou() if v is not None]
        return float(np.mean(present)) if present else None


def reference_seed(maps, theta, shape):
    """Thresholded seed upsampled to `shape`; no maps -> all background."""
    if not maps:
        return np.zeros(shape, dtype=np.int64)
    labels = lc.seed_from_maps(maps, theta).labels
    return lc.upsample_nearest(labels, shape[0], shape[1])


def reference_sweep(maps_per_image, gt_masks, num_classes, thresholds=None):
    """Threshold by threshold: best entry with rates re-counted at it."""
    grid = mt.DEFAULT_THRESHOLDS if thresholds is None else thresholds
    best_theta, best = None, None
    for theta in sorted(float(t) for t in grid):
        acc = ReferenceCounts(num_classes)
        for maps, gt in zip(maps_per_image, gt_masks):
            acc.add(reference_seed(maps, theta, gt.shape), gt)
        score = acc.miou()
        if score is not None and (best is None or score > best):
            best_theta, best = theta, score
    if best_theta is None:
        return {"threshold": None, "miou": None, "fp_rate": None, "fn_rate": None,
                "per_class_iou": None}
    acc = ReferenceCounts(num_classes)
    for maps, gt in zip(maps_per_image, gt_masks):
        acc.add(reference_seed(maps, best_theta, gt.shape), gt)
    return {"threshold": best_theta, "miou": best, "fp_rate": acc.over / acc.total,
            "fn_rate": acc.under / acc.total, "per_class_iou": acc.per_class_iou()}


def reference_localization_data(sample, params, cfg):
    """A fresh forward + backward from the class logit per present class:
    each present class's full per-layer adjoints, and the attention
    matrices."""
    frozen = {name: Tensor(p.data, requires_grad=False) for name, p in params.items()}
    present = [k for k in range(cfg.num_classes) if sample.labels[k]]
    adjoints_by_class, attentions = {}, None
    for k in present:
        with Tape() as tape:
            res = vit.forward(sample.image, frozen, cfg)
            y = vit.class_logit(res, k)
        tape.backward(y)
        adjoints_by_class[k] = vit.attention_adjoints(res)
        if attentions is None:
            attentions = [rec.matrix.data.copy() for rec in res.attentions]
    return adjoints_by_class, attentions or []


def reference_maps(adjoints_by_class, attentions, grid, layer_range, refine):
    """One map per class through the one-map API."""
    maps = []
    for k, adjoints in sorted(adjoints_by_class.items()):
        loc = lc.grad_localization(adjoints, grid, k, layer_range)
        if refine:
            loc = lc.affinity_refine(loc, attentions, layer_range)
        maps.append(loc)
    return maps


def reference_evaluate(params, cfg, samples, map_layers=None, thresholds=None,
                       sweep_layers=False):
    data = [reference_localization_data(s, params, cfg) for s in samples]
    gt = [s.mask for s in samples]
    result = {"num_images": len(samples), "num_classes": cfg.num_classes}
    for refine, key in ((False, "unrefined"), (True, "refined")):
        maps = [reference_maps(*d, cfg.grid, map_layers, refine) for d in data]
        result[key] = reference_sweep(maps, gt, cfg.num_classes + 1, thresholds)
    if sweep_layers:
        rows = []
        for s in range(cfg.num_layers):
            maps = [reference_maps(*d, cfg.grid, (s, cfg.num_layers), True) for d in data]
            entry = reference_sweep(maps, gt, cfg.num_classes + 1, thresholds)
            entry.pop("per_class_iou")
            rows.append({"start_layer": s, **entry})
        result["layer_sweep"] = rows
    return result


def trained(seed):
    cfg = tr.TrainConfig(
        vit=vit.ViTConfig(patch_size=4, grid=GridShape(4, 4), embed_dim=16, num_layers=3,
                          num_heads=2, num_classes=3, in_channels=3),
        weights=LossWeights(alpha=2.0, beta=1.0), epochs=1, batch_size=4,
        learning_rate=0.05, seed=seed)
    data = sd.generate(sd.DatasetConfig(num_samples=10, seed=seed, height=16, width=16))
    return tr.train(cfg, data).params, cfg.vit, data


def exact_same(a, b):
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestLocalizationData:
    @staticmethod
    def check_against_fresh_forwards(sample, params, cfg):
        present = [k for k in range(cfg.num_classes) if sample.labels[k]]
        rows, blocks = tr.adjoint_rows(sample.image[None], [present], params, cfg)
        adjoints_by_class, attentions = reference_localization_data(sample, params, cfg)
        assert sorted(adjoints_by_class) == present
        n = rows.shape[-1]
        assert rows.shape == (1, len(present), cfg.num_layers, n)
        assert blocks.shape == (1, cfg.num_layers, n, n)
        for r, k in enumerate(present):
            for i, adjoint in enumerate(adjoints_by_class[k]):
                assert np.array_equal(rows[0, r, i], adjoint[0, 1:])
        for i, attention in enumerate(attentions):
            assert np.array_equal(blocks[0, i], attention[1:, 1:])
        return rows, blocks

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjoints_and_attentions_match_fresh_forwards(self, seed):
        params, cfg, data = trained(seed)
        for sample in data:
            self.check_against_fresh_forwards(sample, params, cfg)

    def test_off_grid_stack_with_positional_embedding(self):
        params, cfg, data = trained(0)
        assert cfg.use_positional_embedding and cfg.grid == GridShape(4, 4)
        wide = sd.generate(sd.DatasetConfig(num_samples=6, seed=5, height=24, width=20))
        wide = [s for s in wide if np.count_nonzero(s.labels) == 2]
        assert len(wide) > 1
        rows, blocks = tr.adjoint_rows(np.stack([s.image for s in wide]),
                                       [np.flatnonzero(s.labels) for s in wide], params, cfg)
        assert rows.shape == (len(wide), 2, cfg.num_layers, 6 * 5)
        for v, sample in enumerate(wide):
            one_rows, one_blocks = self.check_against_fresh_forwards(sample, params, cfg)
            assert np.array_equal(rows[v], one_rows[0])
            assert np.array_equal(blocks[v], one_blocks[0])
        with pytest.raises(DimensionError):
            tr.evaluate(params, cfg, wide)

    def test_adjoint_rows_write_nothing_shared(self):
        params, cfg, data = trained(2)
        before = {name: (p.data.copy(), p.grad.copy()) for name, p in params.items()}
        tr.adjoint_rows(data[0].image[None], [[0, 1]], params, cfg)
        for name, p in params.items():
            assert np.array_equal(p.data, before[name][0])
            assert np.array_equal(p.grad, before[name][1])  # training's, untouched

    def test_class_outside_the_model_is_a_contract_error(self):
        params, cfg, data = trained(0)
        for bad in ([cfg.num_classes], [-1]):
            with pytest.raises(ContractError):
                tr.adjoint_rows(data[0].image[None], [bad], params, cfg)
        data[0].labels = np.append(data[0].labels, 1.0)
        with pytest.raises(ContractError):
            tr.evaluate(params, cfg, data)

    @pytest.mark.parametrize("bad", ["above", "negative"])
    @pytest.mark.parametrize("present", [True, False])
    def test_mask_label_outside_the_model_is_a_contract_error(self, bad, present):
        """A mask label of K = num_classes + 1 or -1 is refused, both where
        the image's seeds are binned and where it is all background; it
        is never counted in another level's or class's bin."""
        params, cfg, data = trained(0)
        sample = next(s for s in data if np.count_nonzero(s.labels))
        if not present:
            sample.labels = np.zeros_like(sample.labels)
        sample.mask[0, 0] = cfg.num_classes + 1 if bad == "above" else -1
        with pytest.raises(ContractError, match="gt labels outside"):
            tr.evaluate(params, cfg, data)

    def test_one_forward_per_stack(self, monkeypatch):
        params, cfg, data = trained(0)
        calls = []
        real = vit.forward
        monkeypatch.setattr(vit, "forward", lambda *a: calls.append(1) or real(*a))
        tr.evaluate(params, cfg, data)
        # at this size every group (image shape, mask shape, class count)
        # fits one stack, and images without a present class take no forward
        size = tr.TAPE_BYTE_BUDGET // tr._tape_bytes_per_image(cfg)
        groups = {}
        for s in data:
            key = (s.image.shape, s.mask.shape, int(np.count_nonzero(s.labels)))
            groups[key] = groups.get(key, 0) + 1
        assert max(groups.values()) <= size
        assert len(calls) == sum(1 for key in groups if key[2] > 0)
        assert len(calls) < len(data)


class TestEvaluateMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_summary(self, seed):
        params, cfg, data = trained(seed)
        fast = tr.evaluate(params, cfg, data, sweep_layers=True)
        exact_same(fast, reference_evaluate(params, cfg, data, sweep_layers=True))

    def test_unsorted_custom_grid(self):
        params, cfg, data = trained(1)
        grid = [0.6, 0.15, 0.45, 0.3, 0.15, 0.9]
        fast = tr.evaluate(params, cfg, data, map_layers=(0, 3), thresholds=grid,
                           sweep_layers=True)
        exact_same(fast, reference_evaluate(params, cfg, data, map_layers=(0, 3),
                                            thresholds=grid, sweep_layers=True))

    def test_background_only_image_is_all_background(self):
        params, cfg, data = trained(2)
        data[3].labels = np.zeros_like(data[3].labels)
        fast = tr.evaluate(params, cfg, data, sweep_layers=True)
        exact_same(fast, reference_evaluate(params, cfg, data, sweep_layers=True))
        alone = tr.evaluate(params, cfg, [data[3]])
        truth = data[3].mask
        assert alone["refined"]["fn_rate"] == float(np.mean(truth != 0))
        assert alone["refined"]["fp_rate"] == 0.0


def random_maps(rng, grid, classes, levels=None):
    maps = []
    for k in classes:
        values = rng.random(grid.n) if levels is None else rng.choice(levels, grid.n)
        maps.append(lc.LocalizationMap(class_index=k, values=values.reshape(grid.h, grid.w),
                                       layers_fused=(0, 1)))
    return maps


class TestSweepMatchesReference:
    def check(self, maps, gts, num_classes, thresholds=None):
        fast = mt.best_threshold_miou(maps, gts, num_classes, thresholds)
        exact_same(fast, reference_sweep(maps, gts, num_classes, thresholds))

    def test_maxima_exactly_on_thresholds(self):
        rng = np.random.default_rng(21)
        grid = GridShape(3, 3)
        levels = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
        for _ in range(20):
            maps = [random_maps(rng, grid, rng.permutation(3)[:rng.integers(1, 4)], levels)
                    for _ in range(4)]
            gts = [rng.integers(0, 4, size=(3, 3)) for _ in range(4)]
            self.check(maps, gts, 4, thresholds=[0.5, 0.1, 0.25, 0.75, 1.0])
            self.check(maps, gts, 4)

    def test_gt_sizes_differ_from_map_grid(self):
        rng = np.random.default_rng(22)
        grid = GridShape(4, 4)
        for shape in [(4, 4), (8, 8), (10, 6), (3, 5), (1, 1), (13, 9)]:
            maps = [random_maps(rng, grid, [0, 2]) for _ in range(3)] + [[]]
            gts = [rng.integers(0, 4, size=shape) for _ in range(4)]
            self.check(maps, gts, 4)

    def test_empty_input(self):
        self.check([], [], 3)

"""Stacked, streamed evaluation against the per-image oracle.

``trainer.evaluate`` groups images by (image shape, mask shape, number of
present classes), runs each stack of a group as one forward with one
seeded sweep per class rank, and bins every stack into per-cell
threshold histograms as it goes. reference.evaluate runs a fresh
forward + backward per present class and image and re-counts every
threshold; the two must agree exactly (``==``), however the images fall
into stacks.
"""

import math
import tracemalloc

import numpy as np
import pytest

import reference as ref
from attnreg import metrics as mt
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.gridtransform import GridShape
from attnreg.vit import ViTConfig

MASK_SHAPES = [(16, 16), (8, 8), (20, 12)]


def mixed(seed):
    """A trained model and 24 images whose masks come in three sizes and
    whose labels name 0, 1, 2 or 3 present classes."""
    params, cfg, _ = ref.trained(seed)
    data = sd.generate(sd.DatasetConfig(num_samples=24, seed=seed + 10, height=16, width=16))
    rng = np.random.default_rng(seed)
    for s in data:
        shape = MASK_SHAPES[rng.choice(len(MASK_SHAPES), p=[0.6, 0.2, 0.2])]
        s.mask = rng.integers(0, cfg.num_classes + 1, size=shape)
        s.labels = np.zeros(cfg.num_classes)
        present = rng.choice(cfg.num_classes + 1, p=[0.15, 0.35, 0.35, 0.15])
        s.labels[rng.permutation(cfg.num_classes)[:present]] = 1.0
    return params, cfg, data


def stacks_expected(data, size):
    groups = {}
    for s in data:
        key = (s.image.shape, s.mask.shape, int(np.count_nonzero(s.labels)))
        groups[key] = groups.get(key, 0) + 1
    return groups, sum(math.ceil(g / size) for key, g in groups.items() if key[2] > 0)


def budget_for(cfg, images):
    return images * tr._tape_bytes_per_image(cfg, cfg.grid)


class TestMixedStacks:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("per_stack", [1, 3, 100])
    def test_matches_reference(self, monkeypatch, seed, per_stack):
        params, cfg, data = mixed(seed)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(cfg, per_stack))
        groups, _ = stacks_expected(data, per_stack)
        assert {key[2] for key in groups} == {0, 1, 2, 3}
        assert {key[1] for key in groups} == set(MASK_SHAPES)
        if per_stack == 3:  # a stack boundary falls inside some group
            assert max(groups.values()) > per_stack
        fast = tr.evaluate(params, cfg, data, sweep_layers=True)
        ref.exact_same(fast, ref.evaluate(params, cfg, data, sweep_layers=True))

    def test_custom_layers_and_grid_match_reference(self, monkeypatch):
        params, cfg, data = mixed(2)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(cfg, 2))
        # both sides read the one grid, so no count of 19 hides anywhere
        monkeypatch.setattr(mt, "THRESHOLDS", np.array([0.15, 0.3, 0.45, 0.6, 0.9]))
        fast = tr.evaluate(params, cfg, data, map_layers=(0, 3), sweep_layers=True)
        ref.exact_same(fast, ref.evaluate(params, cfg, data, map_layers=(0, 3),
                                            sweep_layers=True))
        for row in (fast["unrefined"], fast["refined"], *fast["layer_sweep"]):
            assert row["threshold"] in (0.15, 0.3, 0.45, 0.6, 0.9)

    def test_one_forward_per_stack(self, monkeypatch):
        params, cfg, data = mixed(0)
        # budget_for also runs the measuring forward of the model's grid,
        # the only grid here, before vit.forward is counted
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(cfg, 3))
        calls = []
        real = vit.forward
        monkeypatch.setattr(vit, "forward",
                            lambda images, *a: calls.append(len(images)) or real(images, *a))
        tr.evaluate(params, cfg, data)
        _, expected = stacks_expected(data, 3)
        assert len(calls) == expected < len(data)
        assert max(calls) == 3
        # an image without a present class takes none, and alone it is
        # all background: every foreground pixel missed, none invented
        calls.clear()
        background = next(s for s in data if not np.count_nonzero(s.labels))
        alone = tr.evaluate(params, cfg, [background])
        assert not calls
        assert alone["refined"]["fn_rate"] == float(np.mean(background.mask != 0)) > 0.0
        assert alone["refined"]["fp_rate"] == 0.0

    def test_image_order_does_not_matter(self, monkeypatch):
        params, cfg, data = mixed(1)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(cfg, 2))
        forward = tr.evaluate(params, cfg, data, sweep_layers=True)
        ref.exact_same(forward, tr.evaluate(params, cfg, data[::-1], sweep_layers=True))


def per_stack(cfg, grid):
    """Images on `grid` that one stack of the model takes."""
    return tr.TAPE_BYTE_BUDGET // tr._tape_bytes_per_image(cfg, grid)


class TestStackBound:
    def test_budget_fits_several_small_images_and_few_large(self):
        for cfg, lo, hi in ((ref.C07, 4, 16), (ViTConfig(), 1, 3)):
            assert lo <= per_stack(cfg, cfg.grid) <= hi, cfg

    def test_stack_and_chunk_sizes_on_the_benchmark_models(self):
        """The criterion-07 model stacks 16 images and 8 training pairs. The
        default model stacks 3 images on its 8x8 grid, 7 on 6x6 and 2 on
        10x10; of the views train_resize_wide draws, a fliph or resize:10x10
        pair trains alone and resize:6x6 pairs train two to a chunk."""
        c07, default = ref.C07, ViTConfig()
        assert per_stack(c07, c07.grid) == 16
        assert [per_stack(default, GridShape(g, g)) for g in (8, 6, 10)] == [3, 7, 2]
        for cfg, text, k in ((c07, "fliph", 8), (default, "fliph", 1),
                             (default, "resize:6x6", 2), (default, "resize:10x10", 1)):
            pairs = [tr._two_views(j, ref.sample_for(cfg, j), t, cfg)
                     for t in ref.transforms(text) for j in range(8)]
            sizes = [len(c) for c in tr._chunks(pairs, cfg)]
            assert max(sizes) == k and sum(sizes) == len(pairs), (cfg, text)


def test_peak_memory_is_flat_in_the_image_count():
    """On the criterion-07 model, evaluate's traced peak at 500 images
    stays within 10% of its peak at 100."""
    cfg = ref.C07
    params = vit.init_params(cfg, np.random.default_rng(0))
    samples = sd.generate(sd.DatasetConfig(num_samples=500, num_classes=3, height=32,
                                           width=32, seed=0))
    peaks = {}
    for n in (100, 500):
        tracemalloc.start()
        try:
            tr.evaluate(params, cfg, samples[:n])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[500] <= 1.1 * peaks[100], peaks

"""Stacked, streamed evaluation against the per-image oracle.

``trainer.evaluate`` groups images by (image shape, mask shape, number of
present classes), runs each stack of a group as one forward with one
seeded sweep per class rank, and bins every stack into per-cell
threshold histograms as it goes. The reference in ``test_eval_oracle``
runs a fresh forward + backward per present class and image and
re-counts every threshold; the two must agree exactly (``==``), however
the images fall into stacks.
"""

import math
import tracemalloc

import numpy as np
import pytest

from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.gridtransform import GridShape
from attnreg.vit import ViTConfig

from test_eval_oracle import exact_same, reference_evaluate, trained

MASK_SHAPES = [(16, 16), (8, 8), (20, 12)]


def mixed(seed):
    """A trained model and 24 images whose masks come in three sizes and
    whose labels name 0, 1, 2 or 3 present classes."""
    params, cfg, _ = trained(seed)
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
    return images * tr._tape_bytes_per_image(cfg)


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
        exact_same(fast, reference_evaluate(params, cfg, data, sweep_layers=True))

    def test_custom_layers_and_grid_match_reference(self, monkeypatch):
        params, cfg, data = mixed(2)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(cfg, 2))
        grid = [0.6, 0.15, 0.45, 0.3, 0.9]
        fast = tr.evaluate(params, cfg, data, map_layers=(0, 3), thresholds=grid,
                           sweep_layers=True)
        exact_same(fast, reference_evaluate(params, cfg, data, map_layers=(0, 3),
                                            thresholds=grid, sweep_layers=True))

    def test_one_forward_per_stack(self, monkeypatch):
        params, cfg, data = mixed(0)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(cfg, 3))
        calls = []
        real = vit.forward
        monkeypatch.setattr(vit, "forward",
                            lambda images, *a: calls.append(len(images)) or real(images, *a))
        tr.evaluate(params, cfg, data)
        _, expected = stacks_expected(data, 3)
        assert len(calls) == expected < len(data)
        assert max(calls) == 3

    def test_image_order_does_not_matter(self, monkeypatch):
        params, cfg, data = mixed(1)
        monkeypatch.setattr(tr, "TAPE_BYTE_BUDGET", budget_for(cfg, 2))
        forward = tr.evaluate(params, cfg, data, sweep_layers=True)
        exact_same(forward, tr.evaluate(params, cfg, data[::-1], sweep_layers=True))


class TestStackBound:
    def test_budget_fits_several_small_images_and_few_large(self):
        small = ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16, num_layers=2,
                          num_heads=2, num_classes=3, use_positional_embedding=False)
        large = ViTConfig()
        for cfg, lo, hi in ((small, 4, 16), (large, 1, 2)):
            per_stack = tr.TAPE_BYTE_BUDGET // tr._tape_bytes_per_image(cfg)
            assert lo <= per_stack <= hi, (cfg, per_stack)

    def test_byte_estimate_matches_a_recorded_forward(self):
        cfg = ViTConfig(embed_dim=16, num_layers=2)
        params = {k: Tensor(p.data)
                  for k, p in vit.init_params(cfg, np.random.default_rng(0)).items()}
        images = np.random.default_rng(1).random((2, 3, 32, 32))
        with Tape() as tape:
            vit.forward(images, params, cfg)
        recorded = sum(node.output.data.nbytes for node in tape.nodes) / len(images)
        estimate = tr._tape_bytes_per_image(cfg)
        assert 0.9 * recorded <= estimate <= 1.1 * recorded


def test_peak_memory_is_flat_in_the_image_count():
    """On the criterion-07 model, evaluate's traced peak at 500 images
    stays within 10% of its peak at 100."""
    cfg = ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16, num_layers=2,
                    num_heads=2, num_classes=3, use_positional_embedding=False)
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

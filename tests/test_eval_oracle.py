"""Evaluation's pieces against reference.py, exactly (``==``, no
tolerance): the class-token adjoint rows and attention blocks of one
stacked forward against a fresh forward + backward per image and present
class (reference.localization_data), and metrics.best_threshold_miou
against reference.sweep, which re-seeds, re-upsamples and re-counts every
image at each threshold with per-class boolean masks, then counts once
more at the best one for the FP/FN rates. The whole summary of
trainer.evaluate against reference.evaluate is test_stacked_eval's.
"""

import numpy as np
import pytest

import reference as ref
from attnreg import localization as lc
from attnreg import metrics as mt
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg.errors import ContractError, DimensionError
from attnreg.gridtransform import GridShape


class TestLocalizationData:
    @staticmethod
    def check_against_fresh_forwards(sample, params, cfg):
        present = [k for k in range(cfg.num_classes) if sample.labels[k]]
        rows, blocks = tr.adjoint_rows(sample.image[None], [present], params, cfg)
        adjoints_by_class, attentions = ref.localization_data(sample, params, cfg)
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
        params, cfg, data = ref.trained(seed)
        for sample in data:
            self.check_against_fresh_forwards(sample, params, cfg)

    def test_off_grid_stack_with_positional_embedding(self):
        params, cfg, data = ref.trained(0)
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
        params, cfg, data = ref.trained(2)
        before = {name: (p.data.copy(), p.grad.copy()) for name, p in params.items()}
        tr.adjoint_rows(data[0].image[None], [[0, 1]], params, cfg)
        for name, p in params.items():
            assert np.array_equal(p.data, before[name][0])
            assert np.array_equal(p.grad, before[name][1])  # training's, untouched

    def test_class_outside_the_model_is_a_contract_error(self):
        params, cfg, data = ref.trained(0)
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
        params, cfg, data = ref.trained(0)
        sample = next(s for s in data if np.count_nonzero(s.labels))
        if not present:
            sample.labels = np.zeros_like(sample.labels)
        sample.mask[0, 0] = cfg.num_classes + 1 if bad == "above" else -1
        with pytest.raises(ContractError, match="gt labels outside"):
            tr.evaluate(params, cfg, data)


def random_maps(rng, grid, classes, levels=None):
    maps = []
    for k in classes:
        values = rng.random(grid.n) if levels is None else rng.choice(levels, grid.n)
        maps.append(lc.LocalizationMap(class_index=k, values=values.reshape(grid.h, grid.w),
                                       layers_fused=(0, 1)))
    return maps


class TestSweepMatchesReference:
    def check(self, maps, gts, num_classes):
        fast = mt.best_threshold_miou(maps, gts, num_classes)
        ref.exact_same(fast, ref.sweep(maps, gts, num_classes))

    def test_maxima_exactly_on_thresholds(self):
        rng = np.random.default_rng(21)
        grid = GridShape(3, 3)
        # 0.1, 0.25, 0.5, 0.75 and 0.95 are grid values, 0 and 1 lie outside
        levels = np.concatenate(([0.0], mt.THRESHOLDS[[1, 4, 9, 14, 18]], [1.0]))
        for _ in range(40):
            maps = [random_maps(rng, grid, rng.permutation(3)[:rng.integers(1, 4)], levels)
                    for _ in range(4)]
            gts = [rng.integers(0, 4, size=(3, 3)) for _ in range(4)]
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

"""Metrics: hand-counted cases, a per-pixel brute-force oracle, pooled
(VOC-style) semantics, merge associativity, and the threshold sweep."""

import numpy as np
import pytest

import reference as ref
from attnreg import localization as loc
from attnreg import metrics
from attnreg.errors import ContractError, DimensionError
from attnreg.gridtransform import GridShape


def brute_force_counts(pairs, num_classes):
    """Pure-Python per-pixel tally: the counting oracle."""
    inter = [0] * num_classes
    union = [0] * num_classes
    fp = [0] * num_classes
    fn = [0] * num_classes
    over = under = total = 0
    for pred, gt in pairs:
        for p, g in zip(np.asarray(pred).ravel().tolist(), np.asarray(gt).ravel().tolist()):
            total += 1
            for k in range(num_classes):
                if p == k and g == k:
                    inter[k] += 1
                if p == k or g == k:
                    union[k] += 1
                if p == k and g != k:
                    fp[k] += 1
                if g == k and p != k:
                    fn[k] += 1
            if p != 0 and g == 0:
                over += 1
            if p == 0 and g != 0:
                under += 1
    return inter, union, fp, fn, over, under, total


def pooled(preds, gts, num_classes):
    """Per-class IoU and mIoU of the pairs pooled in one accumulator."""
    acc = metrics.ConfusionAccumulator(num_classes)
    for p, g in zip(preds, gts, strict=True):
        acc.add(p, g)
    return acc.per_class_iou(), acc.miou()


class TestConfusionAccumulator:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gt = rng.integers(0, 3, size=(8, 8))
        per_class, mean = pooled([gt], [gt], 3)
        assert mean == 1.0
        for k in range(3):
            assert per_class[k] == (1.0 if np.any(gt == k) else None)

    def test_half_background_hand_count(self):
        """pred all background, gt half class-1: IoU_bg = 0.5, IoU_1 = 0."""
        gt = np.zeros((4, 4), dtype=np.int64)
        gt[:2, :] = 1
        pred = np.zeros((4, 4), dtype=np.int64)
        per_class, mean = pooled([pred], [gt], 2)
        assert per_class[0] == 0.5
        assert per_class[1] == 0.0
        assert mean == 0.25
        acc = metrics.ConfusionAccumulator(2)
        acc.add(pred, gt)
        assert acc.fp_rate() == 0.0 and acc.fn_rate() == 0.5

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(1)
        k = 4
        pairs = [(rng.integers(0, k, size=(16, 16)), rng.integers(0, k, size=(16, 16)))
                 for _ in range(25)]
        acc = metrics.ConfusionAccumulator(k)
        for p, g in pairs:
            acc.add(p, g)
        inter, union, fp, fn, over, under, total = brute_force_counts(pairs, k)
        m = acc.matrix
        diagonal = np.diagonal(m)
        assert diagonal.tolist() == inter
        assert (m.sum(0) + m.sum(1) - diagonal).tolist() == union
        assert (m.sum(axis=0) - diagonal).tolist() == fp
        assert (m.sum(axis=1) - diagonal).tolist() == fn
        assert int(m[0, 1:].sum()) == over
        assert int(m[1:, 0].sum()) == under
        assert acc.summary()["total_pixels"] == total
        for k_i in range(k):
            expected = inter[k_i] / union[k_i] if union[k_i] else None
            assert acc.per_class_iou()[k_i] == expected

    def test_image_order_invariance(self):
        rng = np.random.default_rng(2)
        pairs = [(rng.integers(0, 3, size=(5, 7)), rng.integers(0, 3, size=(5, 7)))
                 for _ in range(6)]
        a = metrics.ConfusionAccumulator(3)
        b = metrics.ConfusionAccumulator(3)
        for p, g in pairs:
            a.add(p, g)
        for p, g in reversed(pairs):
            b.add(p, g)
        assert a.summary() == b.summary()

    def test_absent_class_excluded_from_mean(self):
        pred = np.zeros((2, 2), dtype=np.int64)
        gt = np.zeros((2, 2), dtype=np.int64)
        per_class, mean = pooled([pred], [gt], 5)
        assert per_class == [1.0, None, None, None, None]
        assert mean == 1.0

    def test_empty_dataset(self):
        per_class, mean = pooled([], [], 3)
        assert per_class == [None, None, None]
        assert mean is None
        acc = metrics.ConfusionAccumulator(3)
        assert acc.miou() is None and acc.fp_rate() is None and acc.fn_rate() is None

    def test_label_range_checked(self):
        acc = metrics.ConfusionAccumulator(2)
        with pytest.raises(ContractError):
            acc.add(np.array([[2]]), np.array([[0]]))
        with pytest.raises(ContractError):
            acc.add(np.array([[0]]), np.array([[-1]]))

    def test_shape_mismatch(self):
        acc = metrics.ConfusionAccumulator(2)
        with pytest.raises(DimensionError):
            acc.add(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int))


LEVELS = len(metrics.THRESHOLDS) + 1  # a sweep histogram's levels


class TestBestThreshold:
    def test_beats_every_fixed_threshold(self):
        grid = GridShape(2, 2)
        rng = np.random.default_rng(4)
        maps_per_image, gts = [], []
        for _ in range(5):
            maps_per_image.append([ref.flat_map(0, rng.random(4), grid),
                                   ref.flat_map(1, rng.random(4), grid)])
            gts.append(rng.integers(0, 3, size=(2, 2)))
        found = metrics.best_threshold_miou(maps_per_image, gts, 3)
        theta, best = found["threshold"], found["miou"]
        assert theta in metrics.THRESHOLDS
        for t in metrics.THRESHOLDS:
            acc = metrics.ConfusionAccumulator(3)
            for maps, gt in zip(maps_per_image, gts):
                seed = loc.seed_from_maps(maps, t)
                acc.add(seed.labels, gt)
            assert best >= acc.miou()

    def test_tie_takes_smaller_threshold(self):
        grid = GridShape(2, 2)
        # 0/1-valued map: every threshold in (0, 1] yields the same seed
        maps = [[ref.flat_map(0, [1.0, 0.0, 0.0, 1.0], grid)]]
        gts = [np.array([[1, 0], [0, 1]])]
        found = metrics.best_threshold_miou(maps, gts, 2)
        theta, best = found["threshold"], found["miou"]
        assert best == 1.0
        assert theta == metrics.THRESHOLDS[0]

    def test_upsamples_to_gt_size(self):
        grid = GridShape(1, 2)
        maps = [[ref.flat_map(0, [1.0, 0.0], grid)]]
        gts = [np.array([[1, 1, 0, 0], [1, 1, 0, 0]])]
        found = metrics.best_threshold_miou(maps, gts, 2)
        theta, best = found["threshold"], found["miou"]
        assert best == 1.0

    def test_empty_dataset(self):
        assert metrics.best_threshold_miou([], [], 3) == dict.fromkeys(
            ("threshold", "miou", "fp_rate", "fn_rate", "per_class_iou"))

    @staticmethod
    def scored_one_by_one(hist):
        """best_threshold spelled out: at threshold THRESHOLDS[i] the
        levels 0..i are background, and metrics.scores scores each matrix."""
        best = None
        for i, theta in enumerate(metrics.THRESHOLDS.tolist()):
            matrix = hist.counts[i + 1:].sum(axis=0)
            matrix[:, 0] += hist.counts[:i + 1].sum(axis=(0, 2))
            found = metrics.scores(matrix)
            if found["miou"] is not None and (best is None or found["miou"] > best["miou"]):
                best = {"threshold": theta, **found}
        keys = ("threshold", "miou", "fp_rate", "fn_rate", "per_class_iou")
        return dict.fromkeys(keys) if best is None else {key: best[key] for key in keys}

    def check_one_by_one(self, counts):
        hist = metrics.ConfusionAccumulator(counts.shape[1], levels=len(counts))
        hist.counts += counts
        found = metrics.best_threshold(hist)
        expected = self.scored_one_by_one(hist)
        assert found == expected
        assert repr(found) == repr(expected)   # same types and bits, None for None
        return found

    @pytest.mark.parametrize("k", [1, 2, 4, 12])
    def test_matches_scores_per_threshold(self, k):
        rng = np.random.default_rng(k)
        for _ in range(30):
            counts = rng.integers(0, 6, size=(LEVELS, k, k))
            counts[rng.random(counts.shape) < 0.6] = 0
            self.check_one_by_one(counts)

    def test_ties_go_to_the_smaller_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = np.zeros((LEVELS, 3, 3), dtype=np.int64)
            # pixels only on a few levels: the thresholds between them tie
            counts[rng.choice(LEVELS, 3, replace=False)] = rng.integers(0, 4, size=(3, 3, 3))
            found = self.check_one_by_one(counts)
            if found["miou"] is not None:
                assert found["threshold"] in metrics.THRESHOLDS

    @pytest.mark.parametrize("k", [4, 12])
    def test_classes_absent_at_some_thresholds(self, k):
        """Absent classes drop out of the mean; at 12 classes numpy's
        pairwise sum groups the present ones differently than it would
        with zeros in their place."""
        rng = np.random.default_rng(k)
        for _ in range(30):
            counts = rng.integers(0, 5, size=(LEVELS, k, k))
            gone = rng.random(k) < 0.3    # never true nor predicted
            counts[:, gone, :] = 0
            counts[:, :, gone] = 0
            late = rng.integers(1, k)     # never true, predicted at level 1 only
            counts[:, late, :] = 0
            counts[np.arange(LEVELS) != 1, :, late] = 0
            counts[:, 0, :] = 0           # background is never true and, below
            counts[:rng.integers(0, 4)] = 0  # some threshold, never predicted
            found = self.check_one_by_one(counts)
            if found["miou"] is not None:
                assert all(found["per_class_iou"][c] is None for c in np.flatnonzero(gone))

    def test_empty_histogram(self):
        found = self.check_one_by_one(np.zeros((LEVELS, 3, 3), dtype=np.int64))
        assert found == dict.fromkeys(found)

    def test_add_seeds_refuses_labels_outside_the_classes(self):
        hist = metrics.ConfusionAccumulator(3, levels=LEVELS)
        labels, peak = np.ones((2, 2), dtype=np.int64), np.full((2, 2), 0.5)
        for bad in (3, -1):
            gt = np.zeros((4, 4), dtype=np.int64)
            gt[1, 2] = bad
            with pytest.raises(ContractError, match="gt labels"):
                metrics.add_seeds(hist, gt, labels, peak)
            with pytest.raises(ContractError, match="pred labels"):
                metrics.add_seeds(hist, np.zeros((4, 4)), labels + bad - 1, peak)
        with pytest.raises(DimensionError):
            metrics.add_seeds(hist, np.zeros((2, 4, 4)), np.ones((3, 2, 2)),
                              np.full((3, 2, 2), 0.5))
        assert not hist.counts.any()

    def test_default_grid_shape(self):
        grid_vals = metrics.THRESHOLDS
        assert grid_vals[0] == 0.05 and grid_vals[-1] == 0.95
        assert len(grid_vals) == 19
        assert np.all(np.diff(grid_vals) > 0)  # ascending, as add_seeds bins by it
        with pytest.raises(ValueError):  # read-only: no caller can shift the sweep
            grid_vals[0] = 0.5

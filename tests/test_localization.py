"""Localization maps and seeds: scalar pipeline oracles, the trivial
fixed points, seed scale invariance, and the layer sweep plumbing."""

import json

import numpy as np
import pytest

import reference as ref
from attnreg import localization as loc
from attnreg import netpbm
from attnreg.errors import ContractError, DimensionError
from attnreg.gridtransform import GridShape


def random_adjoints(rng, layers, n_tokens):
    return [rng.normal(size=(n_tokens, n_tokens)) for _ in range(layers)]


def pipeline_oracle(adjoints, grid, start, stop):
    """grad_localization by explicit loops."""
    h, w = grid.h, grid.w
    out = [[0.0] * w for _ in range(h)]
    count = stop - start
    for i in range(h):
        for j in range(w):
            token = 1 + i * w + j
            s = sum(adjoints[l][0][token] for l in range(start, stop))
            out[i][j] = max(s / count, 0.0)
    peak = max(max(row) for row in out)
    if peak > 0:
        out = [[v / peak for v in row] for row in out]
    return np.array(out)


class TestGradLocalization:
    def test_all_negative_gives_zero_map(self):
        grid = GridShape(2, 2)
        adjoints = [np.full((5, 5), -3.0)]
        m = loc.grad_localization(adjoints, grid, 0, (0, 1))
        assert np.array_equal(m.values, np.zeros((2, 2)))

    def test_uniform_positive_gives_all_ones(self):
        grid = GridShape(2, 3)
        adjoints = [np.full((7, 7), 0.4), np.full((7, 7), 0.2)]
        m = loc.grad_localization(adjoints, grid, 1, (0, 2))
        assert np.array_equal(m.values, np.ones((2, 3)))

    def test_matches_scalar_pipeline(self):
        grid = GridShape(2, 3)
        rng = np.random.default_rng(0)
        for start, stop in [(0, 3), (1, 3), (2, 3), (0, 1)]:
            adjoints = random_adjoints(rng, 3, grid.n + 1)
            m = loc.grad_localization(adjoints, grid, 0, (start, stop))
            np.testing.assert_allclose(m.values, pipeline_oracle(adjoints, grid, start, stop),
                                       rtol=0, atol=1e-12)
            assert m.layers_fused == (start, stop)
            assert not m.refined

    def test_default_range_is_last_two_layers(self):
        grid = GridShape(2, 2)
        adjoints = random_adjoints(np.random.default_rng(1), 4, grid.n + 1)
        auto = loc.grad_localization(adjoints, grid, 0)
        explicit = loc.grad_localization(adjoints, grid, 0, (2, 4))
        assert np.array_equal(auto.values, explicit.values)

    def test_single_layer_model_default(self):
        grid = GridShape(2, 2)
        adjoints = random_adjoints(np.random.default_rng(2), 1, grid.n + 1)
        m = loc.grad_localization(adjoints, grid, 0)
        assert m.layers_fused == (0, 1)

    def test_normalization_invariant(self):
        grid = GridShape(3, 3)
        adjoints = random_adjoints(np.random.default_rng(3), 2, grid.n + 1)
        m = loc.grad_localization(adjoints, grid, 0)
        assert m.values.min() >= 0.0
        assert m.values.max() == 1.0 or not m.values.any()

    def test_bad_inputs(self):
        grid = GridShape(2, 2)
        with pytest.raises(ContractError):
            loc.grad_localization([], grid, 0)
        adjoints = random_adjoints(np.random.default_rng(4), 2, grid.n + 1)
        with pytest.raises(ContractError):
            loc.grad_localization(adjoints, grid, 0, (1, 1))
        with pytest.raises(ContractError):
            loc.grad_localization(adjoints, grid, 0, (0, 3))
        with pytest.raises(DimensionError):
            loc.grad_localization([np.zeros((3, 3))], grid, 0, (0, 1))


class TestAffinityRefine:
    """build_maps with refine: each fused map, as a row vector, times the
    layer mean of the patch-to-patch blocks, then clamp-normalized."""

    def make_rows(self, grid, layers=2, seed=5):
        """One image's one class: (1, 1, layers, n) class-token adjoint rows."""
        adjoints = random_adjoints(np.random.default_rng(seed), layers, grid.n + 1)
        return np.array([a[0, 1:] for a in adjoints])[None, None]

    def maps(self, rows, attentions, layer_range):
        """The (n,) unrefined and refined maps of rows over layer_range."""
        blocks = np.array([a[1:, 1:] for a in attentions])[None]
        plain = loc.build_maps(rows, blocks, layer_range, refine=False)
        refined = loc.build_maps(rows, blocks, layer_range, refine=True)
        return plain[0, 0], refined[0, 0]

    def attention_with_block(self, n, block):
        a = np.zeros((n + 1, n + 1))
        a[0, 0] = 1.0
        a[1:, 1:] = block
        return a

    def test_identity_affinity_is_noop(self):
        grid = GridShape(2, 3)
        a = self.attention_with_block(grid.n, np.eye(grid.n))
        plain, refined = self.maps(self.make_rows(grid), [a, a], (0, 2))
        assert np.array_equal(refined, plain)

    def test_uniform_affinity_gives_constant_map(self):
        grid = GridShape(2, 2)
        a = self.attention_with_block(grid.n, np.full((grid.n, grid.n), 1.0 / grid.n))
        plain, refined = self.maps(self.make_rows(grid), [a, a], (0, 2))
        assert np.all(refined == refined[0])
        if plain.any():
            assert np.array_equal(refined, np.ones(grid.n))

    def test_matches_dense_matvec_oracle(self):
        grid = GridShape(2, 3)
        rng = np.random.default_rng(6)
        attns = [rng.random(size=(grid.n + 1, grid.n + 1)) for _ in range(3)]
        v, refined = self.maps(self.make_rows(grid, layers=3), attns, (1, 3))
        block = (attns[1][1:, 1:] + attns[2][1:, 1:]) / 2.0
        expected = np.array([sum(v[i] * block[i, j] for i in range(grid.n))
                             for j in range(grid.n)])
        expected = np.maximum(expected, 0.0)
        if expected.max() > 0:
            expected = expected / expected.max()
        np.testing.assert_allclose(refined, expected, rtol=0, atol=1e-12)


class TestSeedFromMaps:
    def test_threshold_and_argmax(self):
        grid = GridShape(1, 3)
        m0 = ref.flat_map(0, [0.9, 0.2, 0.05], grid)
        m1 = ref.flat_map(1, [0.1, 0.6, 0.04], grid)
        seed = loc.seed_from_maps([m0, m1], 0.3)
        # pixel 0: class 0 wins; pixel 1: class 1 wins; pixel 2: both below theta
        assert seed.labels.tolist() == [[1, 2, 0]]
        assert seed.threshold == 0.3

    def test_tie_breaks_to_lowest_class(self):
        grid = GridShape(1, 1)
        m0 = ref.flat_map(2, [0.8], grid)
        m1 = ref.flat_map(1, [0.8], grid)
        seed = loc.seed_from_maps([m0, m1], 0.1)
        assert seed.labels[0, 0] == 2  # class index 1 -> label 2

    def test_background_needs_all_below(self):
        grid = GridShape(1, 2)
        m0 = ref.flat_map(0, [0.29, 0.31], grid)
        seed = loc.seed_from_maps([m0], 0.3)
        assert seed.labels.tolist() == [[0, 1]]

    def test_theta_zero_never_background_on_positive_maps(self):
        grid = GridShape(2, 2)
        rng = np.random.default_rng(7)
        m0 = ref.flat_map(0, rng.uniform(0.01, 1.0, size=4), grid)
        seed = loc.seed_from_maps([m0], 0.0)
        assert not np.any(seed.labels == 0)

    def test_theta_above_one_all_background(self):
        grid = GridShape(2, 2)
        m0 = ref.flat_map(0, np.ones(4), grid)
        seed = loc.seed_from_maps([m0], 1.5)
        assert np.all(seed.labels == 0)

    def test_duplicate_class_rejected(self):
        grid = GridShape(1, 1)
        with pytest.raises(ContractError):
            loc.seed_from_maps([ref.flat_map(0, [1.0], grid), ref.flat_map(0, [0.5], grid)], 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            loc.seed_from_maps([], 0.5)

    def test_scale_invariance_of_seeds(self):
        """Positive rescaling of a class's adjoints cannot move its seed."""
        grid = GridShape(4, 4)
        rng = np.random.default_rng(8)
        adj_a = random_adjoints(rng, 3, grid.n + 1)
        adj_b = random_adjoints(rng, 3, grid.n + 1)
        base = [loc.grad_localization(adj_a, grid, 0), loc.grad_localization(adj_b, grid, 1)]
        reference = loc.seed_from_maps(base, 0.3).labels
        for c in (2.0, 0.5, 3.0, 10.0, 1e4):
            scaled = [loc.grad_localization([c * a for a in adj_a], grid, 0),
                      loc.grad_localization(adj_b, grid, 1)]
            assert np.array_equal(loc.seed_from_maps(scaled, 0.3).labels, reference), c


class TestUpsampleNearest:
    def test_integer_factor_is_block_replication(self):
        labels = np.array([[1, 2], [3, 0]])
        up = loc.upsample_nearest(labels, 4, 6)
        expected = np.repeat(np.repeat(labels, 2, axis=0), 3, axis=1)
        assert np.array_equal(up, expected)

    def test_identity_size(self):
        labels = np.arange(6).reshape(2, 3)
        assert np.array_equal(loc.upsample_nearest(labels, 2, 3), labels)

    def test_matches_halfpixel_loop(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 4, size=(3, 5))
        out = loc.upsample_nearest(labels, 7, 8)
        for i in range(7):
            for j in range(8):
                si = min(max(int(round((i + 0.5) * 3 / 7 - 0.5)), 0), 2)
                sj = min(max(int(round((j + 0.5) * 5 / 8 - 0.5)), 0), 4)
                assert out[i, j] == labels[si, sj]

    def test_bad_inputs(self):
        with pytest.raises(DimensionError):
            loc.upsample_nearest(np.zeros(3), 2, 2)
        with pytest.raises(ContractError):
            loc.upsample_nearest(np.zeros((2, 2)), 0, 2)


class TestExport:
    def test_map_pgm_and_sidecar(self, tmp_path):
        grid = GridShape(2, 2)
        m = ref.flat_map(1, [0.0, 0.5, 0.25, 1.0], grid)
        m.layers_fused = (2, 4)
        pgm, meta = loc.export_map(tmp_path / "map_c1", m)
        img = netpbm.read_netpbm(pgm)
        assert np.array_equal(img, [[0, 128], [64, 255]])
        side = json.loads(meta.read_text())
        assert side == {"class_index": 1, "layers_fused": [2, 4], "refined": False}


class TestLayerSweep:
    """The stack map builder against the one-map API, per layer range."""

    def build_stack(self, grid, layers, classes, rng, images=3):
        """Full per-layer adjoints per image and class, row-stochastic
        attentions per image, and their stacked rows and blocks."""
        adjoints = [[random_adjoints(rng, layers, grid.n + 1) for _ in range(classes)]
                    for _ in range(images)]
        attns = []
        for _ in range(images):
            raw = rng.random(size=(layers, grid.n + 1, grid.n + 1))
            attns.append(list(raw / raw.sum(axis=-1, keepdims=True)))
        rows = np.array([[[a[0, 1:] for a in per_class] for per_class in per_image]
                         for per_image in adjoints])
        blocks = np.array([[a[1:, 1:] for a in per_image] for per_image in attns])
        return adjoints, attns, rows, blocks

    def test_refine_flag_changes_maps(self):
        grid = GridShape(2, 2)
        rng = np.random.default_rng(12)
        _, _, rows, blocks = self.build_stack(grid, layers=2, classes=1, rng=rng)
        plain = loc.build_maps(rows, blocks, (0, 2), refine=False)
        refined = loc.build_maps(rows, blocks, (0, 2), refine=True)
        assert plain.shape == refined.shape == (3, 1, grid.n)
        assert np.array_equal(plain, loc.fuse_rows(rows, (0, 2)))
        assert not np.array_equal(plain, refined)

    @pytest.mark.parametrize("layer_range", [(0, 3), (1, 3), (2, 3), (0, 1), (1, 2)])
    def test_stack_matches_one_map_api(self, layer_range):
        grid = GridShape(2, 3)
        rng = np.random.default_rng(13)
        adjoints, attns, rows, blocks = self.build_stack(grid, layers=3, classes=2, rng=rng)
        plain = loc.build_maps(rows, blocks, layer_range, refine=False)
        refined = loc.build_maps(rows, blocks, layer_range, refine=True)
        for v, (per_image, attentions) in enumerate(zip(adjoints, attns)):
            for c, adj in enumerate(per_image):
                m = loc.grad_localization(adj, grid, c, layer_range)
                assert np.array_equal(plain[v, c].reshape(grid.h, grid.w), m.values)
                r = ref.refine(m.values, attentions, layer_range)
                assert np.array_equal(refined[v, c].reshape(grid.h, grid.w), r)

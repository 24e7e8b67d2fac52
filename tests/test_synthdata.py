"""Synthetic dataset: determinism, label/mask consistency, augmentation
exactness against per-pixel coordinate oracles, and disk roundtrips."""

import json

import numpy as np
import pytest

from attnreg import gridtransform as gt, netpbm, synthdata as sd
from attnreg.errors import ContractError, DimensionError
from attnreg.gridtransform import (FLIP_H, FLIP_HV, FLIP_V, IDENTITY, ROT90, ROT180,
                                   ROT270, GridShape, SpatialTransform)


# pixel-space coordinate maps: source (i, j) on (h, w) -> target coordinate
PIXEL_MAPS = {
    IDENTITY: lambda i, j, h, w: (i, j),
    FLIP_H: lambda i, j, h, w: (i, w - 1 - j),
    FLIP_V: lambda i, j, h, w: (h - 1 - i, j),
    FLIP_HV: lambda i, j, h, w: (h - 1 - i, w - 1 - j),
    ROT180: lambda i, j, h, w: (h - 1 - i, w - 1 - j),
    ROT90: lambda i, j, h, w: (w - 1 - j, i),
    ROT270: lambda i, j, h, w: (j, h - 1 - i),
}


class TestGeneration:
    def test_bit_identical_reruns(self):
        cfg = sd.DatasetConfig(num_samples=6, seed=42)
        a, b = sd.generate(cfg), sd.generate(cfg)
        for s, t in zip(a, b):
            assert np.array_equal(s.image, t.image)
            assert np.array_equal(s.mask, t.mask)
            assert np.array_equal(s.labels, t.labels)

    def test_per_index_seed_is_order_free(self):
        cfg = sd.DatasetConfig(num_samples=5, seed=9)
        full = sd.generate(cfg)
        lone = sd.generate_sample(cfg, 3)
        assert np.array_equal(full[3].image, lone.image)
        assert np.array_equal(full[3].mask, lone.mask)

    def test_different_seeds_differ(self):
        a = sd.generate_sample(sd.DatasetConfig(num_samples=1, seed=1), 0)
        b = sd.generate_sample(sd.DatasetConfig(num_samples=1, seed=2), 0)
        assert not np.array_equal(a.image, b.image)

    def test_label_mask_consistency(self):
        # five classes draw every footprint, the ring and the cross too
        for cfg in (sd.DatasetConfig(num_samples=50, seed=3),
                    sd.DatasetConfig(num_samples=60, num_classes=5, seed=0)):
            seen = set()
            for s in sd.generate(cfg):
                for k in range(1, cfg.num_classes + 1):
                    assert s.labels[k - 1] == (1.0 if np.any(s.mask == k) else 0.0)
                assert s.labels.sum() >= 1  # at least one shape survives
                seen |= set(np.unique(s.mask).tolist())
            assert seen - {0} == set(range(1, cfg.num_classes + 1))

    def test_image_range_and_shape(self):
        cfg = sd.DatasetConfig(num_samples=8, seed=4, height=24, width=40)
        for s in sd.generate(cfg):
            assert s.image.shape == (3, 24, 40)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.mask.shape == (24, 40)

    def test_visible_shapes_are_not_slivers(self):
        cfg = sd.DatasetConfig(num_samples=40, seed=5)
        for s in sd.generate(cfg):
            for k in range(1, cfg.num_classes + 1):
                if s.labels[k - 1]:
                    assert int((s.mask == k).sum()) >= 4

    def test_grayscale_mode(self):
        cfg = sd.DatasetConfig(num_samples=3, seed=6, channels=1)
        s = sd.generate(cfg)[0]
        assert s.image.shape == (1, 32, 32)

    def test_class_frequency_near_uniform(self):
        """Shape classes are drawn uniformly, so label presence counts
        should agree across classes to within 10% of their mean."""
        cfg = sd.DatasetConfig(num_samples=1000, seed=7)
        counts = np.zeros(cfg.num_classes)
        for s in sd.generate(cfg):
            counts += s.labels
        mean = counts.mean()
        assert np.all(np.abs(counts - mean) <= 0.10 * mean), counts

    def test_config_validation(self):
        with pytest.raises(ContractError):
            sd.DatasetConfig(num_samples=1, num_classes=6)
        with pytest.raises(ContractError):
            sd.DatasetConfig(num_samples=1, height=8)
        with pytest.raises(ContractError):
            sd.DatasetConfig(num_samples=1, channels=2)
        with pytest.raises(ContractError):
            sd.DatasetConfig(num_samples=1, min_shapes=3, max_shapes=2)
        with pytest.raises(ContractError):
            sd.DatasetConfig(num_samples=1, seed=-1)


class TestAugment:
    @pytest.fixture()
    def sample(self):
        return sd.generate_sample(sd.DatasetConfig(num_samples=1, seed=11, height=24,
                                                   width=32), 0)

    @pytest.mark.parametrize("transform", list(PIXEL_MAPS), ids=str)
    def test_image_matches_coordinate_oracle(self, sample, transform):
        out = sd.augment(sample.image, transform)
        cmap = PIXEL_MAPS[transform]
        c, h, w = sample.image.shape
        for i in range(h):
            for j in range(w):
                ti, tj = cmap(i, j, h, w)
                assert np.array_equal(out[:, ti, tj], sample.image[:, i, j])

    @pytest.mark.parametrize("transform", list(PIXEL_MAPS), ids=str)
    def test_mask_commutes_with_image(self, sample, transform):
        """A class-id mask as a one-channel plane goes through the same
        gather as the image: labels stay exact and land where the image's
        pixels do."""
        out_mask = sd.augment(sample.mask[None].astype(np.float64), transform)[0]
        cmap = PIXEL_MAPS[transform]
        h, w = sample.mask.shape
        for i in range(h):
            for j in range(w):
                ti, tj = cmap(i, j, h, w)
                assert out_mask[ti, tj] == sample.mask[i, j]

    def test_flip_h_is_involution(self, sample):
        twice = sd.augment(sd.augment(sample.image, FLIP_H), FLIP_H)
        assert np.array_equal(twice, sample.image)

    def test_rot90_four_times_is_identity(self, sample):
        img = sample.image
        for _ in range(4):
            img = sd.augment(img, ROT90)
        assert np.array_equal(img, sample.image)

    def test_rot90_then_rot270_is_identity(self, sample):
        back = sd.augment(sd.augment(sample.image, ROT90), ROT270)
        assert np.array_equal(back, sample.image)

    def test_resize_shapes_and_constant_preservation(self):
        t = SpatialTransform.parse("resize:6x5")
        const = np.full((3, 16, 16), 0.37)
        out = sd.augment(const, t, cell_pixels=4)
        assert out.shape == (3, 24, 20)
        np.testing.assert_allclose(out, 0.37, rtol=0, atol=1e-12)

    def test_resize_identity_target_is_exact(self):
        rng = np.random.default_rng(0)
        img = rng.random(size=(3, 12, 8))
        out = sd.augment(img, SpatialTransform.parse("resize:3x2"), cell_pixels=4)
        assert np.array_equal(out, img)

    def test_token_permutation_cached_read_only(self, sample):
        """A flip or rotation gathers pixels by the one cached permutation
        of the pixel grid, whose sigma no caller can write."""
        gt.token_permutation.cache_clear()
        perm = gt.token_permutation(ROT90, GridShape(24, 32))
        sd.augment(sample.image, ROT90)
        assert gt.token_permutation(ROT90, GridShape(24, 32)) is perm
        assert gt.token_permutation.cache_info().misses == 1
        with pytest.raises(ValueError):
            perm.sigma[0] = 0

    def test_resize_matrices_built_once_per_pair(self):
        """A resize augment reads its per-axis interpolation matrices from a
        read-only cache: one build per (src, dst), the same pixels as a
        fresh build."""
        gt.bilinear_matrix.cache_clear()
        img = np.random.default_rng(4).random(size=(3, 16, 24))
        t = SpatialTransform.parse("resize:3x5")
        first = sd.augment(img, t, cell_pixels=4)
        again = sd.augment(img, t, cell_pixels=4)
        info = gt.bilinear_matrix.cache_info()
        assert (info.misses, info.hits) == (2, 2)  # (16, 12) and (24, 20), built once
        fresh = (gt.bilinear_matrix.__wrapped__(16, 12) @ img
                 @ gt.bilinear_matrix.__wrapped__(24, 20).T)
        assert np.array_equal(first, fresh) and np.array_equal(again, fresh)
        cached = gt.bilinear_matrix(16, 12)
        assert gt.bilinear_matrix(16, 12) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionError):
            sd.augment(np.zeros((4, 4)), FLIP_H)


class TestNetpbm:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        gray = rng.integers(0, 256, size=(7, 9), dtype=np.uint8)
        p = tmp_path / "x.pgm"
        netpbm.write_pgm(p, gray)
        assert np.array_equal(netpbm.read_netpbm(p), gray)

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, size=(3, 5, 4), dtype=np.uint8)
        p = tmp_path / "x.ppm"
        netpbm.write_ppm(p, rgb)
        assert np.array_equal(netpbm.read_netpbm(p), rgb)

    def test_header_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # comment\n# another\n 2\t3 \n255\n" + bytes(6))
        img = netpbm.read_netpbm(p)
        assert img.shape == (3, 2)

    def test_truncated_raster_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ContractError):
            netpbm.read_netpbm(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ContractError):
            netpbm.read_netpbm(p)

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            netpbm.write_pgm(tmp_path / "d.pgm", np.zeros((2, 2)))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        cfg = sd.DatasetConfig(num_samples=5, seed=13)
        samples = sd.generate(cfg)
        sd.save_dataset(tmp_path / "ds", samples, cfg)
        loaded, cfg2 = sd.load_dataset(tmp_path / "ds")
        assert cfg2 == cfg
        assert len(loaded) == 5
        for orig, back in zip(samples, loaded):
            assert np.array_equal(back.mask, orig.mask)
            assert np.array_equal(back.labels, orig.labels)
            assert back.seed == orig.seed
            quantized = np.rint(np.clip(orig.image, 0, 1) * 255) / 255.0
            np.testing.assert_allclose(back.image, quantized, rtol=0, atol=0)

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = sd.DatasetConfig(num_samples=3, seed=14)
        samples = sd.generate(cfg)
        sd.save_dataset(tmp_path / "a", samples, cfg)
        sd.save_dataset(tmp_path / "b", samples, cfg)
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_grayscale_roundtrip(self, tmp_path):
        cfg = sd.DatasetConfig(num_samples=2, seed=15, channels=1)
        sd.save_dataset(tmp_path / "g", sd.generate(cfg), cfg)
        loaded, _ = sd.load_dataset(tmp_path / "g")
        assert loaded[0].image.shape == (1, 32, 32)

    def test_non_dataset_dir_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            sd.load_dataset(tmp_path)


# netpbm headers that read_netpbm refuses, and the refusal after its path
HEADER_REFUSALS = {
    "truncated": (b"P6\n16 16", "truncated netpbm header"),
    "unterminated_comment": (b"P6\n16 # no newline", "unterminated comment in netpbm header"),
    "non_numeric": (b"P6\n16 x16\n255\n", "bad netpbm header token b'x16'"),
    "maxval": (b"P6\n16 16\n65535\n", "only maxval 255 is supported, got 65535"),
}


class TestMalformedIndex:
    """Every malformed index record or metadata file is a ContractError."""

    @pytest.fixture
    def saved(self, tmp_path):
        cfg = sd.DatasetConfig(num_samples=3, num_classes=3, seed=16, height=16, width=16)
        sd.save_dataset(tmp_path / "ds", sd.generate(cfg), cfg)
        return tmp_path / "ds"

    def rewrite_first(self, root, change):
        index = root / "index.jsonl"
        lines = index.read_text().splitlines()
        lines[0] = change(json.loads(lines[0]))
        index.write_text("\n".join(lines) + "\n")

    def test_index_cut_short(self, saved):
        index = saved / "index.jsonl"
        index.write_bytes(index.read_bytes()[:-30])
        with pytest.raises(ContractError, match="line 3"):
            sd.load_dataset(saved)

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "7", "{}"])
    def test_record_not_an_object_with_keys(self, saved, line):
        self.rewrite_first(saved, lambda rec: line)
        with pytest.raises(ContractError, match="line 1"):
            sd.load_dataset(saved)

    @pytest.mark.parametrize("key", ["image", "mask", "labels", "seed"])
    def test_missing_key(self, saved, key):
        self.rewrite_first(saved, lambda rec: json.dumps({k: v for k, v in rec.items()
                                                          if k != key}))
        with pytest.raises(ContractError, match="line 1"):
            sd.load_dataset(saved)

    @pytest.mark.parametrize("labels", [[1, 0], [1, 0, 1, 0], [1, 2, 0], [0.5, 0, 1],
                                        "abc", [[1, 0, 1]]])
    def test_labels_checked_against_num_classes(self, saved, labels):
        self.rewrite_first(saved, lambda rec: json.dumps({**rec, "labels": labels}))
        with pytest.raises(ContractError):
            sd.load_dataset(saved)

    @pytest.mark.parametrize("shape", [(5, 7), (16, 15), (32, 32)])
    def test_mask_shape_must_match_its_image(self, saved, shape):
        netpbm.write_pgm(saved / "masks" / "00001.pgm", np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ContractError, match="line 2"):
            sd.load_dataset(saved)

    def test_mask_value_above_num_classes(self, saved):
        mask = netpbm.read_netpbm(saved / "masks" / "00002.pgm")
        mask[3, 4] = 4  # classes 1..3 are 1..3, background 0
        netpbm.write_pgm(saved / "masks" / "00002.pgm", mask)
        with pytest.raises(ContractError, match="line 3"):
            sd.load_dataset(saved)
        mask[3, 4] = 3
        netpbm.write_pgm(saved / "masks" / "00002.pgm", mask)
        sd.load_dataset(saved)

    @pytest.mark.parametrize("key", ["image", "mask"])
    def test_path_naming_a_directory(self, saved, key):
        self.rewrite_first(saved, lambda rec: json.dumps({**rec, key: "images"}))
        with pytest.raises(ContractError, match="line 1.*directory"):
            sd.load_dataset(saved)

    @pytest.mark.parametrize("seed", ["[1e400, 0]", "[16, -1e400]", "[NaN, 0]"])
    def test_seed_not_an_integer(self, saved, seed):
        self.rewrite_first(saved, lambda rec: json.dumps({**rec, "seed": "SEED"})
                           .replace('"SEED"', seed))
        with pytest.raises(ContractError, match="line 1"):
            sd.load_dataset(saved)

    @pytest.mark.parametrize("header,refusal", HEADER_REFUSALS.values(),
                             ids=HEADER_REFUSALS.keys())
    def test_image_with_a_bad_header(self, saved, header, refusal):
        image = saved / "images" / "00001.ppm"
        image.write_bytes(header)
        with pytest.raises(ContractError) as err:
            sd.load_dataset(saved)
        assert str(err.value) == f"{saved / 'index.jsonl'} line 2: {image}: {refusal}"

    def test_bad_meta(self, saved):
        (saved / "meta.json").write_text('{"num_samples": 3, "colour": 1}')
        with pytest.raises(ContractError):
            sd.load_dataset(saved)
        (saved / "meta.json").write_text("{not json")
        with pytest.raises(ContractError):
            sd.load_dataset(saved)

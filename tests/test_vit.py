"""Mini ViT: shapes, attention records, adjoints, checkpoint format,
and the attention-equivariance property that the whole method rests on."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import cli, netpbm
from attnreg import gridtransform as gt
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError, ResourceError
from attnreg.gridtransform import FLIP_H, FLIP_HV, FLIP_V, ROT90, ROT180, ROT270, GridShape


def tiny_config(**kw):
    base = dict(patch_size=2, grid=GridShape(3, 3), embed_dim=16, num_layers=2,
                num_heads=2, mlp_ratio=2.0, num_classes=2,
                use_positional_embedding=False, in_channels=3)
    base.update(kw)
    return vit.ViTConfig(**base)


def random_image(rng, config):
    h = config.grid.h * config.patch_size
    w = config.grid.w * config.patch_size
    return rng.random(size=(config.in_channels, h, w))


def patch_constant_image(rng, config):
    """Every patch is a single flat color; flips/rotations then act on the
    patch grid exactly."""
    blocks = rng.random(size=(config.in_channels, config.grid.h, config.grid.w))
    return np.repeat(np.repeat(blocks, config.patch_size, axis=1), config.patch_size, axis=2)


class TestPatchify:
    def test_hand_layout(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        rows = vit.patchify(img, 2)
        np.testing.assert_array_equal(rows[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(rows[3], [10, 11, 14, 15])

    def test_channel_major_rows(self):
        img = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        rows = vit.patchify(img, 2)
        np.testing.assert_array_equal(rows, [[0, 0, 0, 0, 1, 1, 1, 1]])

    def test_divisibility_enforced(self):
        with pytest.raises(DimensionError):
            vit.patchify(np.zeros((1, 5, 4)), 2)


class TestForward:
    def test_shapes_and_row_stochastic_attention(self):
        cfg = tiny_config(use_positional_embedding=True)
        rng = np.random.default_rng(0)
        params = vit.init_params(cfg, rng)
        res = vit.forward(random_image(rng, cfg), params, cfg)
        assert res.logits.shape == (cfg.num_classes,)
        assert len(res.attentions) == cfg.num_layers
        n = cfg.grid.n
        for rec in res.attentions:
            assert rec.matrix.shape == (n + 1, n + 1)
            np.testing.assert_allclose(rec.matrix.data.sum(axis=1), np.ones(n + 1), atol=1e-9)
            assert rec.matrix.data.min() >= 0.0

    def test_forward_is_deterministic(self):
        cfg = tiny_config()
        rng = np.random.default_rng(1)
        img = random_image(rng, cfg)
        params = vit.init_params(cfg, np.random.default_rng(7))
        a = vit.forward(img, params, cfg).logits.data
        b = vit.forward(img, params, cfg).logits.data
        assert np.array_equal(a, b)

    def test_same_seed_same_params(self):
        cfg = tiny_config()
        p1 = vit.init_params(cfg, np.random.default_rng(3))
        p2 = vit.init_params(cfg, np.random.default_rng(3))
        assert list(p1) == list(p2)
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_resized_view_runs_with_positional_resampling(self):
        cfg = tiny_config(use_positional_embedding=True)
        params = vit.init_params(cfg, np.random.default_rng(2))
        small = np.random.default_rng(4).random(size=(3, 4, 4))  # 2x2 grid view
        res = vit.forward(small, params, cfg)
        assert res.grid == GridShape(2, 2)
        assert res.attentions[0].matrix.shape == (5, 5)

    @pytest.mark.parametrize("shape,refusal", [
        ((1, 6, 6), r"expected a \(3, H, W\) image"),
        ((2, 2, 3, 6, 6), r"or a stack of them, got \(2, 2, 3, 6, 6\)"),  # two view axes
        ((3, 1, 6), "image of 1x6 pixels has a side shorter than the patch size 2"),
    ], ids=["wrong_channels", "deeper_stack", "smaller_than_a_patch"])
    def test_malformed_input_rejected(self, shape, refusal):
        cfg = tiny_config()
        with pytest.raises(DimensionError, match=refusal):
            vit.forward(np.zeros(shape), vit.init_params(cfg, np.random.default_rng(0)), cfg)

    def test_grid_over_the_token_cap_refused_before_allocating(self):
        """A 33x32 grid is 1056 tokens; its 4 layers of (2, 1057, 1057)
        attention are never built."""
        cfg = vit.ViTConfig()
        params = vit.init_params(cfg, np.random.default_rng(0))
        image = np.zeros((3, 33 * cfg.patch_size, 32 * cfg.patch_size))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="1056 tokens"):
                vit.forward(image, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("class_index", [1, 6])
    def test_class_logit_of_a_stack_rejected(self, class_index):
        """A stacked result has a logits row per view, not one logit."""
        cfg = tiny_config()
        params = vit.init_params(cfg, np.random.default_rng(0))
        res = vit.forward(ref.images_for(cfg, 5, seed=1), params, cfg)
        with pytest.raises(DimensionError, match="1-d logits"):
            vit.class_logit(res, class_index)


# the forward oracle's models: the benchmark workloads' two, and a small
# non-square one with positional rows on one, two and four heads
ORACLE_MODELS = {**ref.MODELS, "non_square_pos": ref.SMALL, "one_head": ref.ONE_HEAD,
                 "four_heads": ref.FOUR_HEADS}


class TestForwardOracle:
    @pytest.mark.parametrize("stack", [None, 3], ids=["single", "stack"])
    @pytest.mark.parametrize("model", list(ORACLE_MODELS))
    def test_logits_attention_and_adjoints(self, model, stack):
        """Per image, against reference.forward and reference.adjoints to
        TOL (the last block's class-row tail rounds unlike the full rows):
        logits, attention matrices and the full adjoints of a random seed,
        and adjoint_rows' class-token rows and patch blocks for two
        classes; the row form of the adjoints is the full one's row 0."""
        cfg = ORACLE_MODELS[model]
        params = ref.frozen(vit.init_params(cfg, np.random.default_rng(1)))
        images = ref.images_for(cfg, stack or 1, seed=2)
        lead, m, c = ((stack,) if stack else ()), cfg.grid.n + 1, cfg.num_classes
        seed = np.random.default_rng(3).normal(size=lead + (c,))
        with Tape() as tape:
            res = vit.forward(images if stack else images[0], params, cfg)
        assert len(tape.nodes) == ref.forward_nodes(cfg)
        assert res.logits.shape == lead + (c,)
        adjoints = vit.attention_adjoints(tape, res, seed)
        for rec, adj, row in zip(res.attentions, adjoints,
                                 vit.attention_adjoints(tape, res, seed, row=0), strict=True):
            assert rec.heads.shape == lead + (cfg.num_heads, m, m)
            assert rec.matrix.shape == adj.shape == lead + (m, m)
            assert ref.bit_equal(row, adj[..., 0, :])
        classes = np.array([[0, c - 1], [1, 0], [1, 1]])[:len(images)]
        rows, blocks = tr.adjoint_rows(images, classes, params, cfg)
        per_view = len(images), m, m
        for v, image in enumerate(images):
            with Tape() as tape:
                expected = ref.forward(image, params, cfg)
            ref.assert_close(res.logits.data.reshape(-1, c)[v], expected.logits.data, f"logits {v}")
            ref_adjoints = ref.adjoints(tape, expected.logits, expected, seed.reshape(-1, c)[v])
            for i, (rec, ref_rec, adj, ref_adj) in enumerate(zip(
                    res.attentions, expected.attentions, adjoints, ref_adjoints, strict=True)):
                ref.assert_close(rec.matrix.data.reshape(per_view)[v], ref_rec.matrix.data,
                                 f"view {v} attention {i}")
                ref.assert_close(adj.reshape(per_view)[v], ref_adj, f"view {v} adjoint {i}")
                ref.assert_close(blocks[v, i], ref_rec.matrix.data[1:, 1:], f"view {v} block {i}")
            for r, k in enumerate(classes[v]):
                one_hot = ref.adjoints(tape, expected.logits, expected, np.eye(c)[k])
                for i, ref_adj in enumerate(one_hot):
                    ref.assert_close(rows[v, r, i], ref_adj[0, 1:], f"view {v} class {k} row {i}")


def recorded_stack(cfg, views=4):
    """A no-grad forward of a stack of random views on one tape."""
    params = ref.frozen(vit.init_params(cfg, np.random.default_rng(0)))
    with Tape() as tape:
        res = vit.forward(ref.images_for(cfg, views, seed=1), params, cfg)
    return tape, res


class TestAdjoints:
    def test_adjoints_populated_after_backward(self):
        cfg = tiny_config()
        params = vit.init_params(cfg, np.random.default_rng(0))
        with Tape() as tape:
            res = vit.forward(random_image(np.random.default_rng(1), cfg), params, cfg)
        adjoints = vit.attention_adjoints(tape, res, np.eye(cfg.num_classes)[1])
        n = cfg.grid.n
        assert len(adjoints) == cfg.num_layers
        for adj in adjoints:
            assert adj.shape == (n + 1, n + 1)
            assert np.any(adj != 0.0)
        assert all(rec.heads.grad is None for rec in res.attentions)

    @pytest.mark.parametrize("row", [10, -11, 99])
    def test_row_outside_the_matrix_is_refused(self, row):
        cfg = tiny_config()  # 3x3 grid: 10 rows
        tape, res = recorded_stack(cfg)
        count = len(tape.nodes)
        with pytest.raises(DimensionError, match=f"row {row} outside"):
            vit.attention_adjoints(tape, res, np.ones(res.logits.shape), row=row)
        assert len(tape.nodes) == count
        last = vit.attention_adjoints(tape, res, np.ones(res.logits.shape), row=-10)
        first = vit.attention_adjoints(tape, res, np.ones(res.logits.shape), row=0)
        assert all(np.array_equal(a, b) for a, b in zip(first, last))

    def test_seed_shaped_unlike_the_logits_is_refused(self):
        cfg = tiny_config()
        tape, res = recorded_stack(cfg)
        with pytest.raises(DimensionError, match="seed shape"):
            vit.attention_adjoints(tape, res, np.eye(cfg.num_classes)[0])


class TestGradientFidelity:
    def test_class_logit_wrt_patch_embedding(self):
        """Full-model gradient of a class logit against central differences."""
        cfg = vit.ViTConfig(patch_size=2, grid=GridShape(2, 2), embed_dim=8, num_layers=1,
                            num_heads=2, mlp_ratio=2.0, num_classes=2,
                            use_positional_embedding=True, in_channels=3)
        rng = np.random.default_rng(5)
        params = vit.init_params(cfg, rng)
        img = random_image(rng, cfg)

        def f(probe):
            patched = dict(params)
            patched["patch_embed.weight"] = probe
            return vit.class_logit(vit.forward(img, patched, cfg), 0)

        err = ad.grad_check(f, Tensor(params["patch_embed.weight"].data.copy()), step=1e-5)
        assert err < 1e-4, f"rel err {err:.2e}"

    def test_bce_loss_wrt_attention_projection(self):
        cfg = vit.ViTConfig(patch_size=2, grid=GridShape(2, 2), embed_dim=8, num_layers=1,
                            num_heads=2, mlp_ratio=2.0, num_classes=2,
                            use_positional_embedding=False, in_channels=1)
        rng = np.random.default_rng(6)
        params = vit.init_params(cfg, rng)
        img = random_image(rng, cfg)
        targets = Tensor(np.array([1.0, 0.0]))

        def f(probe):
            patched = dict(params)
            patched["blocks.0.attn.wq"] = probe
            res = vit.forward(img, patched, cfg)
            return ad.bce_with_logits(res.logits, targets)

        err = ad.grad_check(f, Tensor(params["blocks.0.attn.wq"].data.copy()), step=1e-5)
        assert err < 1e-4, f"rel err {err:.2e}"


class TestEquivariance:
    """Zero positional embeddings + per-patch-constant images: a spatial
    transform of the image conjugates every layer's attention by the token
    permutation, so the inverse transform recovers it to float precision."""

    PIXEL_VIEW = {
        FLIP_H: lambda m: np.flip(m, axis=2),
        FLIP_V: lambda m: np.flip(m, axis=1),
        FLIP_HV: lambda m: np.flip(m, axis=(1, 2)),
        ROT90: lambda m: np.rot90(m, 1, axes=(1, 2)),
        ROT180: lambda m: np.rot90(m, 2, axes=(1, 2)),
        ROT270: lambda m: np.rot90(m, 3, axes=(1, 2)),
    }

    @pytest.mark.parametrize("transform", list(PIXEL_VIEW), ids=str)
    def test_attention_equivariance(self, transform):
        cfg = tiny_config()  # positional embeddings off, 3x3 grid
        rng = np.random.default_rng(17)
        params = vit.init_params(cfg, rng)
        for _ in range(3):
            img = patch_constant_image(rng, cfg)
            view = np.ascontiguousarray(self.PIXEL_VIEW[transform](img))
            res_a = vit.forward(img, params, cfg)
            res_b = vit.forward(view, params, cfg)
            for rec_a, rec_b in zip(res_a.attentions, res_b.attentions):
                back = gt.invert_attention_fast(rec_b.matrix, transform, cfg.grid).data
                assert np.max(np.abs(back - rec_a.matrix.data)) < 1e-9


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = tiny_config(use_positional_embedding=True)
        params = vit.init_params(cfg, np.random.default_rng(8))
        path = tmp_path / "model.ckpt"
        vit.save_checkpoint(path, params, cfg)
        loaded, cfg2 = vit.load_checkpoint(path)
        assert cfg2 == cfg
        assert list(loaded) == list(params)
        for k in params:
            assert np.array_equal(loaded[k].data, params[k].data)

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = tiny_config()
        params = vit.init_params(cfg, np.random.default_rng(9))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        vit.save_checkpoint(a, params, cfg)
        vit.save_checkpoint(b, params, cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ContractError):
            vit.load_checkpoint(path)

    def small_checkpoint(self, tmp_path, params=None):
        cfg = tiny_config(grid=GridShape(1, 2), embed_dim=2, num_layers=1, num_heads=1,
                          mlp_ratio=1.0, in_channels=1)
        params = params or vit.init_params(cfg, np.random.default_rng(3))
        path = tmp_path / "small.ckpt"
        vit.save_checkpoint(path, params, cfg)
        return path, params, cfg

    def test_every_truncation_is_a_contract_error(self, tmp_path):
        path, _, _ = self.small_checkpoint(tmp_path)
        whole = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(whole)):
            cut.write_bytes(whole[:size])
            with pytest.raises(ContractError):
                vit.load_checkpoint(cut)

    def test_trailing_bytes_are_a_contract_error(self, tmp_path):
        path, _, _ = self.small_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ContractError, match="trailing bytes after last tensor"):
            vit.load_checkpoint(path)

    @pytest.mark.parametrize("change", ["missing", "extra", "misshaped"])
    def test_tensor_layout_checked_at_load(self, tmp_path, change):
        path, params, cfg = self.small_checkpoint(tmp_path)
        params = dict(params)
        if change == "missing":
            del params["head.bias"]
        elif change == "extra":
            params["head.extra"] = Tensor(np.zeros((1, 2)))
        else:
            params["head.bias"] = Tensor(np.zeros((2, 1)))
        vit.save_checkpoint(path, params, cfg)
        with pytest.raises(ContractError):
            vit.load_checkpoint(path)

    @pytest.mark.parametrize("blob", [b"{not json", b"\xff\xfe", b"[1, 2]", b'{"patch_size": 2}'])
    def test_bad_config_blob_is_a_contract_error(self, tmp_path, blob):
        path, _, _ = self.small_checkpoint(tmp_path)
        whole = path.read_bytes()
        (old,) = struct.unpack("<I", whole[12:16])
        path.write_bytes(whole[:12] + struct.pack("<I", len(blob)) + blob + whole[16 + old:])
        with pytest.raises(ContractError):
            vit.load_checkpoint(path)

    def test_missing_names_are_capped(self, tmp_path):
        path, params, cfg = self.small_checkpoint(tmp_path)
        whole = path.read_bytes()
        kept = {"patch_embed.weight": params["patch_embed.weight"]}
        vit.save_checkpoint(path, kept, cfg)
        # padded to the full payload, so the refusal is for the names
        path.write_bytes(path.read_bytes() + bytes(len(whole)))
        with pytest.raises(ContractError) as err:
            vit.load_checkpoint(path)
        missing = len(params) - 1
        assert f"and {missing - 5} more" in str(err.value)
        assert "head.bias" not in str(err.value)

    # a header declaring a huge model, or a huge tensor count, over a few
    # bytes: refused before anything of the declared size is built
    HUGE_HEADERS = {"wide": ({"embed_dim": 2 ** 22}, 1), "deep": ({"num_layers": 20000}, 1),
                    "many_tensors": ({}, 2 ** 32 - 1),
                    # negative widths would make the declared payload negative
                    "negative_width": ({"embed_dim": -8, "mlp_ratio": -2.0,
                                        "num_layers": 10 ** 9}, 1),
                    "zero_grid": ({"grid": [0, 8]}, 1)}

    def huge_header(self, tmp_path, changes, count):
        config = tiny_config().to_dict()
        config.update(changes)
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        path = tmp_path / "huge.ckpt"
        path.write_bytes(vit.CHECKPOINT_MAGIC
                         + struct.pack("<II", vit.CHECKPOINT_VERSION, len(blob)) + blob
                         + struct.pack("<I", count) + bytes(16))
        return path

    @pytest.mark.parametrize("changes,count", HUGE_HEADERS.values(), ids=HUGE_HEADERS.keys())
    def test_huge_header_is_refused_in_small_memory(self, tmp_path, changes, count):
        path = self.huge_header(tmp_path, changes, count)
        assert path.stat().st_size < 300
        tracemalloc.start()
        try:
            with pytest.raises(ContractError):
                vit.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    @pytest.mark.parametrize("changes,count", HUGE_HEADERS.values(), ids=HUGE_HEADERS.keys())
    def test_huge_header_exits_1_from_the_cli(self, tmp_path, capsys, changes, count):
        path = self.huge_header(tmp_path, changes, count)
        image = tmp_path / "image.ppm"
        netpbm.write_ppm(image, np.zeros((3, 6, 6), dtype=np.uint8))
        rc = cli.main(["seeds", "--checkpoint", str(path), "--image", str(image),
                       "--class", "0", "--out", str(tmp_path / "maps")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("attnreg: error:")
        assert str(path) in err  # every refusal names the file
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_a_contract_error(self, tmp_path, value):
        path, _, _ = self.small_checkpoint(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-8] + struct.pack("<d", value))
        with pytest.raises(ContractError, match="NaN or Inf"):
            vit.load_checkpoint(path)

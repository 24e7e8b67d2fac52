"""Seeded byte-flip fuzzing of a checkpoint's header and first tensor name.

Every corrupted file must either load as a checkpoint that runs a
forward, or be refused with ContractError (``attnreg`` exit code 1) --
never end in another exception.
"""

import json
import struct

import numpy as np
import pytest

from attnreg import cli, vit
from attnreg import synthdata as sd
from attnreg.errors import ContractError
from attnreg.gridtransform import GridShape

CFG = vit.ViTConfig(patch_size=4, grid=GridShape(4, 4), embed_dim=8, num_layers=1,
                    num_heads=2, num_classes=2)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    vit.save_checkpoint(path, vit.init_params(CFG, np.random.default_rng(0)), CFG)
    raw = path.read_bytes()
    blob_len = struct.unpack("<I", raw[12:16])[0]
    name_at = 16 + blob_len + 4           # past the blob and the tensor count
    name_len = struct.unpack("<I", raw[name_at:name_at + 4])[0]
    return raw, name_at + 4 + name_len    # header and first name end here


def outcome(path) -> str:
    """'refused', or 'loaded' after a forward on the loaded config."""
    try:
        params, cfg = vit.load_checkpoint(path)
    except ContractError:
        return "refused"
    image = np.zeros((cfg.in_channels, cfg.grid.h * cfg.patch_size,
                      cfg.grid.w * cfg.patch_size))
    logits = vit.forward(image, params, cfg).logits.data
    assert logits.shape == (cfg.num_classes,) and np.all(np.isfinite(logits))
    return "loaded"


def test_header_byte_flips(checkpoint, tmp_path):
    raw, end = checkpoint
    rng = np.random.default_rng(2024)
    path = tmp_path / "fuzzed.ckpt"
    seen = {"refused": 0, "loaded": 0}
    for _ in range(600):
        data = bytearray(raw)
        for pos in rng.choice(end, size=int(rng.integers(1, 4)), replace=False):
            data[pos] ^= int(rng.integers(1, 256))
        path.write_bytes(bytes(data))
        seen[outcome(path)] += 1
    assert seen["refused"] > 0
    assert sum(seen.values()) == 600


def test_flips_in_every_header_field_are_refused_or_loaded(checkpoint, tmp_path):
    raw, end = checkpoint
    path = tmp_path / "fuzzed.ckpt"
    for pos in range(end):
        for mask in (0x01, 0x80, 0xFF):
            data = bytearray(raw)
            data[pos] ^= mask
            path.write_bytes(bytes(data))
            assert outcome(path) in ("refused", "loaded")


def test_corrupted_checkpoint_exits_1(checkpoint, tmp_path, capsys):
    raw, _ = checkpoint
    data = bytearray(raw)
    data[16] ^= ord("{") ^ ord("[")       # the config blob no longer parses
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(bytes(data))
    dataset = tmp_path / "data"
    config = sd.DatasetConfig(num_samples=2, num_classes=CFG.num_classes, height=16,
                              width=16, seed=0)
    sd.save_dataset(dataset, sd.generate(config), config)
    assert json.loads(raw[16:16 + struct.unpack("<I", raw[12:16])[0]])  # intact original
    rc = cli.main(["eval", "--checkpoint", str(path), "--data", str(dataset)])
    assert rc == 1
    assert "error" in capsys.readouterr().err

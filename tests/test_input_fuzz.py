"""Seeded byte-flip fuzzing of a dataset's index.jsonl and of a
train_config.txt, modelled on test_checkpoint_fuzz.

Each corrupted file must either be read as a valid dataset or config, or
be refused with ContractError; through ``attnreg train`` it exits 0 (the
file was still valid), 1 (refused) or 2 (a valid config whose training
diverged) -- never with another exception.
"""

import numpy as np
import pytest

from attnreg import cli
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg.errors import ContractError
from attnreg.gridtransform import GridShape, SpatialTransform
from attnreg.regularizer import LossWeights
from attnreg.vit import ViTConfig

CONFIG = tr.TrainConfig(
    vit=ViTConfig(patch_size=4, grid=GridShape(4, 4), embed_dim=8, num_layers=1, num_heads=2,
                  num_classes=2),
    weights=LossWeights(alpha=1.0, beta=1.0), augmentations=(SpatialTransform.parse("fliph"),),
    epochs=1, batch_size=4, learning_rate=0.05)
DATA = sd.DatasetConfig(num_samples=4, num_classes=2, height=16, width=16, seed=5)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """(dataset directory, index bytes, config bytes) as the package writes them."""
    root = tmp_path_factory.mktemp("fuzz")
    sd.save_dataset(root / "data", sd.generate(DATA), DATA)
    return (root / "data", (root / "data" / "index.jsonl").read_bytes(),
            tr.format_train_config(CONFIG).encode())


def flipped(raw: bytes, rng: np.random.Generator) -> bytes:
    """1-3 bytes of raw, each with one random bit flipped: mostly ASCII
    still, so that many cases get past decoding into the parsers."""
    data = bytearray(raw)
    for pos in rng.choice(len(data), size=int(rng.integers(1, 4)), replace=False):
        data[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(data)


def read_index(root):
    """'refused', or 'loaded' after checking what was loaded."""
    try:
        samples, config = sd.load_dataset(root)
    except ContractError:
        return "refused"
    for s in samples:
        assert s.labels.shape == (config.num_classes,)
        assert s.mask.shape == s.image.shape[1:]
    return "loaded"


def read_config(path):
    try:
        cli._load_train_config(str(path))
    except ContractError:
        return "refused"
    return "loaded"


def test_index_byte_flips(originals, tmp_path):
    data_dir, index, _ = originals
    rng = np.random.default_rng(2025)
    target = data_dir / "index.jsonl"
    seen = {"refused": 0, "loaded": 0}
    try:
        for _ in range(400):
            target.write_bytes(flipped(index, rng))
            seen[read_index(data_dir)] += 1
    finally:
        target.write_bytes(index)
    assert seen["refused"] > 0 and seen["loaded"] > 0


def test_config_byte_flips(originals, tmp_path):
    _, _, config = originals
    rng = np.random.default_rng(2026)
    path = tmp_path / "train_config.txt"
    seen = {"refused": 0, "loaded": 0}
    for _ in range(400):
        path.write_bytes(flipped(config, rng))
        seen[read_config(path)] += 1
    assert seen["refused"] > 0 and seen["loaded"] > 0


def test_fuzzed_inputs_through_train(originals, tmp_path, capsys):
    data_dir, index, config = originals
    rng = np.random.default_rng(2027)
    good_config = tmp_path / "good.txt"
    good_config.write_bytes(config)
    bad_config = tmp_path / "bad.txt"
    target = data_dir / "index.jsonl"
    codes = []
    try:
        for case in range(24):
            if case % 2:
                target.write_bytes(flipped(index, rng))
                config_path = good_config
            else:
                target.write_bytes(index)
                bad_config.write_bytes(flipped(config, rng))
                config_path = bad_config
            codes.append(cli.main(["train", "--config", str(config_path), "--data",
                                   str(data_dir), "--out", str(tmp_path / f"run{case}")]))
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if codes[-1] == 1:
                assert "attnreg: error:" in err
    finally:
        target.write_bytes(index)
    assert set(codes) <= {0, 1, 2} and 1 in codes

"""Artifacts are replaced atomically: a write that fails midway leaves the
previous file byte-identical and no temporary file behind."""

import errno

import numpy as np
import pytest

from attnreg import atomicio, cli, netpbm
from attnreg import localization as lc
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.gridtransform import GridShape
from attnreg.regularizer import LossWeights


class DiskFull(OSError):
    pass


class HalfWrite:
    """A file that takes half of its first write, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(bytes(data)[:len(data) // 2])
        raise DiskFull(errno.ENOSPC, "no space left on device")

    def __getattr__(self, name):  # tell, seek, ... for writers such as np.savez
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def fail_on_call(monkeypatch, n):
    """Make the n-th file atomic_open opens (0-based) fail midway through
    its first write, as a full disk would."""
    real_open = open
    calls = []

    def flaky_open(path, mode):
        f = real_open(path, mode)
        calls.append(path)
        return HalfWrite(f) if len(calls) == n + 1 else f

    monkeypatch.setattr(atomicio, "open", flaky_open, raising=False)


def snapshot(directory):
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def tiny_config(seed):
    return tr.TrainConfig(
        vit=vit.ViTConfig(patch_size=4, grid=GridShape(4, 4), embed_dim=8, num_layers=1,
                          num_heads=2, num_classes=3),
        weights=LossWeights(alpha=1.0, beta=1.0), epochs=1, batch_size=2, seed=seed)


def data_config(seed):
    return sd.DatasetConfig(num_samples=3, seed=seed, height=16, width=16)


def tiny_data(seed):
    return sd.generate(data_config(seed))


def test_atomic_open_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / "artifact.bin"
    target.write_bytes(b"old contents")
    with pytest.raises(RuntimeError):
        with atomicio.atomic_open(target) as f:
            f.write(b"new, half written")
            raise RuntimeError("interrupted")
    assert snapshot(tmp_path) == {"artifact.bin": b"old contents"}
    atomicio.write_text_atomic(target, "new\n")
    assert snapshot(tmp_path) == {"artifact.bin": b"new\n"}


@pytest.mark.parametrize("fail_at,name", [(0, "checkpoint.ckpt"), (1, "log.jsonl"),
                                          (2, "train_config.txt")])
def test_train_artifacts(tmp_path, monkeypatch, fail_at, name):
    tr.train(tiny_config(0), tiny_data(0), out_dir=tmp_path)
    before = snapshot(tmp_path)
    fail_on_call(monkeypatch, fail_at)
    with pytest.raises(DiskFull):
        tr.train(tiny_config(1), tiny_data(1), out_dir=tmp_path)
    after = snapshot(tmp_path)
    assert after.keys() == before.keys()  # no temporary file left
    assert after[name] == before[name]


def test_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    cfg = tiny_config(0).vit
    vit.save_checkpoint(path, vit.init_params(cfg, np.random.default_rng(0)), cfg)
    before = snapshot(tmp_path)
    fail_on_call(monkeypatch, 0)
    with pytest.raises(DiskFull):
        vit.save_checkpoint(path, vit.init_params(cfg, np.random.default_rng(1)), cfg)
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("fail_at,name", [(0, "index.jsonl"), (1, "meta.json")])
def test_dataset_index_and_meta(tmp_path, monkeypatch, fail_at, name):
    sd.save_dataset(tmp_path, tiny_data(0), data_config(0))
    before = snapshot(tmp_path)
    fail_on_call(monkeypatch, fail_at)
    with pytest.raises(DiskFull):
        sd.save_dataset(tmp_path, tiny_data(1), data_config(1))
    after = snapshot(tmp_path)
    assert after.keys() == before.keys()
    assert after[name] == before[name]


@pytest.mark.parametrize("write,pixels", [
    (netpbm.write_pgm, lambda v: np.full((3, 4), v, dtype=np.uint8)),
    (netpbm.write_ppm, lambda v: np.full((3, 3, 4), v, dtype=np.uint8)),
])
def test_netpbm_images(tmp_path, monkeypatch, write, pixels):
    path = tmp_path / "image.pnm"
    write(path, pixels(7))
    before = snapshot(tmp_path)
    fail_on_call(monkeypatch, 0)
    with pytest.raises(DiskFull):
        write(path, pixels(9))
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("fail_at,name", [(0, "images/00000.ppm"), (1, "masks/00000.pgm")])
def test_dataset_images_and_masks(tmp_path, monkeypatch, fail_at, name):
    sd.save_dataset(tmp_path, tiny_data(0), data_config(0))
    before = snapshot(tmp_path)
    fail_on_call(monkeypatch, fail_at)
    with pytest.raises(DiskFull):
        sd.save_dataset(tmp_path, tiny_data(1), data_config(1))
    after = snapshot(tmp_path)
    assert after.keys() == before.keys()
    assert after[name] == before[name]


@pytest.mark.parametrize("fail_at,name", [(0, "map.pgm"), (1, "map.json")])
def test_exported_map_and_sidecar(tmp_path, monkeypatch, fail_at, name):
    def loc_map(value, refined):
        return lc.LocalizationMap(class_index=1, values=np.full((2, 2), value),
                                  layers_fused=(0, 2), refined=refined)

    lc.export_map(tmp_path / "map", loc_map(0.25, False))
    before = snapshot(tmp_path)
    fail_on_call(monkeypatch, fail_at)
    with pytest.raises(DiskFull):
        lc.export_map(tmp_path / "map", loc_map(0.75, True))
    after = snapshot(tmp_path)
    assert after.keys() == before.keys()
    assert after[name] == before[name]


def test_divergence_dump(tmp_path, monkeypatch):
    sample = tiny_data(0)[0]
    path = tr._dump_divergence(tmp_path, 0, [3], [sample], {"view_a": sample.image[None]})
    assert set(np.load(path)) == {"labels", "mask", "view_a"}
    before = snapshot(tmp_path)
    fail_on_call(monkeypatch, 0)
    with pytest.raises(DiskFull):
        tr._dump_divergence(tmp_path, 0, [3], [sample], {"view_b": sample.image[None]})
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("fail_at,name", [(0, "regularizer_grid.json"),
                                          (2, "augmentation_sweep.json")])
def test_ablation_tables(tmp_path, monkeypatch, capsys, fail_at, name):
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 1\n")
    monkeypatch.setattr(sd, "load_dataset", lambda path: (tiny_data(0), data_config(0)))
    out = tmp_path / "tables"

    def ablate(value):
        for table in ("run_regularizer_grid", "run_distance_sweep", "run_augmentation_sweep"):
            monkeypatch.setattr(tr, table, lambda *args, **kwargs: [{"value": value}])
        return cli.main(["ablate", "--config", str(config), "--data", str(tmp_path),
                         "--out", str(out)])

    assert ablate(1) == 0
    before = snapshot(out)
    fail_on_call(monkeypatch, fail_at)
    assert ablate(2) == 1  # the CLI reports an OSError as an error, exit 1
    assert capsys.readouterr().err == "attnreg: error: [Errno 28] no space left on device\n"
    after = snapshot(out)
    assert after.keys() == before.keys() and len(after) == 3
    assert after[name] == before[name]

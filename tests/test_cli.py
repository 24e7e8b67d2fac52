"""End-to-end command-line checks: every subcommand exercised through
main() with argv lists, JSON captured from stdout, exit codes asserted."""

import json
import shutil
import struct

import numpy as np
import pytest

import reference as ref
from attnreg import cli, netpbm, synthdata, vit
from attnreg import gridtransform as gt
from attnreg import localization as lc
from attnreg import trainer as tr
from attnreg.autodiff import Tape, Tensor
from attnreg.gridtransform import GridShape

TINY_CONFIG = """\
# small model so the whole CLI suite stays fast
vit.patch_size = 4
vit.grid = 4x4
vit.embed_dim = 8
vit.num_layers = 2
vit.num_heads = 2
vit.num_classes = 2
vit.in_channels = 3
weights.alpha = 1.0
weights.beta = 1.0
epochs = 1
batch_size = 4
learning_rate = 0.05
seed = 0
"""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    rc = cli.main(["gen-data", "--out", str(out), "--samples", "6",
                   "--classes", "2", "--seed", "3",
                   "--height", "16", "--width", "16"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, config_file, dataset_dir):
    out = tmp_path_factory.mktemp("run") / "train_out"
    rc = cli.main(["train", "--config", str(config_file),
                   "--data", str(dataset_dir), "--out", str(out)])
    assert rc == 0
    return out


def run_json(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestGenData:
    def test_writes_loadable_dataset(self, dataset_dir, capsys):
        rc, payload = run_json(capsys, ["gen-data", "--out", str(dataset_dir),
                                        "--samples", "6", "--classes", "2",
                                        "--seed", "3", "--height", "16",
                                        "--width", "16"])
        assert rc == 0
        assert payload["num_samples"] == 6
        samples, config = synthdata.load_dataset(dataset_dir)
        assert len(samples) == 6
        assert config.num_classes == 2

    def test_same_seed_same_bytes(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["gen-data", "--out", str(out), "--samples", "4",
                             "--classes", "2", "--seed", "11",
                             "--height", "16", "--width", "16"]) == 0
            dirs.append(out)
        for rel in ("index.jsonl", "meta.json", "images/00000.ppm", "masks/00003.pgm"):
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()

    def test_bad_class_count_exits_1(self, tmp_path):
        rc = cli.main(["gen-data", "--out", str(tmp_path / "x"),
                       "--samples", "2", "--classes", "99"])
        assert rc == 1


class TestTrain:
    def test_writes_artifacts_and_reports_final_loss(self, trained_dir, capsys):
        assert (trained_dir / "checkpoint.ckpt").is_file()
        assert (trained_dir / "log.jsonl").is_file()

    def test_stdout_reports_final_epoch(self, config_file, dataset_dir,
                                        tmp_path, capsys):
        rc, payload = run_json(capsys, ["train", "--config", str(config_file),
                                        "--data", str(dataset_dir),
                                        "--out", str(tmp_path / "t")])
        assert rc == 0
        assert payload["epochs"] == 1
        assert np.isfinite(payload["final"]["total"])

    def test_override_flags_change_the_saved_config(self, config_file, dataset_dir,
                                                    tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", str(config_file),
                       "--data", str(dataset_dir), "--out", str(out),
                       "--alpha", "0", "--beta", "0", "--distance", "l2",
                       "--aug", "rot90,rot270", "--epochs", "2", "--lr", "0.01"])
        assert rc == 0
        text = (out / "train_config.txt").read_text()
        assert "weights.alpha = 0.0" in text
        assert "weights.distance = l2" in text
        assert "augmentations = rot90,rot270" in text
        assert "epochs = 2" in text

    @pytest.mark.parametrize("flag,value", [("alpha", "0.5"), ("beta", "2"),
                                            ("distance", "l2"), ("aug", "rot90,fliph"),
                                            ("epochs", "3"), ("lr", "0.2"), ("seed", "7")])
    def test_flag_sets_config_as_its_line_does(self, config_file, tmp_path, flag, value):
        key = cli._TRAIN_FLAGS[flag]
        with_line = tmp_path / "train.cfg"
        with_line.write_text(TINY_CONFIG + f"{key} = {value}\n")
        parse = cli.build_parser().parse_args
        common = ["train", "--data", "d", "--out", "o", "--config"]
        by_flag = cli._train_config(parse(common + [str(config_file), f"--{flag}", value]))
        assert by_flag == cli._train_config(parse(common + [str(with_line)]))
        assert by_flag != cli._train_config(parse(common + [str(config_file)]))

    def test_resize_over_the_token_cap_exits_1_before_reading_data(self, config_file,
                                                                    tmp_path, capsys):
        """A 100x100 view, 10,000 tokens, is refused before the (missing)
        dataset is read or the output directory is made."""
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", str(config_file), "--data",
                       str(tmp_path / "missing"), "--out", str(out),
                       "--aug", "resize:100x100"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("attnreg: error: augmentation resize:100x100: grid 100x100 "
                              "has 10000 tokens, over the cap of 1024")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("epochs", "many"), ("alpha", "-1"),
                                            ("distance", "l3"), ("aug", "spin")])
    def test_bad_flag_value_exits_1(self, config_file, dataset_dir, tmp_path, capsys,
                                    flag, value):
        rc = cli.main(["train", "--config", str(config_file), "--data", str(dataset_dir),
                       "--out", str(tmp_path / "t"), f"--{flag}", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert "attnreg: error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", ["learning_rate = nan", "learning_rate = inf",
                                      "clip_norm = nan", "poly_power = nan",
                                      "weights.alpha = nan", "weights.beta = inf",
                                      "vit.mlp_ratio = nan", "vit.mlp_ratio = inf",
                                      "seed = -1"])
    def test_config_value_out_of_range_exits_1(self, dataset_dir, tmp_path, capsys, line):
        config = tmp_path / "train.cfg"
        config.write_text(TINY_CONFIG + line + "\n")  # a repeated key overrides
        out = tmp_path / "t"
        rc = cli.main(["train", "--config", str(config), "--data", str(dataset_dir),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "attnreg: error:" in err and "Traceback" not in err
        assert not (out / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("line", ["loss_layers = 1:3", "map_layers = 0:3"])
    def test_layer_range_outside_the_model_exits_1(self, tmp_path, capsys, line):
        config = tmp_path / "train.cfg"
        config.write_text(TINY_CONFIG + line + "\n")
        rc = cli.main(["train", "--config", str(config), "--data", str(tmp_path / "absent"),
                       "--out", str(tmp_path / "t")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"attnreg: error: {line.split()[0]}: layer range")

    def test_holdout_without_eval_every_exits_1(self, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("holdout_fraction = 0.2\n")
        rc = cli.main(["train", "--config", str(config), "--data", str(tmp_path / "absent"),
                       "--out", str(tmp_path / "t")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "holdout_fraction" in err and "eval_every" in err and "Traceback" not in err
        assert not (tmp_path / "t").exists()

    def test_holdout_never_scored_exits_1(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text(TINY_CONFIG + "eval_every = 2\nholdout_fraction = 0.25\n")
        argv = ["train", "--config", str(config), "--data", str(dataset_dir)]
        rc = cli.main(argv + ["--out", str(tmp_path / "t")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "eval_every" in err and "epochs" in err and "Traceback" not in err
        assert not (tmp_path / "t").exists()
        # a flag that raises the file's epochs lifts the refusal
        rc, payload = run_json(capsys, argv + ["--out", str(tmp_path / "u"), "--epochs", "4"])
        assert rc == 0
        assert payload["epochs"] == 4 and "holdout_miou" in payload["final"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_exits_2(self, config_file, dataset_dir, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(config_file),
                       "--data", str(dataset_dir), "--out", str(tmp_path / "d"),
                       "--lr", "1e200", "--epochs", "2"])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err


class TestEval:
    def test_refined_on(self, trained_dir, dataset_dir, capsys):
        rc, payload = run_json(capsys, ["eval", "--checkpoint",
                                        str(trained_dir / "checkpoint.ckpt"),
                                        "--data", str(dataset_dir),
                                        "--refined", "on"])
        assert rc == 0
        assert "refined" in payload and "unrefined" not in payload
        assert payload["num_images"] == 6
        miou = payload["refined"]["miou"]
        assert miou is None or 0.0 <= miou <= 1.0

    def test_refined_off_and_layer_range(self, trained_dir, dataset_dir, capsys):
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                "--data", str(dataset_dir), "--refined", "off",
                "--layers", "0..2"]
        rc, payload = run_json(capsys, argv)
        assert rc == 0
        assert "unrefined" in payload and "refined" not in payload
        # colon spelling of the range is accepted too and agrees
        argv[argv.index("0..2")] = "0:2"
        rc2, payload2 = run_json(capsys, argv)
        assert rc2 == 0
        assert payload2 == payload

    @pytest.mark.parametrize("layers", ["all", "2", "0-2"])
    def test_bad_layer_range_exits_1(self, trained_dir, dataset_dir, capsys, layers):
        rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                       "--data", str(dataset_dir), "--layers", layers])
        assert rc == 1
        assert "bad layer range" in capsys.readouterr().err

    def test_sweep_layers_table(self, trained_dir, dataset_dir, capsys):
        rc, payload = run_json(capsys, ["eval", "--checkpoint",
                                        str(trained_dir / "checkpoint.ckpt"),
                                        "--data", str(dataset_dir),
                                        "--sweep-layers"])
        assert rc == 0
        starts = [row["start_layer"] for row in payload["layer_sweep"]]
        assert starts == [0, 1]

    def test_missing_checkpoint_exits_1(self, dataset_dir, capsys):
        rc = cli.main(["eval", "--checkpoint", "/nonexistent.ckpt",
                       "--data", str(dataset_dir)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_1(self, trained_dir, dataset_dir, tmp_path, capsys):
        whole = (trained_dir / "checkpoint.ckpt").read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(whole[:len(whole) // 2])
        rc = cli.main(["eval", "--checkpoint", str(cut), "--data", str(dataset_dir)])
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    def test_nan_in_checkpoint_exits_1(self, trained_dir, dataset_dir, tmp_path, capsys):
        whole = (trained_dir / "checkpoint.ckpt").read_bytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(whole[:-8] + struct.pack("<d", float("nan")))
        rc = cli.main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir)])
        assert rc == 1
        assert "NaN or Inf" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(5, 7), (32, 32)])
    def test_misshaped_mask_exits_1(self, trained_dir, dataset_dir, tmp_path, capsys, shape):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        netpbm.write_pgm(data / "masks" / "00000.pgm", np.zeros(shape, dtype=np.uint8))
        rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                       "--data", str(data)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "line 1" in err and "mask" in err

    def test_mask_label_above_the_model_exits_1(self, trained_dir, dataset_dir, tmp_path,
                                                capsys):
        """A dataset of one class more than the model, where no image has
        it present but a mask pixel holds it: the loader takes it, and
        evaluation refuses the label the model cannot score."""
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        meta = json.loads((data / "meta.json").read_text())
        meta["num_classes"] += 1
        (data / "meta.json").write_text(json.dumps(meta))
        index = data / "index.jsonl"
        records = [json.loads(line) for line in index.read_text().splitlines()]
        index.write_text("".join(json.dumps({**rec, "labels": rec["labels"] + [0]}) + "\n"
                                 for rec in records))
        mask = netpbm.read_netpbm(data / "masks" / "00000.pgm")
        mask[0, 0] = meta["num_classes"]
        netpbm.write_pgm(data / "masks" / "00000.pgm", mask.astype(np.uint8))
        assert synthdata.load_dataset(data)[0][0].mask[0, 0] == 3
        rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                       "--data", str(data)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "attnreg: error: gt labels outside 0..2" in err

    @pytest.mark.parametrize("cut", ["short_index", "long_labels", "mask_is_a_directory",
                                     "huge_seed"])
    def test_malformed_dataset_exits_1(self, trained_dir, dataset_dir, tmp_path, capsys, cut):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        index = data / "index.jsonl"
        if cut == "short_index":
            index.write_bytes(index.read_bytes()[:-30])
        else:
            lines = index.read_text().splitlines()
            rec = json.loads(lines[0])
            if cut == "long_labels":
                rec["labels"] = rec["labels"] + [1]
            elif cut == "mask_is_a_directory":
                rec["mask"] = "masks"
            else:  # written as Infinity, which reads back as 1e400 does
                rec["seed"] = [float("inf"), 0]
            index.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                       "--data", str(data)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "attnreg: error:" in err and "Traceback" not in err


class TestSeeds:
    def test_writes_both_maps_with_sidecars(self, trained_dir, dataset_dir,
                                            tmp_path, capsys):
        image = dataset_dir / "images" / "00000.ppm"
        rc, payload = run_json(capsys, ["seeds", "--checkpoint",
                                        str(trained_dir / "checkpoint.ckpt"),
                                        "--image", str(image),
                                        "--class", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert len(payload["written"]) == 4
        pgms = sorted(p for p in payload["written"] if p.endswith(".pgm"))
        assert [p.rsplit("_", 1)[1] for p in pgms] == ["refined.pgm", "unrefined.pgm"]
        for p in pgms:
            values = netpbm.read_netpbm(p)
            assert values.shape == (4, 4)  # patch-grid resolution
        sidecars = [p for p in payload["written"] if p.endswith(".json")]
        flags = sorted(json.loads(open(p).read())["refined"] for p in sidecars)
        assert flags == [False, True]

    def test_all_is_not_a_layer_range(self, trained_dir, dataset_dir, tmp_path, capsys):
        rc = cli.main(["seeds", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                       "--image", str(dataset_dir / "images" / "00000.ppm"),
                       "--class", "1", "--out", str(tmp_path), "--layers", "all"])
        assert rc == 1
        assert "bad layer range" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_out_of_range_class_exits_1(self, trained_dir, dataset_dir, tmp_path, capsys):
        rc = cli.main(["seeds", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                       "--image", str(dataset_dir / "images" / "00000.ppm"),
                       "--class", "7", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "attnreg: error: classes [7] outside 0..1\n"

    def test_off_grid_image_gives_maps_on_its_grid(self, trained_dir, tmp_path, capsys):
        checkpoint = trained_dir / "checkpoint.ckpt"
        params, cfg = vit.load_checkpoint(checkpoint)
        assert cfg.use_positional_embedding and cfg.grid.n == 16
        pixels = np.random.default_rng(4).integers(0, 256, size=(3, 24, 20), dtype=np.uint8)
        netpbm.write_ppm(tmp_path / "wide.ppm", pixels)
        rc, payload = run_json(capsys, ["seeds", "--checkpoint", str(checkpoint),
                                        "--image", str(tmp_path / "wide.ppm"), "--class", "0",
                                        "--layers", "0:2", "--out", str(tmp_path / "maps")])
        assert rc == 0
        # the one-map API and the reference refine on a fresh forward of
        # the same image
        frozen = {name: Tensor(p.data) for name, p in params.items()}
        with Tape() as tape:
            res = vit.forward(pixels / 255.0, frozen, cfg)
        adjoints = vit.attention_adjoints(tape, res, np.eye(cfg.num_classes)[0])
        plain = lc.grad_localization(adjoints, GridShape(6, 5), 0, (0, 2)).values
        refined = ref.refine(plain, [rec.matrix.data for rec in res.attentions], (0, 2))
        for tag, values in (("unrefined", plain), ("refined", refined)):
            written = netpbm.read_netpbm(tmp_path / "maps" / f"wide_class0_{tag}.pgm")
            assert written.shape == (6, 5)
            assert np.array_equal(written, np.rint(values * 255.0))


class TestCheckInversion:
    def test_zero_trials_exits_1(self, capsys):
        rc = cli.main(["check-inversion", "--grid", "2x2", "--transform", "rot90",
                       "--oracle", "--trials", "0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "attnreg: error: --trials" in err and "Traceback" not in err

    @pytest.mark.parametrize("transform", ["fliph", "rot90", "fliphv"])
    def test_roundtrip_and_oracle_agree(self, transform, capsys):
        rc, payload = run_json(capsys, ["check-inversion", "--grid", "3x4",
                                        "--transform", transform, "--oracle",
                                        "--trials", "5"])
        assert rc == 0
        assert payload["roundtrip_error"] <= 1e-12
        assert payload["fast_vs_kronecker_error"] <= 1e-12

    def test_impossible_tolerance_exits_2(self, monkeypatch):
        # a correct inversion is exact, so only one that misses can fail
        real = gt.invert_attention_fast
        monkeypatch.setattr(gt, "invert_attention_fast", lambda *a: Tensor(real(*a).data + 1e-9))
        rc = cli.main(["check-inversion", "--grid", "2x2", "--transform", "rot90",
                       "--trials", "1", "--tolerance", "5e-324"])
        assert rc == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_exits_1(self, tolerance, capsys):
        rc = cli.main(["check-inversion", "--grid", "2x2", "--transform", "rot90",
                       "--trials", "1", "--tolerance", tolerance])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""  # no report
        assert err.startswith("attnreg: error: --tolerance") and "Traceback" not in err

    def test_unknown_transform_exits_1(self, capsys):
        rc = cli.main(["check-inversion", "--grid", "2x2", "--transform", "swirl"])
        assert rc == 1
        assert "unknown transform" in capsys.readouterr().err

    def test_grid_over_the_token_cap_exits_1(self, capsys):
        # refused by the command before any trial, with or without the
        # oracle (whose own refusal names invert_attention_kronecker)
        for oracle in ([], ["--oracle"]):
            rc = cli.main(["check-inversion", "--grid", "33x32", "--transform", "fliph",
                           "--trials", "1", *oracle])
            out, err = capsys.readouterr()
            assert rc == 1
            assert out == ""
            assert err == ("attnreg: error: check-inversion: grid 33x32 has 1056 tokens, "
                           "over the cap of 1024\n")

    def test_grid_at_the_token_cap_runs(self, capsys):
        rc, payload = run_json(capsys, ["check-inversion", "--grid", "32x32",
                                        "--transform", "fliph", "--trials", "1"])
        assert rc == 0
        assert payload["roundtrip_error"] == 0.0

    def test_negative_seed_exits_1(self, capsys):
        rc = cli.main(["check-inversion", "--grid", "2x2", "--transform", "fliph",
                       "--seed", "-1"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == "attnreg: error: --seed must be >= 0, got -1\n"


class TestGradCheck:
    def test_small_model_passes(self, config_file, capsys):
        rc, payload = run_json(capsys, ["grad-check", "--config", str(config_file),
                                        "--max-coords", "4"])
        assert rc == 0
        assert payload["passed"] is True
        assert payload["max_relative_error"] < 1e-4
        assert len(payload["checks"]) == 11
        assert {"class_logit/blocks.1.attn.wv", "class_logit/blocks.1.attn.wq",
                "total_loss/blocks.1.mlp.w2"} <= payload["checks"].keys()
        # the consistency terms of a FLIP_H chunk and of a resize:6x6 one
        for tag in ("", "@resize:6x6"):
            assert {f"activation_loss{tag}/blocks.0.attn.wk",
                    f"affinity_loss{tag}/blocks.0.attn.wq",
                    f"total_loss{tag}/blocks.0.mlp.w1"} <= payload["checks"].keys()

    @pytest.mark.parametrize("flag,value", [("--max-coords", "0"), ("--max-coords", "-1"),
                                            ("--step", "0"), ("--seed", "-1")])
    def test_check_of_nothing_exits_1(self, config_file, capsys, flag, value):
        rc = cli.main(["grad-check", "--config", str(config_file), flag, value])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""  # no "passed" report
        refusal = "--seed must be >= 0" if flag == "--seed" else "grad_check:"
        assert err.startswith(f"attnreg: error: {refusal}") and "Traceback" not in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_exits_1(self, config_file, tolerance, capsys):
        rc = cli.main(["grad-check", "--config", str(config_file), "--tolerance", tolerance])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""  # no "passed" report
        assert err.startswith("attnreg: error: --tolerance") and "Traceback" not in err


class TestAblate:
    def test_three_tables(self, config_file, dataset_dir, tmp_path, capsys):
        out = tmp_path / "tables"
        rc, payload = run_json(capsys, ["ablate", "--config", str(config_file),
                                        "--data", str(dataset_dir),
                                        "--out", str(out)])
        assert rc == 0
        assert [row["cell"] for row in payload["regularizer_grid"]] == \
            ["baseline", "act_only", "aff_only", "full"]
        assert [row["distance"] for row in payload["distance_sweep"]] == \
            ["l1", "l2", "smooth_l1"]
        assert len(payload["augmentation_sweep"]) == 4
        for name in ("regularizer_grid", "distance_sweep", "augmentation_sweep"):
            assert json.loads((out / f"{name}.json").read_text()) == payload[name]


def no_training(monkeypatch) -> list:
    """Record every training chunk run from here on."""
    chunks = []
    monkeypatch.setattr(tr, "_chunk_backward", lambda chunk, *a, **k: chunks.append(chunk) or {})
    return chunks


class TestOutIsAFile:
    """An --out that cannot be a directory fails before any training."""

    def test_train(self, config_file, dataset_dir, tmp_path, capsys, monkeypatch):
        chunks = no_training(monkeypatch)
        (tmp_path / "taken").write_text("not a directory\n")
        TestOSErrors.check(capsys, ["train", "--config", str(config_file), "--data",
                                    str(dataset_dir), "--out", str(tmp_path / "taken")])
        assert chunks == []

    def test_ablate(self, config_file, dataset_dir, tmp_path, capsys, monkeypatch):
        chunks = no_training(monkeypatch)
        (tmp_path / "taken").write_text("not a directory\n")
        TestOSErrors.check(capsys, ["ablate", "--config", str(config_file), "--data",
                                    str(dataset_dir), "--out", str(tmp_path / "taken")])
        assert chunks == []


class TestOSErrors:
    """A path of the wrong kind ends as an error message, not a traceback."""

    def test_checkpoint_is_a_directory(self, dataset_dir, tmp_path, capsys):
        self.check(capsys, ["seeds", "--checkpoint", str(tmp_path), "--image",
                            str(dataset_dir / "images" / "00000.ppm"), "--class", "0",
                            "--out", str(tmp_path / "maps")])

    def test_config_is_a_directory(self, dataset_dir, tmp_path, capsys):
        self.check(capsys, ["train", "--config", str(tmp_path), "--data", str(dataset_dir),
                            "--out", str(tmp_path / "run")])

    def test_gen_data_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("not a directory\n")
        self.check(capsys, ["gen-data", "--out", str(tmp_path / "taken"), "--samples", "2"])

    @staticmethod
    def check(capsys, argv):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("attnreg: error:") and "Traceback" not in err


class TestPlumbing:
    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["train"]) == 1  # missing required flags
        assert cli.main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_help_exits_0_and_documents_exit_codes(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "exit codes" in capsys.readouterr().out

    def test_out_of_memory_is_one_line(self, tmp_path, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("Unable to allocate 21.8 TiB")

        monkeypatch.setattr(synthdata, "generate", exhausted)
        rc = cli.main(["gen-data", "--out", str(tmp_path / "big"), "--samples", "1"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == "attnreg: error: out of memory: Unable to allocate 21.8 TiB\n"
        assert not (tmp_path / "big").exists()

    def test_pretty_indents_json(self, capsys):
        rc = cli.main(["check-inversion", "--grid", "2x2",
                       "--transform", "identity", "--pretty", "--trials", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("{\n  ")

    def test_acr_log_env_raises_verbosity(self, dataset_dir, tmp_path,
                                          monkeypatch, capsys):
        monkeypatch.setenv("ACR_LOG", "info")
        rc = cli.main(["gen-data", "--out", str(tmp_path / "v"), "--samples", "1",
                       "--classes", "1", "--seed", "0"])
        assert rc == 0
        assert "wrote 1 samples" in capsys.readouterr().err

    def test_default_logging_is_quiet(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ACR_LOG", raising=False)
        rc = cli.main(["gen-data", "--out", str(tmp_path / "q"), "--samples", "1",
                       "--classes", "1", "--seed", "0"])
        assert rc == 0
        assert capsys.readouterr().err == ""

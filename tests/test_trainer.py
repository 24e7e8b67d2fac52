"""Trainer: config file parsing, determinism, the lr=0 no-op, loss
descent, divergence dumps, evaluation structure, and the ablation
harness plumbing."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg import metrics as mt
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.errors import ContractError, NumericalError, ResourceError
from attnreg.gridtransform import FLIP_H, FLIP_V, GridShape, SpatialTransform
from attnreg.regularizer import LossWeights


def tiny_train_config(**kw):
    base = dict(
        vit=vit.ViTConfig(patch_size=4, grid=GridShape(4, 4), embed_dim=16,
                          num_layers=2, num_heads=2, num_classes=3, in_channels=3),
        weights=LossWeights(alpha=10.0, beta=10.0),
        epochs=2, batch_size=4, learning_rate=0.05, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def tiny_data(n=12, seed=5):
    return sd.generate(sd.DatasetConfig(num_samples=n, seed=seed, height=16, width=16))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            tiny_train_config(learning_rate=-0.1)
        with pytest.raises(ContractError):
            tiny_train_config(epochs=0)
        with pytest.raises(ContractError):
            tiny_train_config(momentum=1.0)
        with pytest.raises(ContractError):
            tiny_train_config(clip_norm=0.0)
        with pytest.raises(ContractError):
            tiny_train_config(augmentations=())
        with pytest.raises(ContractError):
            tiny_train_config(holdout_fraction=1.0)

    def test_resize_over_the_token_cap_refused(self):
        """32x32 is the cap, 1024 tokens; one more row is over it."""
        tiny_train_config(augmentations=(SpatialTransform.parse("resize:32x32"),))
        with pytest.raises(ResourceError, match="1056 tokens"):
            tiny_train_config(augmentations=(FLIP_H, SpatialTransform.parse("resize:33x32")))
        with pytest.raises(ResourceError):
            tr.parse_train_config("augmentations = resize:100x100\n")

    @pytest.mark.parametrize("knobs", [dict(holdout_fraction=0.25),
                                       dict(eval_every=1)], ids=["holdout_only", "eval_only"])
    def test_holdout_and_eval_every_go_together(self, knobs):
        """A holdout that is never scored drops training data for nothing,
        and eval_every with nothing held out does nothing."""
        with pytest.raises(ContractError, match="holdout_fraction.*eval_every|"
                                                "eval_every.*holdout_fraction"):
            tiny_train_config(**knobs)
        with pytest.raises(ContractError):
            tr.parse_train_config("".join(f"{k} = {v}\n" for k, v in knobs.items()))

    def test_format_parse_roundtrip(self):
        cfg = tiny_train_config(augmentations=(FLIP_H, FLIP_V), momentum=0.9,
                                poly_power=0.9, clip_norm=None, seed=3,
                                loss_layers=(0, 2), map_layers=(1, 2),
                                eval_every=2, holdout_fraction=0.25)
        assert tr.parse_train_config(tr.format_train_config(cfg)) == cfg

    def test_default_roundtrip(self):
        cfg = tr.TrainConfig()
        assert tr.parse_train_config(tr.format_train_config(cfg)) == cfg

    def test_parse_comments_and_spacing(self):
        cfg = tr.parse_train_config(
            "# a comment\n\n  epochs = 7  # trailing\nvit.grid= 2x3\n"
            "augmentations = fliph, rot90\n")
        assert cfg.epochs == 7
        assert cfg.vit.grid == GridShape(2, 3)
        assert [str(t) for t in cfg.augmentations] == ["fliph", "rot90"]

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ContractError):
            tr.parse_train_config("lerning_rate = 0.1\n")
        with pytest.raises(ContractError):
            tr.parse_train_config("vit.depth = 3\n")
        with pytest.raises(ContractError):
            tr.parse_train_config("epochs: 3\n")

    def test_parse_rejects_bad_values(self):
        with pytest.raises(ContractError):
            tr.parse_train_config("epochs = many\n")

    def test_key_table_covers_every_field(self):
        def names(cls, prefix=""):
            return {prefix + f.name for f in dataclasses.fields(cls)}
        top = names(tr.TrainConfig) - {"vit", "weights"}
        expected = top | names(vit.ViTConfig, "vit.") | names(LossWeights, "weights.")
        assert set(tr.CONFIG_KEYS) == expected

    @pytest.mark.parametrize("key,unset", [("loss_layers", "all"), ("map_layers", "default")])
    def test_layer_range_spellings(self, key, unset):
        colon = tr.parse_train_config(f"{key} = 0:2\n")
        assert getattr(colon, key) == (0, 2)
        assert tr.parse_train_config(f"{key} = 0..2\n") == colon
        assert getattr(tr.parse_train_config(f"{key} = {unset}\n"), key) is None
        other = "default" if unset == "all" else "all"
        for bad in (other, unset.upper(), "2", "0-2", "0..2:3", "0:2..3"):
            with pytest.raises(ContractError):
                tr.parse_train_config(f"{key} = {bad}\n")

    @pytest.mark.parametrize("key,value", [("loss_layers", "1:3"), ("map_layers", "0:3"),
                                           ("loss_layers", "1:1"), ("map_layers", "2:1")])
    def test_layer_range_outside_the_model_rejected(self, key, value):
        with pytest.raises(ContractError, match=key):
            tr.parse_train_config(f"vit.num_layers = 2\n{key} = {value}\n")
        with pytest.raises(ContractError, match=key):  # however the config is built
            tr.TrainConfig(vit=vit.ViTConfig(num_layers=2),
                           **{key: tr.parse_layer_range(value, "unset")})

    def test_layer_range_inside_the_model_accepted(self):
        cfg = tr.parse_train_config("vit.num_layers = 3\nloss_layers = 1:3\nmap_layers = 0:3\n")
        assert (cfg.loss_layers, cfg.map_layers) == ((1, 3), (0, 3))
        assert tr._loss_layer_slice(cfg) == (1, 3)
        assert tr._loss_layer_slice(dataclasses.replace(cfg, loss_layers=None)) == (0, 3)

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^```\n(vit\.patch_size = .*?)^```$", readme, re.S | re.M)
        cfg = tr.parse_train_config(block.group(1))
        assert cfg.loss_layers is None and cfg.vit.embed_dim == 16


class TestTraining:
    def test_lr_zero_is_identity(self):
        cfg = tiny_train_config(learning_rate=0.0, epochs=1)
        data = tiny_data(4)
        before = vit.init_params(cfg.vit, np.random.default_rng([cfg.seed, 0]))
        result = tr.train(cfg, data)
        assert list(result.params) == list(before)
        for name in before:
            assert np.array_equal(result.params[name].data, before[name].data), name

    def test_deterministic_given_seed(self):
        cfg = tiny_train_config()
        data = tiny_data()
        a = tr.train(cfg, data)
        b = tr.train(cfg, data)
        assert a.log == b.log
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_seed_changes_trajectory(self):
        data = tiny_data()
        a = tr.train(tiny_train_config(seed=0), data)
        b = tr.train(tiny_train_config(seed=1), data)
        assert a.log != b.log

    def test_loss_decreases(self):
        cfg = tiny_train_config(epochs=8, learning_rate=0.1,
                                weights=LossWeights(alpha=1.0, beta=1.0))
        result = tr.train(cfg, tiny_data())
        assert result.log[-1]["total"] < result.log[0]["total"]

    def test_baseline_total_is_classification_only(self):
        cfg = tiny_train_config(weights=LossWeights(alpha=0.0, beta=0.0), epochs=1)
        result = tr.train(cfg, tiny_data(6))
        rec = result.log[0]
        assert rec["l_act"] == 0.0 and rec["l_aff"] == 0.0
        assert rec["total"] == pytest.approx(rec["l_cls"], abs=1e-15)

    def test_poly_lr_decays(self):
        cfg = tiny_train_config(poly_power=1.0, epochs=3)
        result = tr.train(cfg, tiny_data(8))
        lrs = [r["lr"] for r in result.log]
        assert lrs[0] > lrs[1] > lrs[2]

    def test_momentum_changes_result(self):
        data = tiny_data(8)
        plain = tr.train(tiny_train_config(), data)
        heavy = tr.train(tiny_train_config(momentum=0.9), data)
        assert any(not np.array_equal(plain.params[n].data, heavy.params[n].data)
                   for n in plain.params)

    def test_output_artifacts(self, tmp_path):
        cfg = tiny_train_config(epochs=2)
        result = tr.train(cfg, tiny_data(6), out_dir=tmp_path / "run")
        loaded, vcfg = vit.load_checkpoint(result.checkpoint_path)
        assert vcfg == cfg.vit
        for name in result.params:
            assert np.array_equal(loaded[name].data, result.params[name].data)
        lines = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert lines == result.log
        reparsed = tr.parse_train_config((tmp_path / "run" / "train_config.txt").read_text())
        assert reparsed == cfg

    def test_grad_norm_fields_are_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_train_config(epochs=3)
        logs = [tr.train(cfg, tiny_data(10), out_dir=tmp_path / run).log_path.read_bytes()
                for run in ("a", "b")]
        assert logs[0] == logs[1]
        records = [json.loads(line) for line in logs[0].splitlines()]
        assert len(records) == 3
        for record in records:
            assert 0.0 < record["grad_norm_mean"] <= record["grad_norm_max"]
            assert isinstance(record["clipped_steps"], int)

    def test_residual_fields_are_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_train_config(epochs=2, loss_layers=(1, 2))
        logs = [tr.train(cfg, tiny_data(10), out_dir=tmp_path / run).log_path.read_bytes()
                for run in ("a", "b")]
        assert logs[0] == logs[1]
        for line in logs[0].splitlines():
            record = json.loads(line)
            residuals = {k: v for k, v in record.items() if "residual" in k}
            # one field per term and loss layer, named by the model's layer
            assert residuals.keys() == {"act_residual_1", "aff_residual_1"}
            assert all(v > 0.0 for v in residuals.values())

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)],
                             ids=["baseline", "act_only", "aff_only"])
    def test_residuals_of_a_term_weighted_zero_cost_no_gradient_work(self, monkeypatch,
                                                                     alpha, beta):
        """Every cell logs both terms' residuals, the same at the first
        epoch whatever the weights (the parameters are the same until the
        first update); a term weighted 0 stays out of the loss, and its
        distance's slope, the backward's work, is never computed."""
        slopes = []
        elements, slope = ad._DISTANCE_TERMS["l1"]
        monkeypatch.setitem(ad._DISTANCE_TERMS, "l1",
                            (elements, lambda d: slopes.append(d.shape[-2]) or slope(d)))
        cfg = tiny_train_config(epochs=1, batch_size=6)
        full = tr.train(cfg, tiny_data(6)).log[0]
        slopes.clear()
        cell = tr.train(dataclasses.replace(cfg, weights=LossWeights(alpha=alpha, beta=beta)),
                        tiny_data(6)).log[0]
        for key in ("act_residual_0", "aff_residual_1"):
            assert cell[key] == full[key] > 0.0
        assert (cell["l_act"] == 0.0) == (alpha == 0.0)
        assert (cell["l_aff"] == 0.0) == (beta == 0.0)
        rows = {1} if alpha else set()  # the class row's block has one row
        rows |= {16} if beta else set()  # the patch block of a 4x4 grid
        assert set(slopes) == rows

    def test_clipped_steps_counts_clipped_updates(self):
        """Under a tiny clip_norm every update is clipped; with none, no
        update is, and the norms are still logged: the same as under a
        clip_norm no update reaches."""
        data = tiny_data(10)  # 3 updates per epoch at batch size 4
        tiny = tr.train(tiny_train_config(clip_norm=1e-9), data)
        assert [r["clipped_steps"] for r in tiny.log] == [3, 3]
        off = tr.train(tiny_train_config(clip_norm=None), data)
        assert [r["clipped_steps"] for r in off.log] == [0, 0]
        high = tr.train(tiny_train_config(clip_norm=1e9), data)
        assert off.log == high.log
        assert all(r["grad_norm_max"] > 0.0 for r in off.log)

    def test_holdout_miou_logged(self):
        cfg = tiny_train_config(epochs=2, eval_every=1, holdout_fraction=0.34)
        result = tr.train(cfg, tiny_data(9))
        assert all("holdout_miou" in r for r in result.log)

    def test_holdout_never_scored_is_refused(self, tmp_path):
        """eval_every beyond the last epoch would hold samples out of
        training without ever scoring them."""
        with pytest.raises(ContractError, match="eval_every 2 > epochs 1"):
            cfg = tiny_train_config(epochs=1, eval_every=2, holdout_fraction=0.25)
            tr.train(cfg, tiny_data(8), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_aborts_with_dump(self, tmp_path):
        cfg = tiny_train_config(learning_rate=1e200, clip_norm=None, epochs=1,
                                batch_size=1)
        with pytest.raises(NumericalError, match="diagnostics"):
            tr.train(cfg, tiny_data(4), out_dir=tmp_path / "boom")
        dumps = list((tmp_path / "boom").glob("divergence_*.npz"))
        assert len(dumps) == 1
        payload = np.load(dumps[0])
        assert {"view_a", "view_b", "labels", "mask"} <= set(payload.files)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            tr.train(tiny_train_config(), [])

    def test_label_shape_checked(self):
        data = tiny_data(2)
        data[0].labels = np.array([1.0])
        with pytest.raises(ContractError):
            tr.train(tiny_train_config(), data)


class TestEvaluate:
    def setup_method(self):
        self.cfg = tiny_train_config(epochs=1)
        self.data = tiny_data(6)
        self.result = tr.train(self.cfg, self.data)

    def test_summary_structure(self):
        s = tr.evaluate(self.result.params, self.cfg.vit, self.data, sweep_layers=True)
        assert s["num_images"] == 6
        for key in ("unrefined", "refined"):
            entry = s[key]
            assert 0.0 <= entry["miou"] <= 1.0
            assert entry["threshold"] in mt.THRESHOLDS
            assert len(entry["per_class_iou"]) == self.cfg.vit.num_classes + 1
        assert [r["start_layer"] for r in s["layer_sweep"]] == [0, 1]
        json.dumps(s)  # the whole summary is JSON-serializable

    def test_eval_leaves_param_grads_untouched(self):
        for p in self.result.params.values():
            p.zero_grad()
        tr.evaluate(self.result.params, self.cfg.vit, self.data[:2])
        assert all(p.grad is None for p in self.result.params.values())

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            tr.evaluate(self.result.params, self.cfg.vit, [])


class TestAblationHarness:
    def test_regularizer_grid_cells(self):
        cfg = tiny_train_config(epochs=1, weights=LossWeights(alpha=5.0, beta=7.0))
        rows = tr.run_regularizer_grid(cfg, tiny_data(6))
        assert [r["cell"] for r in rows] == ["baseline", "act_only", "aff_only", "full"]
        assert [(r["alpha"], r["beta"]) for r in rows] == \
            [(0.0, 0.0), (5.0, 0.0), (0.0, 7.0), (5.0, 7.0)]
        for r in rows:
            assert 0.0 <= r["refined_miou"] <= 1.0

    def test_distance_sweep(self):
        cfg = tiny_train_config(epochs=1)
        rows = tr.run_distance_sweep(cfg, tiny_data(4))
        assert [r["distance"] for r in rows] == ["l1", "l2", "smooth_l1"]

    def test_augmentation_sweep_smallest(self):
        cfg = tiny_train_config(epochs=1)
        rows = tr.run_augmentation_sweep(cfg, tiny_data(4))
        assert [r["augmentation"] for r in rows] == ["fliph", "flipv", "rot", "fliph+rot"]

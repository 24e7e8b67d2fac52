"""Acceptance gate: ten checks, one per release criterion, each printing a
summary line. Covers inversion exactness against the dense oracle, the
permutation group laws, end-to-end attention equivariance, finite-difference
gradient fidelity, zero-loss fixed points, the toy-scale regularization trend,
seed scale invariance, metric correctness, and training determinism.

Criterion 7 trains 12 small models (4 regularizer cells x 3 seeds) on a
500-sample dataset; expect a few minutes of runtime for this module.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg import cli
from attnreg import gridtransform as gt
from attnreg import localization as lc
from attnreg import metrics as mt
from attnreg import regularizer as reg
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.gridtransform import (FLIP_H, FLIP_HV, FLIP_V, GridShape, IDENTITY,
                                   ROT90, ROT180, ROT270)
from attnreg.vit import ViTConfig

from test_autodiff import _fd_cases, fd_probe

ALL_TRANSFORMS = (IDENTITY, FLIP_H, FLIP_V, FLIP_HV, ROT90, ROT180, ROT270)
NON_IDENTITY = ALL_TRANSFORMS[1:]


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:2d} PASS: {detail}")


class TestAcceptance:
    def test_criterion_01_inversion_matches_kronecker_oracle(self):
        """Fast re-indexing inversion equals the dense Kronecker-algebra
        oracle within 1e-12 on every grid up to 6x6 and every transform."""
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        worst, cases = 0.0, 0
        for h in range(1, 7):
            for w in range(1, 7):
                grid = GridShape(h, w)
                n = grid.n
                for transform in ALL_TRANSFORMS:
                    for _ in range(20):
                        a = rng.random(size=(n + 1, n + 1))
                        fast = gt.invert_attention_fast(Tensor(a), transform, grid)
                        kron = gt.invert_attention_kronecker(a[1:, 1:], transform, grid)
                        worst = max(worst, float(np.max(np.abs(
                            fast.data[1:, 1:] - kron))))
                        cases += 1
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12, f"fast vs oracle disagree: {worst:.3e}"
        assert elapsed < 30.0, f"oracle sweep too slow: {elapsed:.1f}s"
        report(1, f"max |fast - kronecker| = {worst:.2e} over {cases} cases "
                  f"({elapsed:.1f}s)")

    def test_criterion_02_permutation_group_laws(self):
        """Flip/180 involutions, rot90 order four, rot180 == combined flip,
        as exact permutation equality on 50 random grid shapes."""
        rng = np.random.default_rng(202)
        for _ in range(50):
            grid = GridShape(int(rng.integers(1, 11)), int(rng.integers(1, 11)))
            for transform in (FLIP_H, FLIP_V, FLIP_HV, ROT180):
                p = gt.token_permutation(transform, grid)
                assert p.compose(p).is_identity()
            r = gt.token_permutation(ROT90, grid)
            four = r
            for _ in range(3):
                four = four.compose(gt.token_permutation(ROT90, four.target))
            assert four.is_identity()
            p180 = gt.token_permutation(ROT180, grid)
            phv = gt.token_permutation(FLIP_HV, grid)
            assert np.array_equal(p180.sigma, phv.sigma)
            assert p180.target == phv.target
        report(2, "involutions, rot90^4 = id, rot180 = fliphv on 50 grids")

    def test_criterion_03_commutation_matrix_lemma(self):
        """C(r, c) @ vec(H) reproduces vec(H^T) exactly for 100 random H."""
        rng = np.random.default_rng(303)
        for _ in range(100):
            r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            h = rng.normal(size=(r, c))
            k = gt.commutation_matrix(r, c)
            assert np.array_equal(k @ gt.vec(h), gt.vec(h.T))
        report(3, "C vec(H) == vec(H^T) exactly, 100 random matrices up to 6x6")

    def test_criterion_04_end_to_end_equivariance(self):
        """Without positional embeddings, transforming a per-patch-constant
        image permutes every layer's attention exactly as the grid transform
        predicts: inverting the transformed view's attention recovers the
        original within 1e-9."""
        cfg = ViTConfig(patch_size=2, grid=GridShape(3, 4), embed_dim=12,
                        num_layers=2, num_heads=2, num_classes=2,
                        use_positional_embedding=False, in_channels=3)
        rng = np.random.default_rng(404)
        params = vit.init_params(cfg, rng)
        frozen = {k: Tensor(p.data, requires_grad=False) for k, p in params.items()}
        worst = 0.0
        for _ in range(20):
            pattern = rng.random(size=(3, cfg.grid.h, cfg.grid.w))
            image = np.repeat(np.repeat(pattern, cfg.patch_size, axis=1),
                              cfg.patch_size, axis=2)
            res = vit.forward(image, frozen, cfg)
            for transform in NON_IDENTITY:
                view = sd.augment(image, transform, cell_pixels=cfg.patch_size)
                res_t = vit.forward(view, frozen, cfg)
                for rec, rec_t in zip(res.attentions, res_t.attentions):
                    back = gt.invert_attention_fast(rec_t.matrix, transform,
                                                    cfg.grid)
                    worst = max(worst, float(np.max(np.abs(
                        back.data - rec.matrix.data))))
        assert worst <= 1e-9, f"equivariance violated: {worst:.3e}"
        report(4, f"max attention recovery error {worst:.2e} over 20 images "
                  "x 6 transforms x 2 layers")

    def test_criterion_05_gradient_fidelity(self):
        """Central finite differences (step 1e-5, float64) agree with the
        tape on every differentiable op and on each of the three loss terms
        end to end through the model, max relative error < 1e-4."""
        t0 = time.perf_counter()
        worst_op = 0.0
        for name, builder in _fd_cases():
            err = ad.grad_check(builder, Tensor(fd_probe(name)), step=1e-5)
            assert err < 1e-4, f"op {name}: {err:.3e}"
            worst_op = max(worst_op, err)

        cfg = ViTConfig(patch_size=2, grid=GridShape(2, 2), embed_dim=8,
                        num_layers=2, num_heads=2, num_classes=2, in_channels=1)
        rng = np.random.default_rng(505)
        params = vit.init_params(cfg, rng)
        image = rng.random(size=(1, 4, 4))
        view = sd.augment(image, FLIP_H)
        targets = Tensor(np.array([1.0, 0.0]))

        def attn(patched, img):
            return [r.matrix for r in vit.forward(img, patched, cfg).attentions]

        def loss_cls(patched):
            la = vit.forward(image, patched, cfg).logits
            lb = vit.forward(view, patched, cfg).logits
            return reg.classification_loss(la, lb, targets)

        def loss_act(patched):
            back = reg.invert_layers(attn(patched, view), FLIP_H, cfg.grid)
            return reg.region_activation_loss(attn(patched, image), back, "l1")

        def loss_aff(patched):
            back = reg.invert_layers(attn(patched, view), FLIP_H, cfg.grid)
            return reg.region_affinity_loss(attn(patched, image), back, "l1")

        worst_e2e = 0.0
        for loss_name, build in (("cls", loss_cls), ("act", loss_act),
                                 ("aff", loss_aff)):
            for pname in ("blocks.0.attn.wq", "blocks.1.mlp.w1"):
                def f(probe, _b=build, _p=pname):
                    patched = dict(params)
                    patched[_p] = probe
                    return _b(patched)
                err = ad.grad_check(f, Tensor(params[pname].data.copy()),
                                    step=1e-5)
                assert err < 1e-4, f"L_{loss_name} wrt {pname}: {err:.3e}"
                worst_e2e = max(worst_e2e, err)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"gradient sweep too slow: {elapsed:.1f}s"
        report(5, f"ops max {worst_op:.2e}, end-to-end max {worst_e2e:.2e} "
                  f"({elapsed:.1f}s)")

    def test_criterion_06_zero_loss_fixed_points(self):
        """A branch-identical pair (identity view, or a view flipped twice)
        yields exactly zero consistency losses -- not merely small ones."""
        cfg = ViTConfig(patch_size=2, grid=GridShape(2, 2), embed_dim=8,
                        num_layers=2, num_heads=2, num_classes=2, in_channels=1)
        rng = np.random.default_rng(606)
        params = vit.init_params(cfg, rng)
        frozen = {k: Tensor(p.data, requires_grad=False) for k, p in params.items()}
        image = rng.random(size=(1, 4, 4))
        double_flip = sd.augment(sd.augment(image, FLIP_H), FLIP_H)
        assert np.array_equal(double_flip, image)
        for label, view in (("identity", image), ("double fliph", double_flip)):
            a = [r.matrix for r in vit.forward(image, frozen, cfg).attentions]
            b = reg.invert_layers([r.matrix for r in vit.forward(view, frozen, cfg).attentions],
                                  IDENTITY, cfg.grid)
            for distance in reg.DISTANCES:
                act = reg.region_activation_loss(a, b, distance)
                aff = reg.region_affinity_loss(a, b, distance)
                assert float(act.data) == 0.0, f"{label}: l_act != 0"
                assert float(aff.data) == 0.0, f"{label}: l_aff != 0"
        report(6, "l_act = l_aff = 0.0 exactly for identity and double-fliph "
                  "pairs, all three distances")

    def test_criterion_07_toy_scale_regularization_trend(self):
        """On 500 synthetic images (3 training seeds), consistency training
        must beat the baseline: refined-seed mIoU ordered baseline < each
        single term < both terms, the combined regularizer at least 3 points
        above baseline, and affinity refinement helping in every cell."""
        data_cfg = sd.DatasetConfig(num_samples=500, num_classes=3,
                                    height=32, width=32, seed=0)
        samples = sd.generate(data_cfg)
        vit_cfg = ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16,
                            num_layers=2, num_heads=2, num_classes=3,
                            use_positional_embedding=False)
        base = tr.TrainConfig(
            vit=vit_cfg,
            weights=reg.LossWeights(alpha=2.0, beta=0.25, distance="l1"),
            augmentations=(FLIP_H, FLIP_V, ROT90, ROT180, ROT270),
            epochs=12, batch_size=8, learning_rate=0.05)

        refined = {name: [] for name, _, _ in tr.REGULARIZER_GRID}
        unrefined = {name: [] for name, _, _ in tr.REGULARIZER_GRID}
        for seed in (0, 1, 2):
            t0 = time.perf_counter()
            rows = tr.run_regularizer_grid(replace(base, seed=seed), samples)
            elapsed = time.perf_counter() - t0
            assert elapsed < 4 * 600.0, f"seed {seed} over budget: {elapsed:.0f}s"
            for row in rows:
                refined[row["cell"]].append(row["refined_miou"])
                unrefined[row["cell"]].append(row["unrefined_miou"])

        mean_r = {c: float(np.mean(v)) for c, v in refined.items()}
        mean_u = {c: float(np.mean(v)) for c, v in unrefined.items()}
        table = " | ".join(f"{c} {mean_r[c]:.4f}" for c in mean_r)

        assert mean_r["baseline"] < mean_r["act_only"], table
        assert mean_r["baseline"] < mean_r["aff_only"], table
        assert mean_r["act_only"] < mean_r["full"], table
        assert mean_r["aff_only"] < mean_r["full"], table
        gain = 100.0 * (mean_r["full"] - mean_r["baseline"])
        assert gain >= 3.0, f"full regularizer gain only {gain:.1f} points: {table}"
        for cell in mean_r:
            assert mean_r[cell] > mean_u[cell], \
                f"refinement does not help {cell}: {mean_r[cell]:.4f} vs " \
                f"{mean_u[cell]:.4f}"
        report(7, f"refined mIoU means {table}; full-baseline = +{gain:.1f} pts; "
                  "refinement helps all 4 cells")

    def test_criterion_08_seed_scale_invariance(self):
        """Multiplying every class's adjoint stack by c > 0 leaves the seed
        mask bit-identical: localization depends on relative activation only."""
        rng = np.random.default_rng(808)
        grid = GridShape(4, 4)
        for _ in range(30):
            adjoints = {ci: [rng.normal(size=(17, 17)) for _ in range(2)]
                        for ci in range(3)}
            theta = float(rng.uniform(0.05, 0.6))
            maps = [lc.grad_localization(adjoints[ci], grid, ci)
                    for ci in sorted(adjoints)]
            baseline = lc.seed_from_maps(maps, theta)
            for c in (2.0, 0.5, 3.0, 10.0, 1e4, 1e-4):
                scaled_maps = [lc.grad_localization([c * a for a in adjoints[ci]],
                                                    grid, ci)
                               for ci in sorted(adjoints)]
                scaled = lc.seed_from_maps(scaled_maps, theta)
                assert np.array_equal(scaled.labels, baseline.labels)
        report(8, "seed masks identical under adjoint scaling, 30 cases x 6 "
                  "scale factors")

    def test_criterion_09_metrics_match_brute_force(self):
        """Pooled IoU / FP / FN from the accumulator equal a naive per-pixel
        recount on 100 random 16x16 prediction/truth pairs, exactly."""
        rng = np.random.default_rng(909)
        k = 4
        for _ in range(100):
            pred = rng.integers(0, k, size=(16, 16))
            truth = rng.integers(0, k, size=(16, 16))
            acc = mt.ConfusionAccumulator(k)
            acc.add(pred, truth)

            ious = []
            for c in range(k):
                inter = union = 0
                for i in range(16):
                    for j in range(16):
                        p, t = pred[i, j] == c, truth[i, j] == c
                        inter += p and t
                        union += p or t
                ious.append(None if union == 0 else inter / union)
            over = int(((pred > 0) & (truth == 0)).sum())
            under = int(((pred == 0) & (truth > 0)).sum())
            present = [v for v in ious if v is not None]

            assert acc.per_class_iou() == ious
            assert acc.miou() == sum(present) / len(present)
            assert acc.fp_rate() == over / 256
            assert acc.fn_rate() == under / 256
        report(9, "mIoU/FP/FN equal brute-force recount on 100 random pairs")

    def test_criterion_10_training_determinism(self, tmp_path):
        """Two `train` command runs with one config and seed write
        byte-identical checkpoints and metric logs."""
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(data), "--samples", "24",
                         "--classes", "2", "--seed", "5",
                         "--height", "16", "--width", "16"]) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("vit.patch_size = 4\nvit.grid = 4x4\nvit.embed_dim = 8\n"
                       "vit.num_layers = 2\nvit.num_heads = 2\n"
                       "vit.num_classes = 2\nweights.alpha = 1.0\n"
                       "weights.beta = 1.0\nepochs = 2\nbatch_size = 4\n"
                       "learning_rate = 0.05\nseed = 9\n")
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            assert cli.main(["train", "--config", str(cfg), "--data", str(data),
                             "--out", str(out)]) == 0
            outs.append(out)
        for artifact in ("checkpoint.ckpt", "log.jsonl", "train_config.txt"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"
        log = [json.loads(line)
               for line in (outs[0] / "log.jsonl").read_text().splitlines()]
        assert len(log) == 2
        report(10, "checkpoint.ckpt, log.jsonl, train_config.txt byte-identical "
                   "across two runs")

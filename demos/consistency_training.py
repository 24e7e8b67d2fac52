#!/usr/bin/env python3
"""Train twice on the same little dataset — once with the view-consistency
terms switched off, once on — and compare the localization quality.

Each training step runs the model on an image and on a flipped/rotated
copy, then penalizes (a) classification error on both views, (b) mismatch
between the per-class activation maps after mapping the view back, and
(c) mismatch between the attention affinities, same treatment. Takes
around twenty seconds.

Fair warning: a single run this small is noisy. The effect is reliable
once you average over training seeds at ~500 images (see the regularizer
grid test in tests/test_acceptance.py, or `attnreg ablate`); here one
seed on 150 images is enough to watch the machinery move.
"""

from dataclasses import replace

import numpy as np

from attnreg import regularizer as reg
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg.gridtransform import FLIP_H, FLIP_V, GridShape, ROT90, ROT180, ROT270
from attnreg.vit import ViTConfig


def make_config(alpha: float, beta: float) -> tr.TrainConfig:
    model = ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16,
                      num_layers=2, num_heads=2, num_classes=3,
                      use_positional_embedding=False)
    return tr.TrainConfig(
        vit=model,
        weights=reg.LossWeights(alpha=alpha, beta=beta, distance="l1"),
        augmentations=(FLIP_H, FLIP_V, ROT90, ROT180, ROT270),
        epochs=12, batch_size=8, learning_rate=0.05, seed=0)


def show_log(name: str, log: list[dict]) -> None:
    print(f"\n{name} loss curve:")
    print("  epoch   l_cls    l_act    l_aff")
    for row in log:
        print(f"  {row['epoch']:>5}   {row['l_cls']:.4f}   "
              f"{row['l_act']:.4f}   {row['l_aff']:.4f}")


def main() -> None:
    samples = sd.generate(sd.DatasetConfig(num_samples=150, num_classes=3,
                                           height=32, width=32, seed=0))
    counts = np.sum([s.labels for s in samples], axis=0)
    print(f"{len(samples)} images, per-class presence counts: {counts}")

    results = {}
    for name, alpha, beta in (("plain", 0.0, 0.0), ("consistent", 2.0, 0.25)):
        result = tr.train(make_config(alpha, beta), samples)
        show_log(name, result.log)
        results[name] = tr.evaluate(result.params, result.config.vit, samples)

    print("\nseed quality against the pixel ground truth:")
    for name, summary in results.items():
        u, r = summary["unrefined"], summary["refined"]
        print(f"  {name:>10}: unrefined mIoU {u['miou']:.4f} "
              f"(threshold {u['threshold']:.2f}), "
              f"refined mIoU {r['miou']:.4f} (threshold {r['threshold']:.2f})")

    gain = results["consistent"]["refined"]["miou"] - results["plain"]["refined"]["miou"]
    print(f"\nconsistency gain on refined maps: {100 * gain:+.1f} mIoU points")
    print("(single-seed, 150 images: expect a couple of points either way;")
    print(" the l_act / l_aff columns read 0.0 in the plain run because")
    print(" zero-weight terms are skipped outright, not computed and discarded)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""From a trained classifier to pixel seeds, one image at a time.

Recipe: backprop a class logit to the recorded attention matrices, keep
the class-token row, fuse the late layers into a patch-grid map, spread
it along the patch-to-patch affinities, threshold, upsample. No mask
ever enters training — the pixel ground truth below is only used to
score the result.
"""

import tempfile
from pathlib import Path

import numpy as np

from attnreg import localization as lc
from attnreg import metrics as mt
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.gridtransform import FLIP_H, FLIP_V, GridShape, ROT90, ROT180, ROT270
from attnreg.regularizer import LossWeights

SHADES = " .:-=+*#%@"  # ten levels, dark to bright


def heat(values):
    """Render a [0, 1] map as rows of shade characters."""
    idx = np.minimum((values * (len(SHADES) - 1)).round().astype(int),
                     len(SHADES) - 1)
    return "\n".join("  " + "".join(SHADES[v] for v in row) for row in idx)


def label_art(labels):
    return ["".join("." if v == 0 else str(v) for v in row) for row in labels]


# -- a quick model to read maps out of ----------------------------------------

cfg = tr.TrainConfig(
    vit=vit.ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16,
                      num_layers=2, num_heads=2, num_classes=3,
                      use_positional_embedding=False),
    weights=LossWeights(alpha=2.0, beta=0.25, distance="l1"),
    augmentations=(FLIP_H, FLIP_V, ROT90, ROT180, ROT270),
    epochs=8, batch_size=8, learning_rate=0.05, seed=0)

samples = sd.generate(sd.DatasetConfig(num_samples=150, num_classes=3,
                                       height=32, width=32, seed=0))
print(f"training on {len(samples)} images for {cfg.epochs} epochs ...")
result = tr.train(cfg, samples)
print(f"final per-image loss: {result.log[-1]['total']:.4f}")

sample = samples[3]
present = [k for k in range(cfg.vit.num_classes) if sample.labels[k]]
print(f"\nimage 3 contains classes {present} "
      f"(labels vector {sample.labels.astype(int)})")

# one forward on one tape, then one sweep per present class seeded with
# that class's one-hot logit adjoint; parameters are read through no-grad
# views, so map extraction never touches their grads
frozen = {name: Tensor(p.data) for name, p in result.params.items()}
with Tape() as tape:
    res = vit.forward(sample.image, frozen, cfg.vit)
maps = []
for k in present:
    adjoints = vit.attention_adjoints(tape, res, np.eye(cfg.vit.num_classes)[k])
    maps.append(lc.grad_localization(adjoints, cfg.vit.grid, k))
attentions = [rec.matrix.data for rec in res.attentions]

for m in maps:
    print(f"\nclass {m.class_index} map on the 8x8 patch grid "
          f"(layers {m.layers_fused[0]}..{m.layers_fused[1] - 1} fused):")
    print(heat(m.values))

refined = [lc.affinity_refine(m, attentions) for m in maps]
print("\nsame maps after one hop along the attention affinities:")
for m in refined:
    print(heat(m.values))
    print()

seed = lc.seed_from_maps(refined, threshold=0.4)
pred = lc.upsample_nearest(seed.labels, *sample.mask.shape)

print("predicted seeds (left) vs pixel ground truth (right);")
print("'.' = background, digit = class index + 1")
for left, right in zip(label_art(pred), label_art(sample.mask)):
    print(f"  {left}   {right}")

per_class, mean = mt.miou([pred], [sample.mask], cfg.vit.num_classes + 1)
shown = [f"{v:.3f}" if v is not None else "absent" for v in per_class]
print(f"\nper-class IoU {shown}, mIoU {mean:.3f} at threshold {seed.threshold}")
print("(single-image numbers wobble; `attnreg eval` scores a whole dataset")
print(" and picks the background threshold by grid search)")

# the maps also ship as portable graymaps plus a JSON sidecar, here into
# a temporary directory that is removed on exit
with tempfile.TemporaryDirectory(prefix="seeds_") as tmp:
    for m in refined:
        pgm, meta = lc.export_map(Path(tmp) / f"class{m.class_index}", m)
        print(f"wrote {pgm} and {meta.name}")

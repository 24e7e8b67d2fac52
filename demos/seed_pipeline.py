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

# the path `attnreg eval` and `attnreg seeds` take, on a one-image stack:
# one forward, then one sweep per present class seeded with that class's
# one-hot logit adjoint, keeping each layer's class-token adjoint row and
# patch-to-patch attention block (parameters are read through no-grad
# views, so map extraction never touches their grads)
rows, blocks = tr.adjoint_rows(sample.image[None], [present], result.params, cfg.vit)
layers = lc.resolve_layers(None, cfg.vit.num_layers)  # the last two
grid = cfg.vit.grid
plain = lc.build_maps(rows, blocks, layers, refine=False)[0]  # (classes, patches)
refined = lc.build_maps(rows, blocks, layers, refine=True)[0]

for k, values in zip(present, plain):
    print(f"\nclass {k} map on the 8x8 patch grid "
          f"(layers {layers[0]}..{layers[1] - 1} fused):")
    print(heat(values.reshape(grid.h, grid.w)))

print("\nsame maps after one hop along the attention affinities:")
for values in refined:
    print(heat(values.reshape(grid.h, grid.w)))
    print()

threshold = 0.4
labels, peak = lc.argmax_seed(refined.reshape(-1, grid.h, grid.w), present)
labels[peak < threshold] = 0
pred = lc.upsample_nearest(labels, *sample.mask.shape)

print("predicted seeds (left) vs pixel ground truth (right);")
print("'.' = background, digit = class index + 1")
for left, right in zip(label_art(pred), label_art(sample.mask)):
    print(f"  {left}   {right}")

acc = mt.ConfusionAccumulator(cfg.vit.num_classes + 1)
acc.add(pred, sample.mask)
shown = [f"{v:.3f}" if v is not None else "absent" for v in acc.per_class_iou()]
print(f"\nper-class IoU {shown}, mIoU {acc.miou():.3f} at threshold {threshold}")
print("(single-image numbers wobble; `attnreg eval` scores a whole dataset")
print(" and picks the background threshold by grid search)")

# the maps also ship as portable graymaps plus a JSON sidecar, here into
# a temporary directory that is removed on exit
with tempfile.TemporaryDirectory(prefix="seeds_") as tmp:
    for k, values in zip(present, refined):
        m = lc.LocalizationMap(class_index=k, values=values.reshape(grid.h, grid.w),
                               layers_fused=layers, refined=True)
        pgm, meta = lc.export_map(Path(tmp) / f"class{k}", m)
        print(f"wrote {pgm} and {meta.name}")

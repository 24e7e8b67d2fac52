"""The reference implementation the tests compare the package against.

Every fast path of the package -- the fused ops, stacked views, the last
block's class-row tail, chunked training and stacked evaluation -- is
checked against the slow code here, which computes the same quantities
one piece at a time:

* the primitive chains each fused op replaces: ``affine`` (matmul, then
  the bias row added), ``head_scores`` and ``head_attend`` (one chain
  per head), with ``transpose``, a tape op only these chains need;
* the two-view consistency chain that ``autodiff.view_consistency``
  replaces: ``consistency_chain``, per loss layer an ``index`` of each
  half of a stacked record, a ``permute_rc`` of the augmented half (or a
  resampled view), a block ``index`` of each view and this module's own
  copy of the retired ``mean_distance`` op, then the layer sums;
* the resize of an attention matrix between patch grids as chains:
  ``resize_attention``, the five nodes ``autodiff.resample`` replaces,
  on ``sum_rows`` and ``scale_rows_to_sums``, tape ops only the chains
  need; and ``resize_attention_chain``, P A P^T spelled out block by
  block;
* ``forward``: one (C, H, W) image per call, every head its own chain,
  heads averaged by adds and merged by concatenation, every block on
  all n+1 rows and the logits taken from row 0 of the head's output;
* ``two_view_loss`` on two such forwards, ``sample_sums`` of it over
  samples and ``train``, the per-sample training loop;
* ``evaluate``: a fresh forward and backward per image and present
  class, and a threshold-by-threshold sweep that counts pixels with
  per-class boolean masks.

Also here: the plain numpy expressions of the kernels that compute in
arrays they own, and of index (``*_kernel``, one bit-equal oracle per
op); the node counts a forward and a training chunk record, stated once;
the models and sample data the oracle tests share, and their
comparisons (``assert_close`` to TOL, ``exact_same``, ``bit_equal``,
``assert_kernel``).
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg import localization as lc
from attnreg import metrics as mt
from attnreg import regularizer as reg
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.gridtransform import GridShape, SpatialTransform
from attnreg.regularizer import LossWeights
from attnreg.vit import ViTConfig

TOL = 1e-12


# -- the primitive chains of the fused ops ----------------------------------------

def transpose(x):
    """x with its last two axes swapped, as a tape op: the chains need it,
    and the engine transposes only inside its fused ops."""
    return ad._apply("transpose", (x,), np.swapaxes(x.data, -1, -2),
                     lambda g: (np.ascontiguousarray(np.swapaxes(g, -1, -2)),))


def affine(x, w, b):
    """linear as a chain: x @ w, then the (1, n) bias's row, which add
    broadcasts over the rows."""
    return ad.add(ad.matmul(x, w), ad.index(b, 0))


def head_cols(x, j, heads):
    """Head j's column block of a projection."""
    k = x.shape[-1] // heads
    return ad.index(x, np.s_[..., j * k:(j + 1) * k])


def head_scores(h, wq, bq, wk, bk, heads, scale):
    """attention_scores as a chain: per head, the scaled queries' column
    block times the keys' block transposed; a list of (..., m, m)."""
    q = ad.mul(affine(h, wq, bq), scale)
    k = affine(h, wk, bk)
    return [ad.matmul(head_cols(q, j, heads), transpose(head_cols(k, j, heads)))
            for j in range(heads)]


def head_attend(probs, h, wv, bv):
    """attend as a chain: per head j, probs[j] (..., m, m) times the
    values' column block j; the heads side by side, (..., m, d')."""
    v = affine(h, wv, bv)
    return ad.concat([ad.matmul(p, head_cols(v, j, len(probs))) for j, p in enumerate(probs)],
                     axis=1)


# -- the two-view consistency chain -------------------------------------------------

# (elements, slope) of each distance in d = a - b, as mean_distance had them
DISTANCE_TERMS = {
    "l1": (np.abs, np.sign),
    "l2": (lambda d: d * d, lambda d: 2.0 * d),
    "smooth_l1": (lambda d: np.where(np.abs(d) <= 1.0, 0.5 * d * d, np.abs(d) - 0.5),
                  lambda d: np.where(np.abs(d) <= 1.0, d, np.sign(d))),
}
# the class token's row over the patches, and the patch-to-patch block
BLOCKS = (np.s_[..., 0:1, 1:], np.s_[..., 1:, 1:])


def mean_distance(a, b, distance):
    """The elementwise distance between a and b averaged over elements, as
    one tape node: the op view_consistency replaced, as it was."""
    elements, slope = DISTANCE_TERMS[distance]
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check_pair("mean_distance", a, b)
    d = a.data - b.data
    n = float(d.size)
    shape_a, shape_b = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        ga = float(g) / n * slope(d)
        return (ad._reduce_to(ga, shape_a) if need_a else None,
                ad._reduce_to(-ga, shape_b) if need_b else None)

    return ad._apply("mean_distance", (a, b), np.asarray(elements(d).mean()), bw)


def consistency_chain(a_layers, ap_layers, distance, index=None, terms=(True, True)):
    """view_consistency's (l_act, l_aff) as the chain it replaced, None for
    a term not in `terms`: with `ap_layers` None each of `a_layers` is a
    stack of both views, split by two index nodes; `index` gathers the
    augmented views by permute_rc; then per term and layer a block index
    of each view and mean_distance, the layers added in order and scaled
    by 1/L."""
    if ap_layers is None:
        k = a_layers[0].shape[0] // 2
        a_layers, ap_layers = ([ad.index(s, half) for s in a_layers]
                               for half in (slice(0, k), slice(k, 2 * k)))
    back = ap_layers if index is None else [ad.permute_rc(ap, index) for ap in ap_layers]
    out = []
    for on, key in zip(terms, BLOCKS):
        total = None
        for a, b in zip(a_layers, back) if on else ():
            term = mean_distance(ad.index(a, key), ad.index(b, key), distance)
            total = term if total is None else ad.add(total, term)
        out.append(total if total is None or len(a_layers) == 1
                   else ad.mul(total, 1.0 / len(a_layers)))
    return tuple(out)


# -- the resize chains ------------------------------------------------------------

def sum_rows(x):
    """Row sums of a (..., m, k) tensor, (..., m, 1), as a tape op."""
    k = x.shape[-1]
    return ad._apply("sum_rows", (x,), x.data.sum(axis=-1, keepdims=True),
                     lambda g: (g * np.ones((1, k)),))


def scale_rows_to_sums(x, target):
    """Each row of x (..., m, k) rescaled to sum to the matching entry of
    target (..., m, 1), as a tape op; a row whose sum is within 1e-12 of
    zero keeps factor 1."""
    xd, td = x.data, target.data
    r = xd.sum(axis=-1, keepdims=True)
    live = np.abs(r) > 1e-12
    safe_r = np.where(live, r, 1.0)
    factor = np.where(live, td / safe_r, 1.0)

    def bw(g):
        inner = (g * xd).sum(axis=-1, keepdims=True)
        gx = (g * factor - np.where(live, td / (safe_r * safe_r), 0.0) * inner
              if x.requires_grad else None)
        gt = np.where(live, inner / safe_r, 0.0) if target.requires_grad else None
        return gx, gt

    return ad._apply("scale_rows_to_sums", (x, target), xd * factor, bw)


def resize_attention(a_prime, source, target):
    """gridtransform.resize_attention as five nodes: the source row sums,
    P times them, P A P^T by two matmuls, and the rows rescaled to the
    target sums. Its values and gradients are resample's, bit for bit."""
    p = gt.bordered_interp_matrix(source, target)
    # P from the left of a stack: one batched product with P in every entry
    left = Tensor(np.broadcast_to(p, a_prime.shape[:-2] + p.shape))
    target_sums = ad.matmul(left, sum_rows(a_prime))
    return scale_rows_to_sums(ad.matmul(ad.matmul(left, a_prime), p.T), target_sums)


def resize_attention_chain(a_prime, source, target):
    """resize_attention with P A P^T spelled out block by block: corner,
    class row, class column and patch block sliced apart, interpolated
    by W = kron(Bh, Bw) and concatenated back, the target row sums
    assembled the same way (17 tape nodes)."""
    w = np.kron(gt.bilinear_matrix(source.h, target.h), gt.bilinear_matrix(source.w, target.w))
    wq, wq_t = Tensor(w), Tensor(w.T)
    corner = ad.index(a_prime, np.s_[..., 0:1, 0:1])
    cls_row = ad.matmul(ad.index(a_prime, np.s_[..., 0:1, 1:]), wq_t)
    cls_col = ad.matmul(wq, ad.index(a_prime, np.s_[..., 1:, 0:1]))
    block = ad.matmul(ad.matmul(wq, ad.index(a_prime, np.s_[..., 1:, 1:])), wq_t)
    assembled = ad.concat([ad.concat([corner, cls_row], axis=1),
                           ad.concat([cls_col, block], axis=1)], axis=0)
    src_sums = sum_rows(a_prime)
    patch_sums = ad.matmul(wq, ad.index(src_sums, np.s_[..., 1:, :]))
    target_sums = ad.concat([ad.index(src_sums, np.s_[..., 0:1, :]), patch_sums], axis=0)
    return scale_rows_to_sums(assembled, target_sums)


# -- the forward, the two-view loss and the training loop ---------------------------

@dataclass
class Record:
    """One layer's head average and the per-head matrices it averages,
    each of which requires grad (see adjoints); its index in the
    forward's list is its layer."""

    matrix: Tensor
    heads: tuple


def forward(image, params, config):
    """One (C, H, W) image through the model from the chains above."""
    image = np.asarray(image, dtype=np.float64)
    grid = vit.image_grid(image, config)
    x = affine(Tensor(vit.patchify(image, config.patch_size)), params["patch_embed.weight"],
               params["patch_embed.bias"])
    x = ad.concat([params["cls_token"], x], axis=0)
    if config.use_positional_embedding:
        x = ad.add(x, vit._positional_rows(params, config, grid))
    heads = config.num_heads
    records = []
    for i in range(config.num_layers):
        p = f"blocks.{i}."
        h = ad.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        scores = head_scores(h, params[p + "attn.wq"], params[p + "attn.bq"],
                             params[p + "attn.wk"], params[p + "attn.bk"], heads,
                             1.0 / np.sqrt(config.head_dim))
        probs = [ad.softmax_rows(s) for s in scores]
        for head in probs:
            head.requires_grad = True
        total = probs[0]
        for head in probs[1:]:
            total = ad.add(total, head)
        records.append(Record(matrix=ad.mul(total, 1.0 / heads), heads=tuple(probs)))
        merged = head_attend(probs, h, params[p + "attn.wv"], params[p + "attn.bv"])
        x = ad.add(x, affine(merged, params[p + "attn.wo"], params[p + "attn.bo"]))
        h2 = ad.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        hidden = ad.gelu(affine(h2, params[p + "mlp.w1"], params[p + "mlp.b1"]))
        x = ad.add(x, affine(hidden, params[p + "mlp.w2"], params[p + "mlp.b2"]))
    x = ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    logits = ad.index(affine(x, params["head.weight"], params["head.bias"]), 0)
    return vit.ForwardResult(logits=logits, attentions=records, grid=grid)


def adjoints(tape, loss, result, seed=None):
    """One sweep of `tape` from `loss` (a scalar unseeded, or seeded) with
    wrt set to every head of `result`, a forward of this module's (a
    tuple of 2-d heads per layer) or of vit's (one head stack): each
    layer's head adjoints added one head at a time."""
    per_layer = [rec.heads if isinstance(rec.heads, tuple) else (rec.heads,)
                 for rec in result.attentions]
    grads = iter(tape.backward(loss, seed=seed, wrt=[h for heads in per_layer for h in heads]))
    out = []
    for rec in result.attentions:
        if isinstance(rec.heads, tuple):
            g = np.stack([next(grads) for _ in rec.heads], axis=-3)
        else:
            g = next(grads)
        total = g[..., 0, :, :].copy()
        for k in range(1, g.shape[-3]):
            total += g[..., k, :, :]
        out.append(total)
    return out


def two_view_loss(sample, transform, params, config):
    """One sample's training loss: a forward of its image and one of its
    view, each loss layer's view matrix inverted by the sample's own
    transform, one inversion shared by both consistency terms."""
    cfg, w = config.vit, config.weights
    view = sd.augment(sample.image, transform, cell_pixels=cfg.patch_size)
    res_a, res_b = (forward(image, params, cfg) for image in (sample.image, view))
    lo, hi = tr._loss_layer_slice(config)
    act = aff = Tensor(0.0)
    if w.alpha != 0.0 or w.beta != 0.0:
        a = [rec.matrix for rec in res_a.attentions[lo:hi]]
        back = reg.invert_layers([rec.matrix for rec in res_b.attentions[lo:hi]], transform,
                                 res_a.grid)
        act, aff = (t or Tensor(0.0) for t in consistency_chain(
            a, back.layers, w.distance, terms=(w.alpha != 0.0, w.beta != 0.0)))
    return reg.total_loss(res_a.logits, res_b.logits, sample.labels, act, aff, w)


def layer_residuals(sample, transform, params, config):
    """One sample's consistency residuals, whatever the weights: per loss
    layer and term, the chain's mean_distance between A's block and the
    same block of inv(A'), keyed as trainer.train logs them."""
    cfg = config.vit
    view = sd.augment(sample.image, transform, cell_pixels=cfg.patch_size)
    res_a, res_b = (forward(image, params, cfg) for image in (sample.image, view))
    lo, hi = tr._loss_layer_slice(config)
    out = {}
    for layer in range(lo, hi):
        a = Tensor(res_a.attentions[layer].matrix.data)
        back = gt.invert_attention(Tensor(res_b.attentions[layer].matrix.data), transform,
                                   res_a.grid)
        for term, key in zip(("act", "aff"), BLOCKS):
            out[f"{term}_residual_{layer}"] = float(mean_distance(
                ad.index(a, key), ad.index(back, key), config.weights.distance).data)
    return out


def fresh(params):
    """Trainable copies of `params`, with no gradient yet."""
    return {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}


def sample_sums(pairs, params, config):
    """Each (sample, transform) of `pairs` on its own tape: the loss terms
    and the parameter gradients summed over the samples."""
    params = fresh(params)
    sums = dict.fromkeys(("l_cls", "l_act", "l_aff", "total"), 0.0)
    for sample, transform in pairs:
        with Tape() as tape:
            breakdown = two_view_loss(sample, transform, params, config)
        tape.backward(breakdown.total)
        for key, value in breakdown.to_floats().items():
            sums[key] += value
    return sums, {k: p.grad for k, p in params.items()}


def train(config, samples):
    """The training loop with one sample per tape: the draws of
    trainer.train from the same generators, and its update (constant
    learning rate, momentum, norm clipping). Returns the parameters,
    each epoch's mean total loss, each epoch's list of pre-clip global
    gradient norms, one per update, and each epoch's mean consistency
    residuals (see layer_residuals)."""
    init_rng = np.random.default_rng([config.seed, 0])
    loop_rng = np.random.default_rng([config.seed, 1])
    params = vit.init_params(config.vit, init_rng)
    velocity = {name: np.zeros_like(p.data) for name, p in params.items()}
    totals, norms, residuals = [], [], []
    for _ in range(config.epochs):
        order = loop_rng.permutation(len(samples))
        total = 0.0
        norms.append([])
        residual_sums = {}
        for start in range(0, len(samples), config.batch_size):
            batch = order[start:start + config.batch_size]
            for p in params.values():
                p.zero_grad()
            for idx in batch:
                transform = config.augmentations[int(loop_rng.integers(len(config.augmentations)))]
                sample = samples[int(idx)]
                for key, value in layer_residuals(sample, transform, params, config).items():
                    residual_sums[key] = residual_sums.get(key, 0.0) + value
                with Tape() as tape:
                    breakdown = two_view_loss(sample, transform, params, config)
                tape.backward(breakdown.total)
                total += float(breakdown.total.data)
            grads = {name: p.grad / len(batch) for name, p in params.items()}
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
            norms[-1].append(norm)
            if config.clip_norm is not None and norm > config.clip_norm:
                grads = {name: g * (config.clip_norm / norm) for name, g in grads.items()}
            for name, g in grads.items():
                velocity[name] *= config.momentum
                velocity[name] += g
                params[name].data -= config.learning_rate * velocity[name]
        totals.append(total / len(samples))
        residuals.append({key: value / len(samples) for key, value in residual_sums.items()})
    return params, totals, norms, residuals


# -- evaluation ------------------------------------------------------------------

class Counts:
    """Per-class intersection/union and FP/FN pixel counts by boolean masks."""

    def __init__(self, num_classes):
        self.num_classes = num_classes
        self.intersection = np.zeros(num_classes, dtype=np.int64)
        self.union = np.zeros(num_classes, dtype=np.int64)
        self.over = self.under = self.total = 0

    def add(self, pred, gt):
        assert pred.shape == gt.shape
        for k in range(self.num_classes):
            p, g = pred == k, gt == k
            self.intersection[k] += int((p & g).sum())
            self.union[k] += int((p | g).sum())
        self.over += int(((pred != 0) & (gt == 0)).sum())
        self.under += int(((pred == 0) & (gt != 0)).sum())
        self.total += pred.size

    def per_class_iou(self):
        return [self.intersection[k] / self.union[k] if self.union[k] > 0 else None
                for k in range(self.num_classes)]

    def miou(self):
        present = [v for v in self.per_class_iou() if v is not None]
        return float(np.mean(present)) if present else None


def seed_mask(maps, theta, shape):
    """Thresholded seed upsampled to `shape`; no maps -> all background."""
    if not maps:
        return np.zeros(shape, dtype=np.int64)
    labels = lc.seed_from_maps(maps, theta).labels
    return lc.upsample_nearest(labels, shape[0], shape[1])


def sweep(maps_per_image, gt_masks, num_classes):
    """Threshold by threshold: the best entry, its rates re-counted at it."""
    best_theta, best = None, None
    for theta in mt.THRESHOLDS.tolist():
        acc = Counts(num_classes)
        for maps, gt in zip(maps_per_image, gt_masks):
            acc.add(seed_mask(maps, theta, gt.shape), gt)
        score = acc.miou()
        if score is not None and (best is None or score > best):
            best_theta, best = theta, score
    if best_theta is None:
        return {"threshold": None, "miou": None, "fp_rate": None, "fn_rate": None,
                "per_class_iou": None}
    acc = Counts(num_classes)
    for maps, gt in zip(maps_per_image, gt_masks):
        acc.add(seed_mask(maps, best_theta, gt.shape), gt)
    return {"threshold": best_theta, "miou": best, "fp_rate": acc.over / acc.total,
            "fn_rate": acc.under / acc.total, "per_class_iou": acc.per_class_iou()}


def localization_data(sample, params, cfg):
    """A fresh forward of the sample's image alone and an unseeded sweep
    from the class logit with wrt set to the heads (see adjoints), per
    present class: each present class's full per-layer adjoints, and the
    attention matrices."""
    frozen = {name: Tensor(p.data, requires_grad=False) for name, p in params.items()}
    present = [k for k in range(cfg.num_classes) if sample.labels[k]]
    adjoints_by_class, attentions = {}, None
    for k in present:
        with Tape() as tape:
            res = vit.forward(sample.image, frozen, cfg)
            y = vit.class_logit(res, k)
        adjoints_by_class[k] = adjoints(tape, y, res)
        if attentions is None:
            attentions = [rec.matrix.data.copy() for rec in res.attentions]
    return adjoints_by_class, attentions or []


def refine(values, attentions, layer_range):
    """One (h, w) map spread along the affinities: as a row vector times
    the mean over layers [start, stop) of the patch-to-patch blocks, then
    clamped at zero and divided by its max (an all-zero map stays so)."""
    start, stop = layer_range
    block = np.mean([a[1:, 1:] for a in attentions[start:stop]], axis=0)
    spread = np.maximum(values.reshape(1, -1) @ block, 0.0)
    if spread.max() > 0.0:
        spread = spread / spread.max()
    return spread.reshape(values.shape)


def class_maps(adjoints_by_class, attentions, grid, layer_range, refined):
    """One map per class: the one-map API, then this module's refine."""
    out = []
    for k, adjoints in sorted(adjoints_by_class.items()):
        loc = lc.grad_localization(adjoints, grid, k, layer_range)
        if refined:
            loc = lc.LocalizationMap(k, refine(loc.values, attentions, loc.layers_fused),
                                     loc.layers_fused, refined=True)
        out.append(loc)
    return out


def evaluate(params, cfg, samples, map_layers=None, sweep_layers=False):
    """trainer.evaluate's summary, image by image and class by class."""
    data = [localization_data(s, params, cfg) for s in samples]
    gt = [s.mask for s in samples]
    result = {"num_images": len(samples), "num_classes": cfg.num_classes}
    for refined, key in ((False, "unrefined"), (True, "refined")):
        per_image = [class_maps(*d, cfg.grid, map_layers, refined) for d in data]
        result[key] = sweep(per_image, gt, cfg.num_classes + 1)
    if sweep_layers:
        rows = []
        for s in range(cfg.num_layers):
            per_image = [class_maps(*d, cfg.grid, (s, cfg.num_layers), True) for d in data]
            entry = sweep(per_image, gt, cfg.num_classes + 1)
            entry.pop("per_class_iou")
            rows.append({"start_layer": s, **entry})
        result["layer_sweep"] = rows
    return result


# -- the kernels' plain expressions: value and input gradients for adjoint g --------
#
# The engine's in-place kernels (softmax_rows, layer_norm, gelu, mean over
# an axis, permute_rc) keep each of these expressions' operation order, and
# index is x[key] with a zeros-then-assign backward: each must equal its
# kernel here bit for bit (assert_kernel).

def softmax_rows_kernel(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y, [y * (g - dot)]


def layer_norm_kernel(x, gain, bias, g, eps=1e-5):
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gg = g * gain
    gx = inv * (gg - gg.sum(axis=-1, keepdims=True) / d
                - xhat * (gg * xhat).sum(axis=-1, keepdims=True) / d)
    return xhat * gain + bias, [gx, (g * xhat).reshape(-1, d).sum(axis=0, keepdims=True),
                                g.reshape(-1, d).sum(axis=0, keepdims=True)]


def gelu_kernel(x, g):
    phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * phi, [g * (phi + x * pdf)]


def mean_kernel(x, g, axis):
    k = x.shape[axis]
    return x.mean(axis=axis), [np.broadcast_to(np.expand_dims(g / k, axis), x.shape)]


def permute_rc_kernel(x, g, index):
    """Rows and columns index[e] of each square matrix e of x, by numpy's
    advanced indexing, and the adjoint assigned back to them."""
    *lead, m, _ = x.shape
    entries = math.prod(lead)
    entry = np.arange(entries)[:, None, None]
    rows, cols = index.reshape(entries, -1, 1), index.reshape(entries, 1, -1)
    out = x.reshape(entries, m, m)[entry, rows, cols].reshape(g.shape)
    gx = np.zeros((entries, m, m))
    gx[entry, rows, cols] = g.reshape(entries, rows.shape[1], cols.shape[2])
    return out, [gx.reshape(x.shape)]


def index_kernel(x, g, key):
    gx = np.zeros(x.shape)
    gx[key] = g
    return np.asarray(x[key]), [gx]


def bit_equal(x, y) -> bool:
    """Same shape, dtype and bytes: signed zeros differ, as == would not
    tell."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def assert_kernel(op, arrays, kernel):
    """op's value and the gradient of every input, for a random adjoint,
    equal kernel(*arrays, adjoint)'s bit for bit, shapes included (an int
    key of a 1-d tensor keeps its value 0-d)."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*inputs)
    g = np.random.default_rng(1).normal(size=out.shape)
    tape.backward(out, seed=g)
    value, grads = kernel(*arrays, g)
    assert bit_equal(out.data, value)
    for t, expected in zip(inputs, grads, strict=True):
        assert bit_equal(t.grad, expected)


# -- node counts, each stated here once --------------------------------------------

def forward_nodes(cfg):
    """The nodes one vit.forward of an image or a stack records: patch
    embedding, class token, the positional rows' add, 12 per block, the
    class row, final layer norm, head and logits. The last block's
    class-row tail records no extra node."""
    return 12 * cfg.num_layers + 6 + cfg.use_positional_embedding


def chunk_nodes(cfg, scaled=True):
    """The nodes of a training chunk whose views share the images' grid,
    whatever its size: one forward of the stacked views, then 13 for the
    loss (the logits' two halves, the consistency node and its two terms,
    a classification loss per view, and the weighted sum's three muls
    and three adds) and, `scaled`, _chunk_backward's x k."""
    return forward_nodes(cfg) + 13 + scaled


# -- shared models, data and comparisons ----------------------------------------------

def transforms(text):
    """SpatialTransforms from comma-separated names."""
    return tuple(SpatialTransform.parse(p) for p in text.split(","))


WEIGHTS = LossWeights(alpha=2.0, beta=0.25, distance="l1")
# the criterion-07 model, which the train_consistency and localize_eval
# benchmark workloads train; train_resize_wide trains ViTConfig()
C07 = ViTConfig(patch_size=4, grid=GridShape(8, 8), embed_dim=16, num_layers=2, num_heads=2,
                num_classes=3, use_positional_embedding=False)
# a non-square grid with positional rows and three layers
SMALL = ViTConfig(patch_size=2, grid=GridShape(3, 4), embed_dim=8, num_layers=3, num_heads=2,
                  num_classes=2, use_positional_embedding=True)
CONSISTENCY = tr.TrainConfig(vit=C07, weights=WEIGHTS,
                             augmentations=transforms("fliph,flipv,rot90,rot180,rot270"))
NON_SQUARE = tr.TrainConfig(vit=SMALL, weights=WEIGHTS,
                            augmentations=transforms("rot90,rot270,flipv,resize:2x2"))


def sample_for(cfg, seed):
    """A random image on the model's grid, random labels and a random mask."""
    rng = np.random.default_rng(seed)
    image = rng.random((cfg.in_channels, cfg.grid.h * cfg.patch_size,
                        cfg.grid.w * cfg.patch_size))
    labels = (rng.random(cfg.num_classes) < 0.5).astype(np.float64)
    mask = rng.integers(0, cfg.num_classes + 1, size=image.shape[1:])
    return sd.SyntheticSample(image=image, labels=labels, mask=mask, seed=(seed, 0))


def trained(seed):
    """A 3-layer model trained one epoch on 10 generated images, its
    config and the images."""
    cfg = tr.TrainConfig(
        vit=ViTConfig(patch_size=4, grid=GridShape(4, 4), embed_dim=16, num_layers=3,
                      num_heads=2, num_classes=3, in_channels=3),
        weights=LossWeights(alpha=2.0, beta=1.0), epochs=1, batch_size=4,
        learning_rate=0.05, seed=seed)
    data = sd.generate(sd.DatasetConfig(num_samples=10, seed=seed, height=16, width=16))
    return tr.train(cfg, data).params, cfg.vit, data


def assert_close(got, expected, what):
    """Same shape, and no entry more than TOL apart."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape, f"{what}: {got.shape} != {expected.shape}"
    worst = float(np.max(np.abs(got - expected)))
    assert worst <= TOL, f"{what}: {worst:.3e}"


def exact_same(a, b):
    """Equal summaries, down to their JSON text."""
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

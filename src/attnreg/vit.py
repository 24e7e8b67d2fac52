"""A mini vision transformer built on the tape engine.

Pre-norm blocks: x += Attn(LN(x)); x += MLP(LN(x)). Attention per head
is softmax(Q K^T / sqrt(d_head)).

One forward runs one (C, H, W) image, or a (V, C, H, W) stack of views
that share a patch grid (the views of a training chunk), through
the same ops: tokens are (n+1, d), or (V, n+1, d) with a leading view
axis, and every layer puts its heads on a head axis, so all heads of
all views run as one (V, H, n+1, n+1) attention stack. Outputs keep the
view axis: logits (V, classes) and attention records (V, n+1, n+1); a
single image has neither axis.

Each layer records 12 tape nodes, built from the engine's fused ops:

  layer_norm -> attention_scores (q/k projections, head split, scaled
  q k^T) -> softmax_rows (the per-head stack) -> mean (the
  head average, the record's matrix) -> attend (v projection, per-head
  probs @ v, head merge) -> linear (wo) -> add (residual) ->
  layer_norm -> linear -> gelu -> linear -> add (residual).

Around the layers: linear (patch embedding), concat (class token), add
(positional rows, when enabled); then layer_norm, linear (head) and
index (the class row's logits).

The last block narrows to the class row after its attention: its
attend computes query row 0 only, and an index node takes the
residual's row 0 before the add, so wo, the residual add, the MLP, the
final layer_norm and the head run on one row per view (13 nodes for
that block, 3 after it). This is exact: the logits read only the class
row, every op from attend's output on acts row by row, and row 0 of
attend's output reads attention row 0 against all value rows, which
are still computed. The last block's scores, softmax and head average
keep all n+1 rows, since the losses and the seed maps read that full
matrix; the logits' adjoint is zero on its other query rows either way.
So attend hands the per-head stack's adjoint back as a row block, its
class row alone, and softmax_rows' backward runs on that row only (the
row-block rule of the autodiff module). The sweep densifies the block
before the scores' backward or any other adjoint meets it, and before
it returns it: an evaluation sweep runs the last softmax backward on
the class row only, and a training chunk does too when no loss reads
the last layer's attention, with every value unchanged.

The per-layer record holds the head-averaged post-softmax matrix as a
live tape node, so consistency losses computed on it propagate exact
gradients back into the heads. A layer's adjoint (attention_adjoints)
is the sum over the head axis of the per-head gradient -- the
sensitivity of the logit to a common additive shift of all heads, i.e.
the total derivative with respect to the average when each head is
written as average + offset. That is what the gradient-based
localization maps consume (their max-normalization makes any constant
factor irrelevant).

Parameters live in a plain ordered dict name -> Tensor, which is also
the checkpoint serialization unit.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .atomicio import atomic_open
from .autodiff import Tensor
from .errors import ContractError, DimensionError
from .gridtransform import GridShape, bordered_interp_matrix, check_token_cap

CHECKPOINT_MAGIC = b"ATTNCKPT"
CHECKPOINT_VERSION = 1
_MIN_RECORD = 4 + 1 + 8  # bytes of the smallest tensor record: name length, ndim, a float


@dataclass(frozen=True)
class ViTConfig:
    """Architecture of the toy model. The defaults are the desk-scale
    configuration used throughout: 32x32 RGB images, 4px patches."""

    patch_size: int = 4
    grid: GridShape = field(default_factory=lambda: GridShape(8, 8))
    embed_dim: int = 64
    num_layers: int = 4
    num_heads: int = 2
    mlp_ratio: float = 2.0
    num_classes: int = 3
    use_positional_embedding: bool = True
    in_channels: int = 3

    def __post_init__(self):
        if min(self.patch_size, self.embed_dim, self.num_layers, self.num_heads) < 1:
            raise ContractError("patch_size, embed_dim, num_layers and num_heads must be positive")
        if self.embed_dim % self.num_heads != 0:
            raise ContractError(f"embed_dim {self.embed_dim} not divisible by "
                                f"num_heads {self.num_heads}")
        if self.num_classes < 1 or self.in_channels < 1:
            raise ContractError("num_classes and in_channels must be positive")
        if not 1 <= self.mlp_ratio * self.embed_dim < math.inf:  # NaN fails too
            raise ContractError(f"mlp_ratio must be finite and give at least one MLP unit, "
                                f"got {self.mlp_ratio}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def mlp_dim(self) -> int:
        return int(self.mlp_ratio * self.embed_dim)

    @property
    def patch_dim(self) -> int:
        return self.in_channels * self.patch_size * self.patch_size

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = [self.grid.h, self.grid.w]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ViTConfig":
        d = dict(d)
        d["grid"] = GridShape(*d["grid"])
        return cls(**d)


@dataclass
class AttentionRecord:
    """Head-averaged post-softmax attention of one layer, (n+1) x (n+1),
    with a leading view axis when the forward ran a stack of views.

    ``matrix`` is a tape node (losses on it reach the parameters);
    ``heads`` is the per-head stack it averages, (..., H, n+1, n+1),
    which requires grad, so a sweep reaches it even when the parameters
    do not require grad (see attention_adjoints). A record's index in
    ForwardResult.attentions is its layer."""

    matrix: Tensor
    heads: Tensor


@dataclass
class ForwardResult:
    logits: Tensor  # (num_classes,), or (V, num_classes) for a stack of views
    attentions: list[AttentionRecord]
    grid: GridShape  # grid the image was patchified on


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """(..., C, H, W) image -> (..., n, C*p*p) rows of flattened patches,
    row-major patch order; channel-major layout inside each row."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim < 3:
        raise DimensionError(f"expected a (C, H, W) image, got shape {image.shape}")
    *lead, c, h, w = image.shape
    if h % patch_size or w % patch_size:
        raise DimensionError(f"image {h}x{w} not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    tiles = image.reshape(*lead, c, gh, patch_size, gw, patch_size)
    b = len(lead)
    order = (*range(b), b + 1, b + 3, b, b + 2, b + 4)
    return np.ascontiguousarray(tiles.transpose(order).reshape(*lead, gh * gw, -1))


def _shape_table(config: ViTConfig):
    """The parameter layout as (name, shape, init) rows: the rows before
    the blocks, one block's rows (names relative to ``blocks.{i}.``) and
    the rows after the blocks. init says how init_params fills a tensor:
    glorot, small (normal, sd 0.02), zeros or ones."""
    d, m, c = config.embed_dim, config.mlp_dim, config.num_classes
    before = [("patch_embed.weight", (config.patch_dim, d), "glorot"),
              ("patch_embed.bias", (1, d), "zeros"),
              ("cls_token", (1, d), "small")]
    if config.use_positional_embedding:
        before.append(("pos_embed", (config.grid.n + 1, d), "small"))
    block = [("ln1.gain", (1, d), "ones"), ("ln1.bias", (1, d), "zeros"),
             *((f"attn.{w}", (d, d), "glorot") for w in ("wq", "wk", "wv", "wo")),
             *((f"attn.{b}", (1, d), "zeros") for b in ("bq", "bk", "bv", "bo")),
             ("ln2.gain", (1, d), "ones"), ("ln2.bias", (1, d), "zeros"),
             ("mlp.w1", (d, m), "glorot"), ("mlp.b1", (1, m), "zeros"),
             ("mlp.w2", (m, d), "glorot"), ("mlp.b2", (1, d), "zeros")]
    after = [("final_ln.gain", (1, d), "ones"), ("final_ln.bias", (1, d), "zeros"),
             ("head.weight", (d, c), "glorot"), ("head.bias", (1, c), "zeros")]
    return before, block, after


def _layout(config: ViTConfig):
    """Every (name, shape, init) row of the shape table in checkpoint order."""
    before, block, after = _shape_table(config)
    yield from before
    for i in range(config.num_layers):
        for name, shape, init in block:
            yield f"blocks.{i}.{name}", shape, init
    yield from after


def init_params(config: ViTConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh trainable parameters; key order is the checkpoint order, and
    the random draws follow it."""
    params: dict[str, Tensor] = {}
    for name, shape, init in _layout(config):
        if init == "glorot":
            value = rng.normal(0.0, np.sqrt(2.0 / (shape[0] + shape[1])), size=shape)
        elif init == "small":
            value = rng.normal(0.0, 0.02, size=shape)
        else:
            value = np.full(shape, 1.0 if init == "ones" else 0.0)
        params[name] = Tensor(value, requires_grad=True)
    return params


def image_grid(image: np.ndarray, config: ViTConfig) -> GridShape:
    """Patch grid of a (..., C, H, W) image: whole patches along each side."""
    return GridShape(*(d // config.patch_size for d in image.shape[-2:]))


def _positional_rows(params: dict[str, Tensor], config: ViTConfig, grid: GridShape) -> Tensor:
    """Positional embedding rows for `grid`: the configured rows, or, when
    the view's grid differs (resize augmentation), their bilinear
    resampling by the bordered matrix, which keeps the class row."""
    pos = params["pos_embed"]
    if grid == config.grid:
        return pos
    return ad.matmul(bordered_interp_matrix(config.grid, grid), pos)


def forward(images: np.ndarray, params: dict[str, Tensor], config: ViTConfig) -> ForwardResult:
    """Run the model on one (C, H, W) image, or on a (V, C, H, W) stack of
    views on one grid in a single pass. Record ops on the active tape if
    there is one; otherwise this is a pure inference pass.

    Every layer's attention is computed on all n+1 rows; the last block
    continues from its attention on the class row alone, the only row
    the logits read (see the module docstring). A grid of more than
    gridtransform.TOKEN_CAP patch tokens raises ResourceError."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim not in (3, 4) or images.shape[-3] != config.in_channels:
        raise DimensionError(f"expected a ({config.in_channels}, H, W) image or a stack of "
                             f"them, got {images.shape}")
    grid = image_grid(images, config)
    check_token_cap(grid, "forward")
    patches = Tensor(patchify(images, config.patch_size))

    def linear(x: Tensor, name: str, bias: str) -> Tensor:
        return ad.linear(x, params[name], params[bias])

    x = linear(patches, "patch_embed.weight", "patch_embed.bias")
    x = ad.concat([params["cls_token"], x], axis=0)  # (..., n+1, d)
    if config.use_positional_embedding:
        x = ad.add(x, _positional_rows(params, config, grid))

    heads = config.num_heads
    scale = 1.0 / np.sqrt(config.head_dim)
    records: list[AttentionRecord] = []

    for i in range(config.num_layers):
        p = f"blocks.{i}."
        h = ad.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        # the 1/sqrt(d_head) scale goes on the queries, not the (n+1)^2 scores
        scores = ad.attention_scores(h, params[p + "attn.wq"], params[p + "attn.bq"],
                                     params[p + "attn.wk"], params[p + "attn.bk"], heads, scale)
        per_head = ad.softmax_rows(scores)  # (..., H, n+1, n+1)
        per_head.requires_grad = True  # before its consumers are recorded
        records.append(AttentionRecord(matrix=ad.mean(per_head, axis=-3), heads=per_head))
        last = i == config.num_layers - 1  # the logits read only its class row
        merged = ad.attend(per_head, h, params[p + "attn.wv"], params[p + "attn.bv"],
                           rows=1 if last else None)
        if last:
            x = ad.index(x, np.s_[..., 0:1, :])
        x = ad.add(x, linear(merged, p + "attn.wo", p + "attn.bo"))
        h2 = ad.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        m = linear(ad.gelu(linear(h2, p + "mlp.w1", p + "mlp.b1")), p + "mlp.w2", p + "mlp.b2")
        x = ad.add(x, m)

    cls = ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])  # (..., 1, d)
    logits = ad.index(linear(cls, "head.weight", "head.bias"), np.s_[..., 0, :])
    return ForwardResult(logits=logits, attentions=records, grid=grid)


def class_logit(result: ForwardResult, class_index: int) -> Tensor:
    """Scalar pre-sigmoid logit y^c, the localization target, of a
    single-image result (a stacked result has one logits row per view)."""
    if result.logits.ndim != 1:
        raise DimensionError(f"class_logit needs 1-d logits, got shape {result.logits.shape}")
    return ad.index(result.logits, class_index)


def attention_adjoints(tape: ad.Tape, result: ForwardResult, seed,
                       row: int | None = None) -> list[np.ndarray]:
    """One reverse sweep of ``tape``, on which ``result`` was recorded,
    from its logits seeded with ``seed`` (shaped like the logits: a
    class's one-hot, or one-hot rows, one class per view): each layer's
    per-head adjoint summed over the head axis, (..., n+1, n+1) with the
    result's view axis if it has one. With ``row``, only that row of
    each, (..., n+1), and only it is summed: row 0, the class token's, is
    all that localization reads; it is bit-identical to the same entries
    of the full sum. Each call's arrays are its own, and the tape stays
    usable for the next seed."""
    m = result.attentions[0].heads.shape[-1]
    if row is not None and not -m <= row < m:
        raise DimensionError(f"row {row} outside the {m} rows of the attention matrices")
    grads = tape.backward(result.logits, seed=seed,
                          wrt=[rec.heads for rec in result.attentions])
    # a head sum: computed once, and over the one row when asked
    return [ad.axis_sum(g, -3) if row is None else ad.axis_sum(g[..., row, :], -2)
            for g in grads]



# ---------------------------------------------------------------------------
# checkpoints: little-endian binary, header + named float64 tensors


def save_checkpoint(path, params: dict[str, Tensor], config: ViTConfig) -> None:
    """Layout: magic (8 bytes), version (u32), config JSON (u32 length +
    utf-8 bytes), tensor count (u32), then per tensor: name (u32 length +
    utf-8), ndim (u8), dims (u32 each), row-major float64 payload.
    All integers little-endian. The file is replaced atomically."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    with atomic_open(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", tensor.ndim))
            for dim in tensor.shape:
                f.write(struct.pack("<I", dim))
            f.write(np.ascontiguousarray(tensor.data).astype("<f8").tobytes())


def _floats(rows) -> int:
    """Elements in shape-table rows; a non-integer dimension raises TypeError."""
    return sum(math.prod(map(operator.index, shape)) for _, shape, _ in rows)


def load_checkpoint(path) -> tuple[dict[str, Tensor], ViTConfig]:
    """Inverse of save_checkpoint. A malformed file -- short, with a bad
    config blob, with a tensor missing, extra or shaped unlike the layout
    its config implies, or holding NaN or Inf -- raises ContractError."""
    raw = Path(path).read_bytes()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        pos += n
        if pos > len(raw):
            raise ContractError(f"{path}: truncated checkpoint")
        return raw[pos - n:pos]

    def u32() -> int:
        return struct.unpack("<I", take(4))[0]

    if take(8) != CHECKPOINT_MAGIC:
        raise ContractError(f"{path}: not a checkpoint (bad magic)")
    if (version := u32()) != CHECKPOINT_VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    blob = take(u32())
    try:
        config = ViTConfig.from_dict(json.loads(blob.decode("utf-8")))
    except (ValueError, TypeError, KeyError, ContractError) as exc:  # a header the model refuses
        raise ContractError(f"{path}: malformed checkpoint: {exc}") from exc
    try:
        # the payload size from the shape table alone: a header declaring a
        # huge model is refused before anything of its size is built
        before, block, after = _shape_table(config)
        payload = 8 * (_floats(before + after) + config.num_layers * _floats(block))
        stored = u32()
        room = len(raw) - pos
        if payload > room:
            raise ContractError(f"{path}: the config declares {payload} bytes of tensors, "
                                f"but {room} bytes remain")
        if stored > room // _MIN_RECORD:
            raise ContractError(f"{path}: {stored} tensors cannot fit in {room} bytes")
        layout = {name: shape for name, shape, _ in _layout(config)}
        params: dict[str, Tensor] = {}
        for _ in range(stored):
            name = take(u32()).decode("utf-8")
            ndim = take(1)[0]
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            if layout.get(name) != shape or name in params:
                raise ContractError(f"{path}: unexpected tensor {name!r} of shape {shape}")
            data = np.frombuffer(take(8 * int(np.prod(shape, dtype=np.int64))), dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise ContractError(f"{path}: tensor {name!r} holds NaN or Inf")
            params[name] = Tensor(data.astype(np.float64).reshape(shape), requires_grad=True)
    except (ValueError, TypeError, KeyError) as exc:
        raise ContractError(f"{path}: malformed checkpoint: {exc}") from exc
    if params.keys() != layout.keys():
        missing = [name for name in layout if name not in params]
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise ContractError(f"{path}: missing tensors {', '.join(missing[:5])}{more}")
    if pos != len(raw):
        raise ContractError(f"{path}: trailing bytes after last tensor")
    return params, config

"""Reverse-mode automatic differentiation on float64 numpy buffers.

The engine is deliberately small. A :class:`Tensor` wraps a contiguous
float64 array and an optional accumulated gradient. A :class:`Tape`
records every operation executed while it is active (entered with
``with``), and ``backward`` replays the records in reverse order to
accumulate adjoints. One tape per training step; with no active tape
every op is a plain forward computation, which is what inference uses.

A tape records the graph, not the values. A node holds the op name; per
input, where its adjoint goes (the index of the node that produced it on
this tape, the leaf tensor, or None when the input did not require grad
when the node was recorded); the output's shape; and the backward
closure, which captures the arrays its backward reads and no more. So an
op's output lives only while the caller or some closure holds it: the
pre-softmax scores, a block copy or a residual sum that no backward
reads is freed as soon as the caller drops it. An unseeded backward
drops each node, closure and all, once the sweep has passed it.

The 16 ops: add, mul; matmul and the fused linear, attention_scores,
attend and resample; gelu, layer_norm, softmax_rows and mean; the losses
view_consistency (both two-view consistency terms of every loss layer,
by l1, l2 or smooth-l1 distance) and bce_with_logits; and concat, index
(numpy basic indexing) and permute_rc.

Conventions:

* float64 everywhere, row-major (C-order) storage;
* a "scalar" is a tensor with exactly one element (usually shape ());
* matrix ops (matmul, layer_norm, softmax_rows, concat, resample,
  permute_rc) act on the last two axes and accept leading batch axes,
  e.g. (views, tokens, dim) or (views, heads, tokens, tokens);
  permute_rc takes one index per batch entry, for the rows and the
  columns of a square matrix, and resample one constant matrix for
  every entry. A parameter without
  those axes (a weight, a bias, the class token) is shared across them,
  and its gradient sums over all leading axes. mean(x, axis) averages
  over one axis (the head axis);
* fused ops record one node for a chain that would otherwise take
  several, and evaluate the same numpy expressions on the same
  contiguous operands as that chain, so their outputs are bit-identical
  to it: linear is x @ w + b; attention_scores projects
  tokens (..., m, d) to queries and keys, splits their columns onto a
  head axis and returns the scaled scores (..., heads, m, m);
  attend projects the values, applies per-head attention
  probabilities and merges the heads back to (..., m, d'), or computes
  only the first r query rows, (..., r, d'), when a consumer reads no
  other (the last block, whose logits read the class row). Their
  weights and biases are 2-d and shared over the token tensor's
  leading axes. resample is P A P^T with each row rescaled to P times
  A's row sums, the chain of a row sum, three matmuls and a row
  rescale that resizes an attention matrix between patch grids;
* binary elementwise ops broadcast a scalar, or an operand shaped like
  the other's trailing axes (a shared table over a batch); any other
  shape mismatch raises DimensionError. Fused ops (layer_norm, linear,
  resample, ...) own their internal broadcasting; view_consistency
  takes one shape for every layer and both views (see its docstring);
* every op output is checked for NaN/Inf and rejected with
  NumericalError;
* an op output requires grad when any of its inputs does. The reverse
  sweep passes gradients only to inputs that required grad when their
  consumer was recorded: an op returns None for an operand that does
  not require grad, and a node none of whose inputs did is not swept;
* backward stores ``.grad`` only in leaves (tensors no op on the tape
  produced) that require grad; every intermediate keeps ``.grad is
  None``. The adjoint of an intermediate is returned instead, for each
  tensor named in ``wrt``: set ``requires_grad`` on it before it is
  used, and ops recorded after carry its gradient even when no
  trainable leaf sits below it. A stored ``.grad`` or returned adjoint
  shares memory with no other and not with the caller's seed;
* gradients accumulate: running backward twice (on two tapes) adds
  into ``.grad``; callers zero grads between optimizer steps;
* a backward never writes into the adjoint it is given: one adjoint can
  reach several operands (add hands the same array to both), and a
  gradient may be a read-only view (mean's broadcast). An op computes in
  place only in arrays it allocated itself;
* an adjoint that is zero outside its first r rows of the last two axes
  may travel as a row block, holding only those r rows: attend's
  gradient of its probabilities when it computes r < m query rows.
  softmax_rows' backward maps a row block to a row block, running its
  expressions on those rows only (they act row by row). The sweep
  densifies a row block, into zeros plus the block, before any other
  op's backward reads it, before it is added to another adjoint, and
  before it is stored as ``.grad`` or returned for ``wrt``; so a row
  block never leaves the sweep, and every value is bit-identical to the
  dense path's. An evaluation sweep, whose seed reaches the last
  layer's attention only through the class row, thus runs that layer's
  softmax backward on one row per head.

A tape and the tensors recorded on it are confined to one thread;
the active-tape slot is thread-local, so a tape active on one thread
does not record ops run on another.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError, NumericalError, StateError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5  # added to layer_norm's row variance
_ZERO_ROW_SUM = 1e-12  # resample leaves a row whose sum is within this of zero unscaled


class Tensor:
    """A contiguous float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_origin", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        # note: order="C" (not ascontiguousarray) so 0-d scalars stay 0-d
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NumericalError("tensor data contains NaN or Inf")
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        # (recording token, node index) of the op that produced it on a
        # tape; None for a tensor no op produced while a tape was active
        self._origin: tuple[object, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _RowBlock:
    """An adjoint of the given full ``shape`` that is zero outside its
    first r rows (second-to-last axis), held as those rows: ``rows`` is
    (..., r, shape[-1]). Only the sweep and softmax_rows' backward ever
    see one (see the module docstring)."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows: Array, shape: tuple[int, ...]):
        self.rows = rows
        self.shape = shape

    def dense(self) -> Array:
        full = np.zeros(self.shape)
        full[..., :self.rows.shape[-2], :] = self.rows
        return full


def _dense(g: "Array | _RowBlock") -> Array:
    return g.dense() if type(g) is _RowBlock else g


class _Node:
    """One recorded op. ``inputs`` says, per input, where its adjoint
    goes: the index on this tape of the node that produced it, the leaf
    Tensor itself, or None when the input did not require grad at
    recording. Of the output the node keeps the shape, not the values."""

    __slots__ = ("op", "inputs", "shape", "backward")

    def __init__(self, op: str, inputs: tuple[int | Tensor | None, ...], output: Tensor,
                 backward: Callable[[Array], tuple[Array | None, ...]]):
        self.op = op
        self.inputs = inputs
        self.shape = output.shape
        self.backward = backward


_tls = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tape:
    """Ordered record of operations for one reverse-mode pass.

    Usage::

        with Tape() as tape:
            loss = ...            # ops executed here are recorded
        tape.backward(loss)       # adjoints land in the leaves' .grad

    A tape is single-use: after backward() it refuses further work, and a
    new recording opens a new Tape; only a seeded backward leaves it
    usable. Nodes are stored in execution order, a topological order of
    the graph, so the reverse sweep sees every consumer before its
    producer and each node once.

    The tape records the graph, not its values (see _Node). An unseeded
    backward drops each node, closure and all, once the sweep has passed
    it, and leaves ``nodes`` empty; a seeded one keeps them for the next
    seed. Each produced tensor carries its (token, index) on the tape;
    the token is a fresh object per tape, so a tensor from an earlier
    recording enters a new one as a leaf.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._token = object()
        self._spent = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise StateError("another tape is already active on this thread; tapes do not nest")
        if self._spent:
            raise StateError("tape already consumed by backward(); open a new Tape")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tls.tape = None

    def _record(self, op: str, inputs: tuple[int | Tensor | None, ...], out: Tensor,
                backward: Callable[[Array], tuple[Array | None, ...]]) -> None:
        if self._spent:
            raise StateError("tape already consumed by backward(); open a new Tape")
        out._origin = (self._token, len(self.nodes))
        self.nodes.append(_Node(op, inputs, out, backward))

    def backward(self, loss: Tensor, seed: Array | None = None,
                 wrt: Sequence[Tensor] = ()) -> list[Array]:
        """Accumulate d(loss)/d(x) into x.grad for every leaf x that requires
        grad, and return d(loss)/d(t) for each tensor t of ``wrt``, in its
        order. No other tensor gets a .grad, and no gradient is computed
        for an input that did not require grad when its consumer was
        recorded.

        A ``wrt`` tensor must have been produced by this recording; its
        adjoint comes only through consumers recorded while it required
        grad, and is zeros of its shape when the sweep does not reach it.

        With ``seed``, a finite adjoint shaped like ``loss`` (then not
        necessarily a scalar), the sweep starts from it instead of ones
        and leaves the tape usable: one recorded forward can be swept once
        per seed. Without it, the sweep drops every node it has passed."""
        if self._spent:
            raise StateError("tape already consumed by backward(); open a new Tape")
        if seed is None and loss.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if seed is not None and np.shape(seed) != loss.shape:
            raise DimensionError(f"seed shape {np.shape(seed)} != loss shape {loss.shape}")
        nodes = self.nodes
        if not nodes:
            raise ContractError("tape is empty; nothing was recorded")
        origin = loss._origin
        if origin is None or origin[0] is not self._token:
            raise ContractError("loss tensor was not produced on this tape")
        start = (np.ones_like(loss.data) if seed is None
                 else np.asarray(seed, dtype=np.float64))
        if not np.isfinite(start).all():
            raise NumericalError("backward seed contains NaN or Inf")
        want = []  # the node index of each wrt tensor
        for t in wrt:
            at = getattr(t, "_origin", None)
            if at is None or at[0] is not self._token:
                raise ContractError("a wrt tensor was not produced on this tape")
            want.append(at[1])
        found: dict[int, Array | None] = dict.fromkeys(want)
        spend = seed is None
        self._spent = spend

        top = origin[1]
        # adjoints keyed by producer index on this tape, or by leaf tensor
        acc: dict[int | Tensor, Array] = {top: start}
        if spend:  # nothing recorded after the loss reaches it
            del nodes[top + 1:]
        for i in range(top, -1, -1):
            node = nodes.pop() if spend else nodes[i]
            g = acc.pop(i, None)
            if g is None:
                continue
            if type(g) is _RowBlock and node.op != "softmax_rows":  # the one op taking blocks
                g = g.dense()
            if i in found:
                found[i] = g
            refs = node.inputs
            if refs.count(None) == len(refs):  # no input required grad
                continue
            grads = node.backward(g)
            if len(grads) != len(refs):
                raise ContractError(f"{node.op}: backward returned {len(grads)} grads "
                                    f"for {len(refs)} inputs")
            for ref, gi in zip(refs, grads):
                if ref is None or gi is None:
                    continue
                shape = nodes[ref].shape if type(ref) is int else ref.shape
                if gi.shape != shape:
                    raise DimensionError(f"{node.op}: gradient shape {gi.shape} does not "
                                         f"match input shape {shape}")
                prev = acc.get(ref)
                acc[ref] = gi if prev is None else _dense(prev) + _dense(gi)

        # ids of the arrays already stored or returned; they stay alive
        # (their tensors or the result hold them), so an id is not reused
        stored: set[int] = set()

        def own(g: Array) -> Array:
            # copy only what may alias: the caller's seed, a view (mean's
            # broadcast, a concat piece), or an array stored already (add
            # hands one adjoint to both operands)
            if (seed is not None and g is start) or g.base is not None or id(g) in stored:
                g = g.copy()
            stored.add(id(g))
            return g

        # the sweep has taken every node index: what is left are the
        # leaves, those that required grad when their consumers were recorded
        for leaf, g in acc.items():
            g = _dense(g)
            leaf.grad = own(g) if leaf.grad is None else leaf.grad + g
        return [np.zeros(t.shape) if found[i] is None else own(_dense(found[i]))
                for t, i in zip(wrt, want)]


# ---------------------------------------------------------------------------
# op plumbing


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Tensor(np.float64(x))
    if isinstance(x, np.ndarray):
        return Tensor(x)
    raise ContractError(f"expected Tensor or number, got {type(x).__name__}")


def _apply(op: str, inputs: tuple[Tensor, ...], out_data: Array,
           backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    try:
        out = Tensor(out_data)
    except NumericalError:
        raise NumericalError(f"{op}: result contains NaN or Inf") from None
    tape = _active_tape()
    token = None if tape is None else tape._token
    refs = []  # per input: its producer's index on this tape, the leaf, or None
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            origin = t._origin
            refs.append(origin[1] if origin is not None and origin[0] is token else t)
        else:
            refs.append(None)
    if tape is not None:
        tape._record(op, tuple(refs), out, backward_fn)
    return out


def _trails(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """small is big without some of its leading axes."""
    return len(small) < len(big) and big[len(big) - len(small):] == small


def _check_pair(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    if _trails(a.shape, b.shape) or _trails(b.shape, a.shape):
        return
    raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}; only "
                         "identical shapes, scalar-vs-tensor or leading-axis "
                         "broadcast are supported")


def _reduce_to(g: Array, shape: tuple[int, ...]) -> Array:
    """Undo broadcasting: collapse g onto a size-1 target shape, or sum it
    over the leading axes the target lacks."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.sum(g).reshape(shape)
    return g.reshape(-1, *shape).sum(axis=0)


def _sum_rows_of(g: Array, width: int) -> Array:
    """Gradient of a shared (1, width) row: g summed over every leading axis."""
    return g.reshape(-1, width).sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# binary elementwise


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("add", a, b)
    shape_a, shape_b = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g: Array):
        return (_reduce_to(g, shape_a) if need_a else None,
                _reduce_to(g, shape_b) if need_b else None)

    return _apply("add", (a, b), a.data + b.data, bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("mul", a, b)
    ad, bd = a.data, b.data

    def bw(g: Array):
        return (_reduce_to(g * bd, a.shape) if a.requires_grad else None,
                _reduce_to(g * ad, b.shape) if b.requires_grad else None)

    return _apply("mul", (a, b), ad * bd, bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Product over the last two axes. a (..., m, k) meets either a 2-d
    b (k, n), shared across a's leading axes, or b (..., k, n) with the
    same leading axes, one product per batch entry."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: needs operands of at least 2 dims, got {a.shape} @ {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: batch axes disagree: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def bw(g: Array):
        ga = g @ np.swapaxes(bd, -1, -2) if a.requires_grad else None
        if not b.requires_grad:
            return ga, None
        if bd.ndim == 2:  # one product over all rows of all batch entries
            return ga, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, np.swapaxes(ad, -1, -2) @ g

    return _apply("matmul", (a, b), ad @ bd, bw)


# ---------------------------------------------------------------------------
# fused transformer ops: one node each for an affine map and for the two
# halves of multi-head attention around its softmax


def _check_affine(op: str, x: Tensor, w: Tensor, b: Tensor) -> None:
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise DimensionError(f"{op}: expected x (..., m, k), w (k, n) and b (1, n), "
                             f"got {x.shape}, {w.shape} and {b.shape}")


def _check_heads(op: str, width: int, heads: int) -> None:
    if heads < 1 or width % heads:
        raise DimensionError(f"{op}: cannot split width {width} into {heads} heads")


def _affine(x: Array, w: Array, b: Array) -> Array:
    """x @ w + b: a (..., m, k) x, a (k, n) w shared over x's leading axes,
    and a (1, n) b added to every row."""
    return x @ w + b


def _affine_grads(g: Array, x: Tensor, w: Tensor, b: Tensor):
    """Gradients of _affine for the output adjoint g; None for an operand
    that does not require grad. The shared w and b sum over every row of
    every leading axis."""
    gx = g @ w.data.T if x.requires_grad else None
    gw = (x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
          if w.requires_grad else None)
    gb = _sum_rows_of(g, g.shape[-1]) if b.requires_grad else None
    return gx, gw, gb


def _split_heads(a: Array, heads: int) -> Array:
    """(..., m, heads * k) -> contiguous (..., heads, m, k): column block j
    becomes head j."""
    *lead, m, width = a.shape
    return np.ascontiguousarray(np.swapaxes(a.reshape(*lead, m, heads, width // heads), -2, -3))


def _merge_heads(a: Array) -> Array:
    """(..., heads, m, k) -> (..., m, heads * k), the inverse of
    _split_heads: head blocks side by side in head order."""
    *lead, heads, m, k = a.shape
    return np.ascontiguousarray(np.swapaxes(a, -3, -2)).reshape(*lead, m, heads * k)


def linear(x, w, b) -> Tensor:
    """x @ w + b as one node: x (..., m, k), w (k, n) and b (1, n) shared
    over x's leading axes."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _check_affine("linear", x, w, b)

    def bw(g: Array):
        return _affine_grads(g, x, w, b)

    return _apply("linear", (x, w, b), _affine(x.data, w.data, b.data), bw)


def attention_scores(h, wq, bq, wk, bk, heads: int, scale: float) -> Tensor:
    """Pre-softmax scores of multi-head attention, (..., heads, m, m), from
    tokens h (..., m, d): per head, ((h wq + bq) * scale) @ (h wk + bk)^T
    over that head's column block of the projections."""
    h, wq, bq, wk, bk = (_as_tensor(t) for t in (h, wq, bq, wk, bk))
    _check_affine("attention_scores", h, wq, bq)
    _check_affine("attention_scores", h, wk, bk)
    if wq.shape != wk.shape:
        raise DimensionError(f"attention_scores: wq {wq.shape} and wk {wk.shape} differ")
    _check_heads("attention_scores", wq.shape[1], heads)
    q = _split_heads(_affine(h.data, wq.data, bq.data) * scale, heads)
    kt = np.ascontiguousarray(np.swapaxes(_split_heads(_affine(h.data, wk.data, bk.data),
                                                       heads), -1, -2))

    def bw(g: Array):
        ghq, gwq, gbq = _affine_grads(_merge_heads(g @ np.swapaxes(kt, -1, -2)) * scale,
                                      h, wq, bq)
        ghk, gwk, gbk = _affine_grads(_merge_heads(np.swapaxes(np.swapaxes(q, -1, -2) @ g,
                                                               -1, -2)), h, wk, bk)
        return None if ghq is None else ghq + ghk, gwq, gbq, gwk, gbk

    return _apply("attention_scores", (h, wq, bq, wk, bk), q @ kt, bw)


def attend(probs, h, wv, bv, rows: int | None = None) -> Tensor:
    """Attention output with heads merged, (..., r, d'): per head,
    probs[..., :r, :] @ (h wv + bv) over that head's column block, for
    probs (..., heads, m, m) and tokens h (..., m, d). Only the first r
    query rows are computed (default: all m); every value row is read, so
    h's gradient covers all m tokens, and probs' gradient is zero on the
    query rows not computed: with r < m it is a row block of r rows."""
    probs, h, wv, bv = (_as_tensor(t) for t in (probs, h, wv, bv))
    _check_affine("attend", h, wv, bv)
    m = h.shape[-2]
    if probs.ndim != h.ndim + 1 or probs.shape[:-3] != h.shape[:-2] \
            or probs.shape[-2:] != (m, m):
        raise DimensionError(f"attend: probs {probs.shape} do not match tokens {h.shape}")
    if rows is None:
        rows = m
    if not 1 <= rows <= m:
        raise DimensionError(f"attend: cannot compute {rows} query rows of {m}")
    heads = probs.shape[-3]
    _check_heads("attend", wv.shape[1], heads)
    pd = probs.data[..., :rows, :]
    v = _split_heads(_affine(h.data, wv.data, bv.data), heads)

    def bw(g: Array):
        gpv = _split_heads(g, heads)
        gp = None
        if probs.requires_grad:
            gp = gpv @ np.swapaxes(v, -1, -2)
            if rows < m:  # the rows not computed had no effect
                gp = _RowBlock(gp, probs.shape)
        if not (h.requires_grad or wv.requires_grad or bv.requires_grad):
            return gp, None, None, None
        return (gp, *_affine_grads(_merge_heads(np.swapaxes(pd, -1, -2) @ gpv), h, wv, bv))

    return _apply("attend", (probs, h, wv, bv), _merge_heads(pd @ v), bw)


def resample(a, p) -> Tensor:
    """P A P^T with each row rescaled to sum to P times A's row sums, as
    one node: a (..., m, m) and a constant 2-d p (m', m), the same for
    every matrix of the stack, give (..., m', m'). A row of P A P^T
    summing to within 1e-12 of zero keeps factor 1. It resizes attention
    matrices between patch grids (gridtransform.resize_attention)."""
    a = _as_tensor(a)
    p = np.asarray(p, dtype=np.float64, order="C")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or p.ndim != 2 or p.shape[1] != a.shape[-1]:
        raise DimensionError(f"resample: expected a (..., m, m) and p (m', m), "
                             f"got {a.shape} and {p.shape}")
    m = a.shape[-1]
    # P as a broadcast view over the stack, and a contiguous P^T (a
    # transposed view rounds differently): each product then rounds as
    # in the chain this op replaces, whose matmul nodes read Tensor
    # copies of P and P^T
    left = np.broadcast_to(p, a.shape[:-2] + p.shape)
    pT = np.ascontiguousarray(p.T)
    # A's row sums reduce in the order of the rescale's own sums of x, so
    # P = I (source grid == target grid) is an exact identity
    target = left @ a.data.sum(axis=-1, keepdims=True)
    x = (left @ a.data) @ pT
    r = x.sum(axis=-1, keepdims=True)
    live = np.abs(r) > _ZERO_ROW_SUM
    safe_r = np.where(live, r, 1.0)
    factor = np.where(live, target / safe_r, 1.0)

    def bw(g: Array):
        # the rescale's adjoints of x and of the target sums, then through
        # the products and the row sums, added in that order
        inner = (g * x).sum(axis=-1, keepdims=True)
        gx = g * factor - np.where(live, target / (safe_r * safe_r), 0.0) * inner
        gt = np.where(live, inner / safe_r, 0.0)
        lt = np.swapaxes(left, -1, -2)
        return (lt @ (gx @ np.swapaxes(pT, -1, -2)) + (lt @ gt) * np.ones((1, m)),)

    return _apply("resample", (a,), x * factor, bw)


# ---------------------------------------------------------------------------
# unary nonlinearities


def gelu(x) -> Tensor:
    """Exact (erf-based) GELU."""
    x = _as_tensor(x)
    xd = x.data
    # the CDF phi = 0.5 * (1 + erf(x / sqrt 2)) and the derivative
    # phi + x * pdf, pdf = exp(-x^2 / 2) / sqrt(2 pi), each built in place
    phi = xd * _INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out = xd * phi
    dy = -0.5 * xd
    dy *= xd
    np.exp(dy, out=dy)
    dy *= _INV_SQRT2PI
    dy *= xd
    dy += phi

    def bw(g: Array):
        return (g * dy,)

    return _apply("gelu", (x,), out, bw)


def _stable_sigmoid(z: Array) -> Array:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# row and reduction ops


def _softmax_grad(g: Array, y: Array) -> Array:
    """softmax_rows' input adjoint y * (g - rowsum(g * y)), row by row."""
    gx = g * y
    dot = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gx)
    gx *= y
    return gx


def softmax_rows(x) -> Tensor:
    """Softmax over the last axis of a tensor of at least 2 dims,
    stabilized by the row max."""
    x = _as_tensor(x)
    if x.ndim < 2:
        raise DimensionError(f"softmax_rows: needs at least 2 dims, got shape {x.shape}")
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bw(g: "Array | _RowBlock"):
        if type(g) is _RowBlock:  # zero outside its rows, and so is the result
            return (_RowBlock(_softmax_grad(g.rows, y[..., :g.rows.shape[-2], :]), g.shape),)
        return (_softmax_grad(g, y),)

    return _apply("softmax_rows", (x,), y, bw)


def layer_norm(x, gain, bias) -> Tensor:
    """Per-row layer normalization over the last axis of a (..., m, d)
    tensor with affine (1, d) params."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.ndim < 2:
        raise DimensionError(f"layer_norm: needs at least 2 dims, got shape {x.shape}")
    d = x.shape[-1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(f"layer_norm: gain/bias must be (1,{d}), got {gain.shape} and {bias.shape}")
    # row means as sum / d, the arithmetic of ndarray.mean and .var
    # without their per-call Python overhead
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d  # centered, then scaled
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    gd = gain.data
    out = xhat * gd
    out += bias.data
    need_x, need_gain, need_bias = x.requires_grad, gain.requires_grad, bias.requires_grad

    def bw(g: Array):
        ggain = _sum_rows_of(g * xhat, d) if need_gain else None
        gbias = _sum_rows_of(g, d) if need_bias else None
        gx = None
        if need_x:
            # inv * (gg - sum(gg) / d - (xhat * sum(gg * xhat)) / d), gg = g * gain
            gx = g * gd
            proj = gx * xhat
            proj_sum = proj.sum(axis=-1, keepdims=True)
            np.multiply(xhat, proj_sum, out=proj)
            proj /= d
            gx -= gx.sum(axis=-1, keepdims=True) / d
            gx -= proj
            gx *= inv
        return gx, ggain, gbias

    return _apply("layer_norm", (x, gain, bias), out, bw)


def mean(x, axis: int | None = None) -> Tensor:
    """Mean of all elements (a scalar), or over one axis, which is dropped
    (the head average of a (..., heads, m, m) attention stack): numpy's
    sum over the axis, then one divide."""
    x = _as_tensor(x)
    shape = x.shape
    if axis is None:
        n = float(x.size)

        def bw(g: Array):
            return (np.full(shape, float(g) / n),)

        return _apply("mean", (x,), np.asarray(x.data.mean()), bw)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"mean: axis {axis} out of range for shape {shape}")
    k = shape[axis]
    if k == 0:
        raise DimensionError(f"mean: axis {axis} of shape {shape} is empty")

    def bw_axis(g: Array):
        return (np.broadcast_to(np.expand_dims(g / k, axis), shape),)

    out = x.data.sum(axis=axis)
    out /= k
    return _apply("mean", (x,), out, bw_axis)


# (elements, slope) of each distance as functions of d = a - b: the
# distance is the mean of the elements, and the slope is their derivative
# in d (the sign at an l1 kink, where d == 0)
_DISTANCE_TERMS = {
    "l1": (np.abs, np.sign),
    "l2": (lambda d: d * d, lambda d: 2.0 * d),
    # Huber with delta 1: 0.5 d^2 inside |d| <= 1, |d| - 0.5 outside
    "smooth_l1": (lambda d: np.where(np.abs(d) <= 1.0, 0.5 * d * d, np.abs(d) - 0.5),
                  lambda d: np.where(np.abs(d) <= 1.0, d, np.sign(d))),
}
DISTANCES = tuple(_DISTANCE_TERMS)

# the blocks view_consistency compares: the class token's row over the
# patches (activation), and the patch-to-patch block (affinity)
CONSISTENCY_BLOCKS = (np.s_[..., 0:1, 1:], np.s_[..., 1:, 1:])


class Consistency(NamedTuple):
    """view_consistency's result: ``loss``, the (2,) tensor [l_act, l_aff],
    and ``layers``, the (2, L) array of each layer's mean distance per
    term, which is not differentiated."""

    loss: Tensor
    layers: Array


def view_consistency(plain, augmented, distance: str, index=None) -> Consistency:
    """Both consistency terms between the attention of two views, over L
    layers, as one node: per layer, the mean distance (one of DISTANCES)
    between the plain view's blocks CONSISTENCY_BLOCKS and the same
    blocks of the augmented view, averaged over layers.

    ``plain`` holds L tensors (..., m, m). With ``augmented`` None each is
    a (2k, ...) stack whose first k entries are the plain view's and
    last k the augmented view's; otherwise ``augmented`` holds L tensors
    shaped like ``plain``'s. ``index``, an int array shaped like an
    augmented entry's leading axes plus (m,), gathers each augmented
    matrix first: entry e reads rows and columns index[e] of its own
    matrix, and a bad index is refused as permute_rc refuses it.

    Values and adjoints are bit-identical to the chain this replaces:
    per layer the augmented half gathered, per term a block ``index`` of
    each view and the mean distance, then the layer sum times 1/L.
    Each input's adjoint is one fresh array, zeros plus its blocks,
    accumulated as that chain's sweep adds them; a term whose adjoint is
    zero, such as one weighted 0, takes no backward work."""
    if distance not in _DISTANCE_TERMS:
        raise ContractError(f"distance must be one of {DISTANCES}, got {distance!r}")
    elements, slope = _DISTANCE_TERMS[distance]
    plain = [_as_tensor(t) for t in plain]
    stacked = augmented is None
    augmented = plain if stacked else [_as_tensor(t) for t in augmented]
    if not plain or len(augmented) != len(plain):
        raise DimensionError(f"view_consistency: need equal nonzero layer counts, got "
                             f"{len(plain)} and {len(augmented)}")
    shape = plain[0].shape
    if len(shape) < 2 or shape[-1] != shape[-2] or shape[-1] < 2 \
            or (stacked and (len(shape) < 3 or shape[0] % 2)):
        raise DimensionError(f"view_consistency: expected square attention (..., m, m), m >= 2"
                             f"{', stacked on an even leading axis' if stacked else ''}, "
                             f"got {shape}")
    for i, (a, b) in enumerate(zip(plain, augmented)):
        if a.shape != shape or b.shape != shape:
            raise DimensionError(f"view_consistency: layer {i}: expected {shape} in both "
                                 f"views, got {a.shape} and {b.shape}")
    # an input's plain and augmented part: [:half] and [half:], a stack's
    # halves, or (half None) all of each separate view
    half = shape[0] // 2 if stacked else None
    gathers = None  # per block, the flat index of the augmented matrix's entries
    if index is not None:
        index = np.asarray(index, dtype=np.intp)
        if index.shape[-1:] != shape[-1:]:
            raise DimensionError(f"view_consistency: index {index.shape} does not gather "
                                 f"{shape[-1]} tokens")
        lead = shape[:-2] if half is None else (half,) + shape[1:-2]
        flat = _gather_index("view_consistency", lead + shape[-2:], index)
        gathers = [np.ascontiguousarray(flat[key]) for key in CONSISTENCY_BLOCKS]

    layers = len(plain)
    per_layer = np.empty((2, layers))
    diffs = []  # per layer, each term's d = a - b
    for i, (a, b) in enumerate(zip(plain, augmented)):
        pa, pb = a.data[:half], b.data[half:]
        ds = []
        for t, key in enumerate(CONSISTENCY_BLOCKS):
            block = pb[key] if gathers is None else pb.take(gathers[t]).reshape(pa[key].shape)
            d = pa[key] - block
            per_layer[t, i] = elements(d).mean()
            ds.append(d)
        diffs.append(ds)
    out = np.empty(2)
    for t in range(2):  # the chain's adds in layer order, then one scale
        total = per_layer[t, 0]
        for i in range(1, layers):
            total = total + per_layer[t, i]
        out[t] = total * (1.0 / layers)
    inputs = tuple(plain) if stacked else (*plain, *augmented)
    need = [t.requires_grad for t in inputs]

    def bw(g: Array):
        live = [t for t in range(2) if g[t] != 0.0]
        if not live:
            return (None,) * len(need)
        # a stack's halves, or both terms of a separate view, reach an
        # input as full arrays that the chain adds: 0 + x, which makes -0 +0
        accumulate = stacked or len(live) == 2
        grads_a, grads_b = [], []
        for i, ds in enumerate(diffs):
            ga = np.zeros(shape) if need[i] else None
            gb = ga if stacked else np.zeros(shape) if need[layers + i] else None
            for t in live:
                step = float(g[t] * (1.0 / layers)) / ds[t].size * slope(ds[t])
                key = CONSISTENCY_BLOCKS[t]
                if ga is not None:
                    _place(ga[:half], key, step, accumulate)
                if gb is not None and gathers is None:
                    _place(gb[half:], key, -step, accumulate)
                elif gb is not None:
                    at = gathers[t]
                    _place(gb[half:].reshape(-1), at, (-step).reshape(at.shape), accumulate)
            grads_a.append(ga)
            grads_b.append(gb)
        return tuple(grads_a) if stacked else (*grads_a, *grads_b)

    return Consistency(_apply("view_consistency", inputs, out, bw), per_layer)


def _place(target: Array, key, values: Array, accumulate: bool) -> None:
    """Write `values` into the zeros of `target` at `key`: as 0 + x, which
    makes -0 +0, or as they are."""
    target[key] = values + 0.0 if accumulate else values


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross entropy on raw logits, numerically stabilized."""
    z, t = _as_tensor(logits), _as_tensor(targets)
    if z.shape != t.shape:
        raise DimensionError(f"bce_with_logits: logits {z.shape} vs targets {t.shape}")
    zd, td = z.data, t.data
    n = float(zd.size)
    elems = np.maximum(zd, 0.0) - zd * td + np.log1p(np.exp(-np.abs(zd)))
    s = _stable_sigmoid(zd)

    def bw(g: Array):
        return (float(g) / n * (s - td) if z.requires_grad else None,
                float(g) / n * (-zd) if t.requires_grad else None)

    return _apply("bce_with_logits", (z, t), np.asarray(elems.mean()), bw)


# ---------------------------------------------------------------------------
# shape surgery


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join matrices along their rows (axis 0) or columns (axis 1), the
    last two axes. Parts may carry the same leading batch axes; a 2-d part
    among batched ones (the class token) is broadcast over them, and its
    gradient sums over the batch."""
    parts = tuple(_as_tensor(p) for p in parts)
    if not parts:
        raise ContractError("concat: needs at least one part")
    if axis not in (0, 1):
        raise ContractError(f"concat: axis must be 0 or 1, got {axis}")
    if any(p.ndim < 2 for p in parts):
        raise DimensionError("concat: all parts must have at least 2 dims")
    batch = max((p.shape[:-2] for p in parts), key=len)
    if any(p.shape[:-2] not in ((), batch) for p in parts):
        raise DimensionError(f"concat: parts disagree on batch axes: {[p.shape for p in parts]}")
    other = -1 - axis
    if len({p.shape[other] for p in parts}) != 1:
        raise DimensionError(f"concat: parts disagree on axis {1 - axis}: {[p.shape for p in parts]}")
    along = axis - 2
    splits = np.cumsum([p.shape[along] for p in parts])[:-1]
    # per part, the shape its gradient takes, or None when it needs none
    targets = [p.shape if p.requires_grad else None for p in parts]

    def bw(g: Array):
        pieces = np.split(g, splits, axis=along)
        return tuple(None if shape is None else _reduce_to(np.ascontiguousarray(piece), shape)
                     for piece, shape in zip(pieces, targets))

    out = np.concatenate([np.broadcast_to(p.data, batch + p.shape[-2:]) for p in parts],
                         axis=along)
    return _apply("concat", parts, out, bw)


def index(x, key) -> Tensor:
    """numpy basic indexing, x[key]: an element of a 1-d tensor (a
    scalar), a run of views of a stack, a block of the last two axes
    (np.s_[..., 1:, 1:]). The gradient is zero off the selection. The key
    is an int (not a bool), a slice, Ellipsis or a tuple of these: an
    advanced index could repeat an entry, and the backward's assignment
    would then drop gradient."""
    x = _as_tensor(x)
    for part in key if isinstance(key, tuple) else (key,):
        if isinstance(part, bool) or not isinstance(part, (int, np.integer, slice, type(...))):
            raise ContractError(f"index: key entries must be ints, slices or Ellipsis, "
                                f"got {type(part).__name__}")
    try:
        out = x.data[key]
    except (IndexError, TypeError, ValueError) as exc:  # out of range, a bad slice
        raise ContractError(f"index: {exc} (shape {x.shape})") from None
    if out.size == 0:
        raise DimensionError(f"index: {key} selects nothing of {x.shape}")
    shape = x.shape

    def bw(g: Array):
        gx = np.zeros(shape)
        gx[key] = g
        return (gx,)

    return _apply("index", (x,), np.asarray(out), bw)


def permute_rc(x, index) -> Tensor:
    """Differentiable batched gather out[..., i, j] = x[..., index[..., i],
    index[..., j]]: each square matrix of a (..., m, m) stack re-indexed,
    rows and columns alike, by its own index, shaped like x's leading
    axes plus one (a 2-d x takes a 1-d index). Within an entry the index
    is distinct (a re-indexing, such as a token permutation), so the
    backward scatter is an assignment."""
    x = _as_tensor(x)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimensionError(f"permute_rc: expected square matrices (..., m, m), "
                             f"got shape {x.shape}")
    flat = _gather_index("permute_rc", x.shape, index)
    out_shape = x.shape[:-2] + flat.shape[1:]
    shape = x.shape

    def bw(g: Array):
        gx = np.zeros(math.prod(shape))
        gx[flat] = g.reshape(flat.shape)
        return (gx.reshape(shape),)

    return _apply("permute_rc", (x,), x.data.take(flat).reshape(out_shape), bw)


def _gather_index(op: str, shape: tuple[int, ...], index) -> Array:
    """The flat index into a C-ordered (..., m, m) buffer of `shape` that
    gathers, per entry e of its leading axes, rows and columns index[e]
    of that entry's matrix: (entries, r, r), flat[e, i, j] =
    (e * m + index[e, i]) * m + index[e, j]. The index must match the
    leading axes, lie in range and not repeat within an entry (a
    re-indexing), so that a backward scatter into it is an assignment."""
    lead, m = shape[:-2], shape[-1]
    idx = np.asarray(index, dtype=np.intp)
    if idx.shape[:-1] != lead or idx.ndim != len(shape) - 1:
        raise DimensionError(f"{op}: index {idx.shape} does not match the leading axes "
                             f"of {shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ContractError(f"{op}: indices out of range for {shape}")
    if (np.diff(np.sort(idx, axis=-1), axis=-1) == 0).any():
        raise ContractError(f"{op}: indices repeat")
    entries = math.prod(lead)
    rows = idx.reshape(entries, -1, 1)
    return (np.arange(entries)[:, None, None] * m + rows) * m + idx.reshape(entries, 1, -1)


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(f, x: Tensor, step: float = 1e-5, max_coords: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare reverse-mode gradients of scalar-valued f against central
    finite differences at x.

    Returns the worst per-coordinate error |a - n| / max(1, |a|, |n|): a
    relative error with a unit floor, so exactly-zero gradients are judged
    by absolute finite-difference noise instead of blowing up the ratio.

    f must be deterministic and smooth at x: sample x away from kinks
    (view_consistency's l1 where the views agree). `max_coords`
    limits the check to a random coordinate subset (seeded through `rng`)
    for big tensors. A `step` that is not finite and positive, or a
    `max_coords` below 1, would check nothing and raises ContractError.
    """
    if not 0 < step < math.inf:  # NaN fails too
        raise ContractError(f"grad_check: step must be finite and positive, got {step}")
    if max_coords is not None and max_coords < 1:
        raise ContractError(f"grad_check: max_coords must be >= 1, got {max_coords}")
    base = np.array(x.data, dtype=np.float64, copy=True)
    probe = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if not isinstance(y, Tensor) or y.size != 1:
        raise ContractError("grad_check: f must return a scalar tensor")
    tape.backward(y)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)

    coords = [tuple(idx) for idx in np.ndindex(base.shape)] if base.shape else [()]
    if max_coords is not None and len(coords) > max_coords:
        gen = rng if rng is not None else np.random.default_rng(0)
        chosen = gen.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(i)] for i in sorted(chosen)]

    def eval_at(arr: Array) -> float:
        out = f(Tensor(arr))
        if out.size != 1:
            raise ContractError("grad_check: f must return a scalar tensor")
        return float(out.data.reshape(()))

    worst = 0.0
    for idx in coords:
        hi = base.copy()
        hi[idx] += step
        lo = base.copy()
        lo[idx] -= step
        numeric = (eval_at(hi) - eval_at(lo)) / (2.0 * step)
        a = float(analytic[idx])
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        if err > worst:
            worst = err
    return worst

"""The tape records the graph, not the values.

An op's output lives only while the caller or a backward closure holds
it; an unseeded backward drops each node once the sweep has passed it,
and a seeded one keeps the tape for the next seed. Tensors carry their
recording's token, so one from an earlier recording enters a new one as
a leaf. The gradients stay those of tests/reference.py.
"""

import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError

CONFIG = ref.CONSISTENCY
CHUNK_TRANSFORMS = ref.transforms("fliph,rot90,flipv,rot270")

# The traced peak of one 4-pair criterion-07 _chunk_backward, measured
# with numpy 2.4.6 on Python 3.11.7 once both consistency terms became
# one view_consistency node: 4,239,459 bytes (4,421,395 with the chain of
# 22 nodes it replaced; 8,531,200 when the tape held every output, node
# inputs and closures until the sweep ended).
CHUNK_PEAK_BYTES = 4_239_459
# The same for one 8-pair chunk, the size a criterion-07 batch trains as
# at the package's budget: 8,367,643 bytes (8,791,007 with the chain).
CHUNK8_PEAK_BYTES = 8_367_643


def pairs(k):
    return [tr._two_views(j, ref.sample_for(CONFIG.vit, 11 + j),
                          CHUNK_TRANSFORMS[j % len(CHUNK_TRANSFORMS)], CONFIG.vit)
            for j in range(k)]


def test_dropped_intermediates_die_with_the_forward():
    """After the forward of a 4-pair chunk, with no gc.collect(), every
    large output no backward reads is gone: the pre-softmax scores, the
    head averages, the residual sums. The gradients still reach the parameters and equal
    the reference's per-sample sums."""
    params = vit.init_params(CONFIG.vit, np.random.default_rng(3))
    chunk = pairs(4)
    outputs = []
    real = ad._apply

    def apply(op, *args):
        out = real(op, *args)
        outputs.append((op, weakref.ref(out), out.data.nbytes))
        return out

    with mock.patch.object(ad, "_apply", apply), Tape() as tape:
        loss = ad.mul(tr._chunk_loss(chunk, params, CONFIG).total, float(len(chunk)))
    assert len(tape.nodes) == len(outputs) == ref.chunk_nodes(CONFIG.vit)
    alive = {op for op, out, nbytes in outputs if out() is not None and nbytes > 1024}
    assert alive == {"softmax_rows", "layer_norm", "gelu", "attend"}
    for op in ("attention_scores", "mean", "view_consistency", "concat"):
        assert all(out() is None for name, out, _ in outputs if name == op), op

    tape.backward(loss)
    _, expected = ref.sample_sums([(p.sample, p.transform) for p in chunk], params, CONFIG)
    for name, p in params.items():
        ref.assert_close(p.grad, expected[name], name)


class TestSweeps:
    def test_unseeded_backward_empties_the_tape(self):
        x = Tensor([[0.5, -1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            loss = ad.mean(ad.softmax_rows(ad.mul(x, x)))
        assert len(tape.nodes) == 3
        tape.backward(loss)
        assert tape.nodes == [] and x.grad is not None

    def test_seeded_backward_keeps_the_tape_and_repeats(self):
        """One recorded forward of an image stack swept twice with one seed,
        nothing zeroed in between: the nodes stay, and the second sweep's
        adjoints are == the first's, in arrays of their own."""
        cfg = CONFIG.vit
        params = ref.frozen(vit.init_params(cfg, np.random.default_rng(4)))
        images = np.stack([ref.sample_for(cfg, s).image for s in (12, 13)])
        with Tape() as tape:
            res = vit.forward(images, params, cfg)
        recorded = [node.op for node in tape.nodes]
        seed = np.zeros(res.logits.shape)
        seed[[0, 1], [2, 0]] = 1.0
        sweeps = []
        for _ in range(2):
            sweeps.append(vit.attention_adjoints(tape, res, seed))
            assert [node.op for node in tape.nodes] == recorded
        for first, second in zip(*sweeps, strict=True):
            assert np.any(first) and np.array_equal(first, second)
            assert not np.shares_memory(first, second)


class TestEarlierRecordings:
    """A tensor produced on another recording enters this one as a leaf:
    it gets the gradient, and nothing below it does."""

    def test_a_tensor_from_another_tape_is_a_leaf(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as first:
            y = ad.mul(x, 2.0)
            first_loss = ad.mean(y)
        with Tape() as second:
            loss = ad.mean(ad.mul(y, y))
        second.backward(loss)
        np.testing.assert_allclose(y.grad, 2.0 * y.data / 3.0, rtol=0, atol=1e-15)
        assert x.grad is None
        first.backward(first_loss)
        np.testing.assert_allclose(x.grad, np.full(3, 2.0 / 3.0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("where", ["another tape"])
    def test_such_a_loss_is_refused(self, where):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            old = ad.mean(x)
        tape = Tape()
        with tape:
            ad.mean(ad.mul(x, x))
        with pytest.raises(ContractError, match="not produced on this tape"):
            tape.backward(old)


def traced_chunk_peak(chunk):
    """The tracemalloc peak of one criterion-07 _chunk_backward of
    `chunk`, after an untraced first call has done the one-time work."""
    params = vit.init_params(CONFIG.vit, np.random.default_rng(3))
    tr._chunk_backward(chunk, params, CONFIG, {})  # first-call work out of the trace
    for p in params.values():
        p.zero_grad()
    gc.collect()
    tracemalloc.start()
    try:
        tr._chunk_backward(chunk, params, CONFIG, {})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_backward_peak_is_pinned():
    """The traced peak of one 4-pair criterion-07 chunk backward: at most
    10% above the value measured at the change (CHUNK_PEAK_BYTES), which
    is 50% of what the chunk took when the tape kept every output."""
    peak = traced_chunk_peak(pairs(4))
    assert peak <= 1.1 * CHUNK_PEAK_BYTES, peak


def test_eight_pair_chunk_backward_peak_is_pinned():
    """The traced peak of one 8-pair criterion-07 chunk backward, the
    chunk a batch of 8 trains as: at most 10% above CHUNK8_PEAK_BYTES."""
    chunk = pairs(8)
    assert [len(c) for c in tr._chunks(chunk, CONFIG.vit)] == [8]
    peak = traced_chunk_peak(chunk)
    assert peak <= 1.1 * CHUNK8_PEAK_BYTES, peak

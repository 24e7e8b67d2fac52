"""The reverse sweep computes and stores only the gradients someone reads.

Oracle: the same forward recorded twice, the second time with every
tensor made during the recording requiring grad, so that every input of
every node does and its sweep computes every gradient of every node.
Parameter gradients and the attention heads' returned adjoints must be
equal (``==``) between the two: pruning may only drop work whose result
nobody reads. Beside the oracle: which tensors get ``.grad``, what each
multi-input op returns for a constant operand, and the adjoints that
``backward(wrt=)`` returns.

The tape keeps no op output, so the tests that read outputs after the
sweep hold every one of them themselves (see kept_outputs).
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, NumericalError
from attnreg.gridtransform import SpatialTransform
from attnreg.vit import ViTConfig

# the benchmark's two training configurations
CONSISTENCY = tr.TrainConfig(vit=ref.C07, weights=ref.WEIGHTS,
                             augmentations=ref.transforms("fliph,rot90"))
RESIZE_WIDE = tr.TrainConfig(vit=ViTConfig(), weights=ref.WEIGHTS,
                             augmentations=ref.transforms("resize:6x6,resize:10x10"))


@contextlib.contextmanager
def kept_outputs():
    """Every op output made in the block, in recording order. The list
    holds them, so each lives through the sweep and keeps its .grad."""
    outputs = []
    real = ad._apply

    def apply(*args):
        outputs.append(real(*args))
        return outputs[-1]

    with mock.patch.object(ad, "_apply", apply):
        yield outputs


@contextlib.contextmanager
def unpruned(full):
    """With `full`, every tensor made in the block requires grad: every
    node then records every input as requiring grad, and the sweep
    computes all of their gradients."""
    real = Tensor.__init__

    def init(self, data, requires_grad=False):
        real(self, data, requires_grad=True)

    with mock.patch.object(Tensor, "__init__", init) if full else contextlib.nullcontext():
        yield


def sweeps(monkeypatch):
    """The op of each node whose backward a sweep calls, in call order,
    for every node recorded after this call."""
    swept = []
    real = ad._Node.__init__

    def spy(self, op, inputs, output, backward):
        def counted(g, _op=op):
            swept.append(_op)
            return backward(g)
        real(self, op, inputs, output, counted)

    monkeypatch.setattr(ad._Node, "__init__", spy)
    return swept


@contextlib.contextmanager
def recorded_heads():
    """The per-head attention stack of every layer of every forward run in
    the block, in recording order."""
    heads = []
    real = vit.forward

    def forward(*args):
        res = real(*args)
        heads.extend(rec.heads for rec in res.attentions)
        return res

    with mock.patch.object(vit, "forward", forward):
        yield heads


def train_sweep(config, transform, full):
    """One training chunk's sweep with wrt set to its attention heads;
    returns every op output it recorded, the parameters and the heads'
    adjoints."""
    params = vit.init_params(config.vit, np.random.default_rng(3))
    sample = ref.sample_for(config.vit, 11)
    with kept_outputs() as outputs, recorded_heads() as heads, unpruned(full), \
            Tape() as tape:
        chunk = [tr._two_views(0, sample, transform, config.vit)]
        loss = tr._chunk_loss(chunk, params, config).total
    return outputs, params, tape.backward(loss, wrt=heads)


def eval_sweeps(full):
    """One eval forward on no-grad parameter views, one attention_adjoints
    sweep per class; returns every op output the forward recorded, the
    views and the adjoints of every sweep."""
    cfg = CONSISTENCY.vit
    params = vit.init_params(cfg, np.random.default_rng(4))
    with kept_outputs() as outputs, unpruned(full):
        frozen = {k: Tensor(p.data) for k, p in params.items()}
        with Tape() as tape:
            res = vit.forward(ref.sample_for(cfg, 12).image, frozen, cfg)
    adjoints = [vit.attention_adjoints(tape, res, np.eye(cfg.num_classes)[k])
                for k in range(cfg.num_classes)]
    return outputs, frozen, adjoints


class TestNothingPrunedOracle:
    @pytest.mark.parametrize("config,transform", [
        (CONSISTENCY, "fliph"),          # stacked views
        (CONSISTENCY, "rot90"),          # stacked views, permuted back
        (RESIZE_WIDE, "resize:6x6"),     # a view of its own, interpolated back
        (RESIZE_WIDE, "resize:10x10"),
    ], ids=["consistency-fliph", "consistency-rot90", "resize_wide-6x6",
            "resize_wide-10x10"])
    def test_training_sweep(self, config, transform):
        transform = SpatialTransform.parse(transform)
        _, pruned, heads = train_sweep(config, transform, full=False)
        _, full, full_heads = train_sweep(config, transform, full=True)
        for name, p in pruned.items():
            assert p.grad is not None and np.array_equal(p.grad, full[name].grad), name
        forwards = 2 if transform.kind.value == "resize" else 1
        assert len(heads) == forwards * config.vit.num_layers
        for h, fh in zip(heads, full_heads, strict=True):
            assert np.any(h != 0.0) and np.array_equal(h, fh)

    def test_seeded_eval_sweep_on_no_grad_parameters(self):
        _, frozen, grads = eval_sweeps(full=False)
        _, _, full_grads = eval_sweeps(full=True)
        for per_class, full_per_class in zip(grads, full_grads, strict=True):
            for g, fg in zip(per_class, full_per_class, strict=True):
                assert np.array_equal(g, fg)
        assert all(p.grad is None for p in frozen.values())


class TestWhereGradientsLand:
    def test_training_intermediates_get_no_grad(self):
        outputs, params, _ = train_sweep(CONSISTENCY, SpatialTransform.parse("fliph"),
                                         full=False)
        assert len(outputs) == ref.chunk_nodes(CONSISTENCY.vit, scaled=False)
        assert all(t.grad is None for t in outputs)
        assert all(p.grad is not None for p in params.values())

    def test_eval_intermediates_get_no_grad(self):
        outputs, _, _ = eval_sweeps(full=False)
        assert outputs and all(t.grad is None for t in outputs)

    def test_eval_sweep_skips_layer_zero_below_its_attention(self, monkeypatch):
        """A node none of whose inputs requires grad is not swept: on no-grad
        parameters that is everything up to and including layer 0's softmax
        (the patch embedding, layer 0's projections), and the head averages,
        which the logits do not read."""
        swept = sweeps(monkeypatch)
        cfg = CONSISTENCY.vit
        params = {k: Tensor(p.data) for k, p in
                  vit.init_params(cfg, np.random.default_rng(4)).items()}
        with Tape() as tape:
            res = vit.forward(ref.sample_for(cfg, 12).image, params, cfg)
        recorded = [n.op for n in tape.nodes]
        tape.backward(res.logits, seed=np.eye(cfg.num_classes)[0])
        first_softmax = recorded.index("softmax_rows")
        expected = [op for op in recorded[first_softmax + 1:] if op != "mean"]
        assert sorted(swept) == sorted(expected)
        assert swept.count("softmax_rows") == cfg.num_layers - 1


def _multi_input_cases():
    """(name, op, operand arrays); every op with more than one input."""
    rng = np.random.default_rng(30)
    m = rng.normal(size=(3, 4))
    return [
        ("add", ad.add, [m, rng.normal(size=(3, 4))]),
        ("add_broadcast", ad.add, [rng.normal(size=(2, 3, 4)), m]),
        ("mul", ad.mul, [m, rng.normal(size=(3, 4))]),
        ("matmul_shared", ad.matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))]),
        ("matmul_batched", ad.matmul, [rng.normal(size=(2, 3, 4)),
                                       rng.normal(size=(2, 4, 5))]),
        ("linear", ad.linear, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 6)),
                               rng.normal(size=(1, 6))]),
        ("attention_scores", lambda h, wq, bq, wk, bk: ad.attention_scores(h, wq, bq, wk, bk,
                                                                           2, 0.5),
         [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 6)), rng.normal(size=(1, 6)),
          rng.normal(size=(4, 6)), rng.normal(size=(1, 6))]),
        ("attend", ad.attend, [rng.random(size=(2, 2, 3, 3)), rng.normal(size=(2, 3, 4)),
                               rng.normal(size=(4, 6)), rng.normal(size=(1, 6))]),
        ("layer_norm", ad.layer_norm, [rng.normal(size=(2, 3, 4)), rng.normal(size=(1, 4)),
                                       rng.normal(size=(1, 4))]),
        ("concat", lambda *parts: ad.concat(parts, axis=0),
         [rng.normal(size=(1, 4)), m, rng.normal(size=(2, 4))]),
        # the three distances of view_consistency between two (3, 3) views
        *((f"mean_distance_{d}", lambda a, b, _d=d: ad.view_consistency([a], [b], _d).loss,
           [m[:, :3], rng.normal(size=(3, 4))[:, :3]]) for d in ad.DISTANCES),
        ("bce_with_logits", ad.bce_with_logits, [m, (rng.random(size=(3, 4)) > 0.5) * 1.0]),
    ]


class TestSkippedOperands:
    @pytest.mark.parametrize("name,op,arrays", _multi_input_cases(),
                             ids=[c[0] for c in _multi_input_cases()])
    def test_constant_operand_gets_none(self, name, op, arrays):
        def node_grads(trainable):
            inputs = [Tensor(a, requires_grad=t) for a, t in zip(arrays, trainable)]
            with Tape() as tape:
                out = op(*inputs)
            node = tape.nodes[-1]
            return node.backward(np.random.default_rng(1).normal(size=out.shape))

        everything = node_grads([True] * len(arrays))
        assert all(g is not None for g in everything)
        for const in range(len(arrays)):
            grads = node_grads([i != const for i in range(len(arrays))])
            assert grads[const] is None, f"{name}: operand {const}"
            for i, (g, ref) in enumerate(zip(grads, everything)):
                if i != const:
                    assert np.array_equal(g, ref), f"{name}: operand {i}"

    def test_resample_of_a_constant_is_not_swept(self, monkeypatch):
        """resample has one tensor operand (P is a constant array): when it
        does not require grad, the node records no input and the sweep
        never calls its backward."""
        swept = sweeps(monkeypatch)
        rng = np.random.default_rng(31)
        a = Tensor(rng.random(size=(2, 3, 3)) + 0.1)
        w = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        with Tape() as tape:
            out = ad.resample(a, rng.random(size=(4, 3)) + 0.1)
            loss = ad.mean(ad.mul(out, w))
        assert [(n.op, n.inputs) for n in tape.nodes[:1]] == [("resample", (None,))]
        tape.backward(loss)
        assert swept == ["mean", "mul"]
        assert a.grad is None and np.array_equal(w.grad, out.data / out.size)


class TestWrt:
    def test_an_intermediate_without_trainable_leaves(self):
        """Marked requires_grad before its consumers are recorded, an
        intermediate gets its adjoint although nothing below it trains."""
        x = Tensor([[0.0, 1.0]])
        with Tape() as tape:
            h = ad.softmax_rows(x)
            h.requires_grad = True
            y = ad.mean(ad.mul(h, 3.0))
        [g] = tape.backward(y, wrt=[h])
        np.testing.assert_allclose(g, [[1.5, 1.5]])
        assert x.grad is None and h.grad is None

    def test_a_tensor_the_sweep_never_reaches_gives_zeros(self):
        """Before the loss on the tape, but with no path to it; after the
        loss; and one that did not require grad when it was used."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            aside = ad.mul(x, 2.0)
            const = ad.softmax_rows(Tensor(np.ones((2, 3))))
            loss = ad.mean(ad.mul(x, const))
            after = ad.mean(x)
        grads = tape.backward(loss, wrt=[aside, after, const])
        for g, t in zip(grads, (aside, after, const), strict=True):
            assert g.shape == t.shape and not np.any(g)
        assert_disjoint(grads)

    @pytest.mark.parametrize("where", ["no tape", "another tape"])
    def test_a_tensor_from_elsewhere_is_refused(self, where):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        if where == "no tape":
            elsewhere = ad.mul(x, 2.0)
        else:
            with Tape():
                elsewhere = ad.mul(x, 2.0)
        with tape:
            loss = ad.mean(ad.mul(x, x))
        with pytest.raises(ContractError, match="wrt tensor was not produced on this tape"):
            tape.backward(loss, wrt=[elsewhere])
        assert x.grad is None
        tape.backward(loss)  # the refusal spent nothing
        np.testing.assert_allclose(x.grad, x.data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_seed_is_refused_before_the_sweep(self, bad):
        cfg = CONSISTENCY.vit
        params = tr._no_grad_views(vit.init_params(cfg, np.random.default_rng(4)))
        with Tape() as tape:
            res = vit.forward(ref.sample_for(cfg, 12).image, params, cfg)
        count = len(tape.nodes)
        with pytest.raises(NumericalError, match="seed"):
            tape.backward(res.logits, seed=[bad, 0.0, 0.0])
        with pytest.raises(NumericalError, match="seed"):
            vit.attention_adjoints(tape, res, [0.0, bad, 0.0], row=0)
        assert len(tape.nodes) == count
        tape.backward(res.logits, seed=np.eye(cfg.num_classes)[0])  # still usable


def assert_disjoint(arrays):
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


class TestStoredGradsOwnTheirMemory:
    """Backward copies an adjoint only where it may alias: the caller's
    seed, a view, or an array handed to two operands. No stored .grad or
    returned adjoint may share memory with another or with the seed."""

    def test_seed_handed_to_both_operands_and_retained(self):
        a, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((2, 3)),
                                                                  requires_grad=True)
        seed = np.arange(6.0).reshape(2, 3)
        with Tape() as tape:
            out = ad.add(a, b)
        returned = tape.backward(out, seed=seed, wrt=[out, out])
        for g in (a.grad, b.grad, *returned):
            assert np.array_equal(g, seed)
        assert_disjoint([a.grad, b.grad, *returned, seed])

    def test_one_fresh_adjoint_handed_to_two_operands(self):
        """add hands its adjoint, here a fresh array, to both operands: two
        leaves, then a leaf and a wrt tensor."""
        rng = np.random.default_rng(3)
        a, b, c, d = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4))
        with Tape() as tape:
            u = ad.add(a, b)
            v = ad.mul(d, 2.0)
            w = ad.add(c, v)
            loss = ad.mean(ad.add(ad.mul(u, u), ad.mul(w, w)))
        gv, gw = tape.backward(loss, wrt=[v, w])
        assert_disjoint([a.grad, b.grad, c.grad, d.grad, gv, gw])
        np.testing.assert_allclose(gv, 2 * w.data / w.size, atol=1e-15)
        np.testing.assert_allclose(a.grad, 2 * u.data / u.size, atol=1e-15)

    def test_views_and_shared_adjoints(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        y = Tensor(np.random.default_rng(1).normal(size=(1, 3)), requires_grad=True)
        z = Tensor(np.random.default_rng(2).normal(size=(2, 2, 3)), requires_grad=True)
        with Tape() as tape:
            r = ad.mean(z, axis=0)          # backward: a broadcast view
            s = ad.add(r, x)
            c = ad.concat([y, s], axis=0)   # backward: views of c's adjoint
            loss = ad.mean(ad.mul(c, c))
        gr, gs, gc = tape.backward(loss, wrt=[r, s, c])
        grads = [x.grad, y.grad, z.grad, gr, gs, gc]
        assert all(g is not None and g.flags.writeable for g in grads)
        assert r.grad is None and s.grad is None and c.grad is None
        assert_disjoint(grads)
        np.testing.assert_allclose(gc, 2 * c.data / c.size, atol=1e-15)

    def test_training_chunk(self):
        config = CONSISTENCY
        params = vit.init_params(config.vit, np.random.default_rng(3))
        chunk = [tr._two_views(j, ref.sample_for(config.vit, 11 + j), t, config.vit)
                 for j, t in enumerate(config.augmentations)]
        with recorded_heads() as heads, Tape() as tape:
            loss = tr._chunk_loss(chunk, params, config).total
        returned = tape.backward(loss, wrt=heads)
        grads = [p.grad for p in params.values()] + returned
        assert all(g is not None for g in grads)
        assert_disjoint(grads)

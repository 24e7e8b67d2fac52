"""Consistency losses: frozen hand values, scalar-loop oracle, the
zero-loss fixed points, view-swap symmetry, and end-to-end gradients."""

from dataclasses import replace

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg import regularizer as reg
from attnreg import synthdata as sd
from attnreg import trainer as tr
from attnreg import vit
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError
from attnreg.gridtransform import FLIP_H, IDENTITY, ROT90, GridShape


def random_attention(rng, n_tokens):
    raw = rng.random(size=(n_tokens, n_tokens)) + 0.05
    return Tensor(raw / raw.sum(axis=1, keepdims=True))


# -- independently coded scalar oracle ---------------------------------------

def sigma_of(transform, grid):
    """Patch permutation by explicit coordinate loops (no library calls)."""
    tgt = transform.target_grid(grid)
    coord = {
        "identity": lambda i, j: (i, j),
        "fliph": lambda i, j: (i, grid.w - 1 - j),
        "flipv": lambda i, j: (grid.h - 1 - i, j),
        "fliphv": lambda i, j: (grid.h - 1 - i, grid.w - 1 - j),
        "rot180": lambda i, j: (grid.h - 1 - i, grid.w - 1 - j),
        "rot90": lambda i, j: (grid.w - 1 - j, i),
        "rot270": lambda i, j: (j, grid.h - 1 - i),
    }[transform.kind.value]
    sigma = [0] * (grid.h * grid.w)
    for i in range(grid.h):
        for j in range(grid.w):
            ti, tj = coord(i, j)
            sigma[ti * tgt.w + tj] = i * grid.w + j
    return sigma


def loop_losses(a_layers, ap_layers, transform, grid, distance="l1"):
    """(l_act, l_aff) by pure-Python loops over explicit indices."""
    def dist(u, v):
        d = u - v
        if distance == "l1":
            return abs(d)
        if distance == "l2":
            return d * d
        return 0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5

    n = grid.n
    acts, affs = [], []
    for a, ap in zip(a_layers, ap_layers):
        a, ap = a.data, ap.data
        sigma = sigma_of(transform, grid)
        # token permutation with the class slot pinned at 0
        tok = [0] + [s + 1 for s in sigma]
        inv = [[ap[tok.index(r)][tok.index(c)] for c in range(n + 1)] for r in range(n + 1)]
        acts.append(sum(dist(a[0][c], inv[0][c]) for c in range(1, n + 1)) / n)
        affs.append(sum(dist(a[r][c], inv[r][c])
                        for r in range(1, n + 1) for c in range(1, n + 1)) / (n * n))
    return sum(acts) / len(acts), sum(affs) / len(affs)


class TestLossWeights:
    def test_defaults(self):
        w = reg.LossWeights()
        assert w.alpha == 100.0 and w.beta == 100.0 and w.distance == "l1"

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            reg.LossWeights(alpha=-1.0)

    def test_unknown_distance_rejected(self):
        with pytest.raises(ContractError):
            reg.LossWeights(distance="l3")


class TestFrozenValues:
    def grid_1x2(self, row_a, row_ap):
        a = np.eye(3) / 3 + 1 / 3
        ap = a.copy()
        a[0, 1:] = row_a
        ap[0, 1:] = row_ap
        return [Tensor(a)], [Tensor(ap)], GridShape(1, 2)

    def test_l1_hand_value(self):
        al, apl, g = self.grid_1x2([0.5, 0.5], [0.25, 0.75])
        loss = reg.region_activation_loss(al, reg.invert_layers(apl, IDENTITY, g))
        assert float(loss.data) == pytest.approx(0.25, abs=1e-15)

    def test_l2_hand_value(self):
        al, apl, g = self.grid_1x2([0.5, 0.5], [0.25, 0.75])
        loss = reg.region_activation_loss(al, reg.invert_layers(apl, IDENTITY, g), distance="l2")
        assert float(loss.data) == pytest.approx(0.0625, abs=1e-15)

    def test_smooth_l1_hand_value(self):
        al, apl, g = self.grid_1x2([0.5, 0.5], [0.25, 0.75])
        loss = reg.region_activation_loss(al, reg.invert_layers(apl, IDENTITY, g),
                                          distance="smooth_l1")
        assert float(loss.data) == pytest.approx(0.03125, abs=1e-15)

    def test_total_hand_arithmetic(self):
        # logit solving bce(y, 1) = 1 exactly: y = -ln(e - 1)
        y = -np.log(np.e - 1.0)
        logits = Tensor(np.array([y]))
        breakdown = reg.total_loss(logits, logits, [1.0], Tensor(0.01), Tensor(0.002),
                                   reg.LossWeights(alpha=100.0, beta=100.0))
        assert float(breakdown.l_cls.data) == pytest.approx(1.0, abs=1e-12)
        assert float(breakdown.total.data) == pytest.approx(2.2, abs=1e-12)

    def test_zero_weights_total_is_l_cls(self):
        logits = Tensor(np.array([0.3, -0.2]))
        b = reg.total_loss(logits, logits, [1.0, 0.0], Tensor(5.0), Tensor(7.0),
                           reg.LossWeights(alpha=0.0, beta=0.0))
        assert b.total is b.l_cls

    def test_breakdown_invariant(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=4))
        logits2 = Tensor(rng.normal(size=4))
        w = reg.LossWeights(alpha=3.5, beta=0.25)
        b = reg.total_loss(logits, logits2, [1, 0, 1, 0], Tensor(0.123), Tensor(0.456), w)
        expected = float(b.l_cls.data) + w.alpha * 0.123 + w.beta * 0.456
        assert abs(float(b.total.data) - expected) < 1e-12


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("transform", [IDENTITY, FLIP_H, gt.FLIP_V, gt.FLIP_HV,
                                           ROT90, gt.ROT180, gt.ROT270], ids=str)
    @pytest.mark.parametrize("distance", ["l1", "l2", "smooth_l1"])
    def test_matches_scalar_loops(self, transform, distance):
        grid = GridShape(2, 3)
        rng = np.random.default_rng(11)
        for _ in range(3):
            a_layers = [random_attention(rng, grid.n + 1) for _ in range(2)]
            ap_layers = [random_attention(rng, grid.n + 1) for _ in range(2)]
            back = reg.invert_layers(ap_layers, transform, grid)
            act = reg.region_activation_loss(a_layers, back, distance)
            aff = reg.region_affinity_loss(a_layers, back, distance)
            o_act, o_aff = loop_losses(a_layers, ap_layers, transform, grid, distance)
            assert float(act.data) == pytest.approx(o_act, abs=1e-12)
            assert float(aff.data) == pytest.approx(o_aff, abs=1e-12)


class TestContracts:
    def test_layer_count_mismatch(self):
        g = GridShape(1, 2)
        a = [random_attention(np.random.default_rng(0), 3)]
        with pytest.raises(DimensionError):
            reg.region_activation_loss(a, reg.invert_layers(a * 2, IDENTITY, g))

    def test_empty_layers(self):
        with pytest.raises(DimensionError):
            reg.region_affinity_loss([], reg.invert_layers([], IDENTITY, GridShape(1, 2)))

    def test_wrong_matrix_size(self):
        g = GridShape(2, 2)
        a = [random_attention(np.random.default_rng(0), 3)]
        with pytest.raises(DimensionError):
            reg.region_activation_loss(a, reg.invert_layers(a, IDENTITY, g))

    def test_views_of_different_shapes(self):
        rng = np.random.default_rng(0)
        a = [random_attention(rng, 3)]
        back = reg.invert_layers([random_attention(rng, 5)], IDENTITY, GridShape(2, 2))
        with pytest.raises(DimensionError):
            reg.region_affinity_loss(a, back)

    def test_raw_layers_are_refused(self):
        """A flip keeps the shape of A', so only the type tells a raw A'
        from inv(A')."""
        rng = np.random.default_rng(0)
        a = [random_attention(rng, 5)]
        raw = [random_attention(rng, 5)]
        for loss in (reg.region_activation_loss, reg.region_affinity_loss):
            with pytest.raises(ContractError, match="invert_layers first"):
                loss(a, raw)
            with pytest.raises(ContractError, match="invert_layers first"):
                loss(a, tuple(raw))


class TestSharedInversion:
    """Both terms read one inversion per layer through invert_layers."""

    @pytest.mark.parametrize("transform", [FLIP_H, ROT90, gt.SpatialTransform.parse("resize:3x3")],
                             ids=str)
    def test_same_losses_and_gradients_as_inverting_per_term(self, transform):
        """One invert_layers per term against one shared by both: == values
        and gradients."""
        grid = GridShape(2, 2)
        rng = np.random.default_rng(12)
        n_prime = transform.target_grid(grid).n + 1
        a_data = [random_attention(rng, grid.n + 1).data for _ in range(2)]
        ap_data = [random_attention(rng, n_prime).data for _ in range(2)]
        results = []
        for share in (False, True):
            a = [Tensor(x, requires_grad=True) for x in a_data]
            ap = [Tensor(x, requires_grad=True) for x in ap_data]
            with Tape() as tape:
                back = reg.invert_layers(ap, transform, grid)
                act = reg.region_activation_loss(a, back)
                if not share:
                    back = reg.invert_layers(ap, transform, grid)
                aff = reg.region_affinity_loss(a, back)
                total = ad.add(act, aff)
            tape.backward(total)
            results.append((act.data, aff.data, [t.grad for t in a + ap]))
        (act, aff, grads), (s_act, s_aff, s_grads) = results
        assert act == s_act and aff == s_aff
        for g, sg in zip(grads, s_grads, strict=True):
            assert np.array_equal(g, sg)

    def test_inverts_each_layer_once(self, monkeypatch):
        """A training chunk inverts each loss layer's A' stack once, shared
        by both terms, in its one view_consistency node: a permutation by
        the node's gather, with no invert_attention call (views on the
        images' grid, flips); a resize by one invert_attention per layer
        before it (views on another grid). Without consistency terms the
        node still runs, for the logged residuals."""
        calls, nodes = [], []
        real, real_op = reg.invert_attention, ad.view_consistency
        monkeypatch.setattr(reg, "invert_attention",
                            lambda *args: calls.append(1) or real(*args))
        monkeypatch.setattr(ad, "view_consistency",
                            lambda a, ap, distance, index=None: nodes.append(index is not None)
                            or real_op(a, ap, distance, index))
        cfg = vit.ViTConfig(patch_size=2, grid=GridShape(2, 3), embed_dim=8, num_layers=3,
                            num_heads=2, num_classes=2)
        config = tr.TrainConfig(vit=cfg, weights=reg.LossWeights(alpha=2.0, beta=0.5),
                                loss_layers=(1, 3))
        params = vit.init_params(cfg, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        samples = [sd.SyntheticSample(image=rng.random((cfg.in_channels, 4, 6)),
                                      labels=np.array([1.0, 0.0]),
                                      mask=np.zeros((4, 6), dtype=np.int64), seed=(i, 0))
                   for i in range(2)]
        off = replace(config, weights=reg.LossWeights(alpha=0.0, beta=0.0))
        for train_config, transforms, expected, gathers in (
                (config, (FLIP_H, gt.FLIP_V), 0, True),
                (config, (gt.SpatialTransform.parse("resize:3x3"),) * 2, 2, False),
                (off, (FLIP_H, gt.FLIP_V), 0, True)):
            chunk = [tr._two_views(i, sample, t, cfg)
                     for i, (sample, t) in enumerate(zip(samples, transforms))]
            calls.clear()
            nodes.clear()
            with Tape():
                tr._chunk_loss(chunk, params, train_config)
            assert nodes == [gathers], transforms
            assert len(calls) == expected, (transforms, train_config.weights)


def tiny_vit():
    cfg = vit.ViTConfig(patch_size=2, grid=GridShape(2, 2), embed_dim=8, num_layers=2,
                        num_heads=2, mlp_ratio=2.0, num_classes=2,
                        use_positional_embedding=False, in_channels=1)
    params = vit.init_params(cfg, np.random.default_rng(21))
    img = np.random.default_rng(22).random(size=(1, 4, 4))
    return cfg, params, img


class TestZeroLossFixedPoints:
    """Identical branch inputs with a net-identity token permutation make
    both consistency losses exactly zero, bit for bit."""

    def test_identity_augmentation(self):
        cfg, params, img = tiny_vit()
        r1 = vit.forward(img, params, cfg)
        r2 = vit.forward(img.copy(), params, cfg)
        a = [rec.matrix for rec in r1.attentions]
        ap = [rec.matrix for rec in r2.attentions]
        back = reg.invert_layers(ap, IDENTITY, cfg.grid)
        assert float(reg.region_activation_loss(a, back).data) == 0.0
        assert float(reg.region_affinity_loss(a, back).data) == 0.0

    def test_double_flip_h(self):
        cfg, params, img = tiny_vit()
        twice = np.ascontiguousarray(np.flip(np.flip(img, axis=2), axis=2))
        assert np.array_equal(twice, img)  # the premise: double flip is bitwise identity
        r1 = vit.forward(img, params, cfg)
        r2 = vit.forward(twice, params, cfg)
        a = [rec.matrix for rec in r1.attentions]
        ap = [rec.matrix for rec in r2.attentions]
        back = reg.invert_layers(ap, IDENTITY, cfg.grid)
        assert float(reg.region_activation_loss(a, back).data) == 0.0
        assert float(reg.region_affinity_loss(a, back).data) == 0.0


class TestSymmetry:
    @pytest.mark.parametrize("transform", [FLIP_H, gt.FLIP_HV, ROT90, gt.ROT270], ids=str)
    def test_view_swap_with_inverse_transform(self, transform):
        grid = GridShape(2, 3)
        tgt = transform.target_grid(grid)
        rng = np.random.default_rng(33)
        a = [random_attention(rng, grid.n + 1) for _ in range(2)]
        ap = [random_attention(rng, tgt.n + 1) for _ in range(2)]
        fwd, swp = (reg.invert_layers(ap, transform, grid),
                    reg.invert_layers(a, transform.inverse(), tgt))
        fwd_act = reg.region_activation_loss(a, fwd)
        swp_act = reg.region_activation_loss(ap, swp)
        fwd_aff = reg.region_affinity_loss(a, fwd)
        swp_aff = reg.region_affinity_loss(ap, swp)
        assert float(fwd_act.data) == pytest.approx(float(swp_act.data), abs=1e-12)
        assert float(fwd_aff.data) == pytest.approx(float(swp_aff.data), abs=1e-12)

    def test_resize_has_no_inverse(self):
        with pytest.raises(ContractError):
            gt.SpatialTransform.parse("resize:3x3").inverse()


class TestEndToEndGradients:
    """Finite differences through both Siamese branches and the
    inversion's re-indexing."""

    def run_check(self, loss_fn):
        cfg, params, img = tiny_vit()
        view = np.ascontiguousarray(np.flip(img, axis=2))

        def f(probe):
            patched = dict(params)
            patched["blocks.0.attn.wq"] = probe
            r1 = vit.forward(img, patched, cfg)
            r2 = vit.forward(view, patched, cfg)
            a = [rec.matrix for rec in r1.attentions]
            ap = [rec.matrix for rec in r2.attentions]
            return loss_fn(a, ap, cfg.grid)

        return ad.grad_check(f, Tensor(params["blocks.0.attn.wq"].data.copy()), step=1e-5)

    def test_activation_loss_gradient(self):
        err = self.run_check(lambda a, ap, g: reg.region_activation_loss(
            a, reg.invert_layers(ap, FLIP_H, g)))
        assert err < 1e-4, f"rel err {err:.2e}"

    def test_affinity_loss_gradient(self):
        err = self.run_check(lambda a, ap, g: reg.region_affinity_loss(
            a, reg.invert_layers(ap, FLIP_H, g)))
        assert err < 1e-4, f"rel err {err:.2e}"

    def test_total_loss_gradient(self):
        cfg, params, img = tiny_vit()
        view = np.ascontiguousarray(np.flip(img, axis=2))
        weights = reg.LossWeights(alpha=2.0, beta=3.0, distance="smooth_l1")

        def f(probe):
            patched = dict(params)
            patched["blocks.1.mlp.w1"] = probe
            r1 = vit.forward(img, patched, cfg)
            r2 = vit.forward(view, patched, cfg)
            a = [rec.matrix for rec in r1.attentions]
            ap = [rec.matrix for rec in r2.attentions]
            back = reg.invert_layers(ap, FLIP_H, cfg.grid)
            act = reg.region_activation_loss(a, back, weights.distance)
            aff = reg.region_affinity_loss(a, back, weights.distance)
            return reg.total_loss(r1.logits, r2.logits, [1.0, 0.0], act, aff, weights).total

        err = ad.grad_check(f, Tensor(params["blocks.1.mlp.w1"].data.copy()), step=1e-5,
                            max_coords=40, rng=np.random.default_rng(5))
        assert err < 1e-4, f"rel err {err:.2e}"

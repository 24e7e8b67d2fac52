"""Tape, op semantics, and finite-difference gradient oracles for the
autodiff engine. Every differentiable op gets checked against central
differences; a handful of forward values are frozen by hand."""

import zlib

import numpy as np
import pytest

from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError, NumericalError, StateError
from attnreg.gridtransform import GridShape


RNG = lambda s: np.random.default_rng(s)


class TestTensorBasics:
    def test_data_is_contiguous_float64(self):
        t = Tensor(np.arange(6, dtype=np.int32).reshape(2, 3)[:, ::-1])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_non_finite_data_is_rejected(self):
        with pytest.raises(NumericalError):
            Tensor([1.0, np.nan])
        with pytest.raises(NumericalError):
            Tensor([np.inf])
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            ad.mul(Tensor([1e200]), Tensor([1e200]))  # an op output is checked too


class TestTapeSemantics:
    """The tape is explicit, single-use, and accumulates into .grad."""

    def test_ops_without_tape_do_not_build_grads(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        y = ad.mean(ad.mul(x, x))
        assert float(y.data) == 2.5
        assert x.grad is None

    def test_backward_populates_leaf_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mean(ad.mul(x, x))  # mean of squares
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [1.0, 2.0])  # d/dx x_i^2 / 2

    def test_tape_is_single_use(self):
        x = Tensor([2.0], requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.mean(x)
        tape.backward(y)
        with pytest.raises(StateError):
            tape.backward(y)
        with pytest.raises(StateError):
            with tape:
                pass
        with Tape() as tape:  # a new recording opens a new tape
            y2 = ad.mean(ad.mul(x, x))
        tape.backward(y2)
        np.testing.assert_allclose(x.grad, [1.0 + 4.0])  # accumulated

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(StateError):
                with Tape():
                    pass

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_foreign_loss_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            ad.mean(x)
        stray = ad.mean(Tensor([3.0]))
        with pytest.raises(ContractError):
            tape.backward(stray)

    def test_gradient_accumulation_matches_summed_loss(self):
        """backward on L1 + L2 equals two separate backwards."""
        rng = RNG(7)
        base = rng.normal(size=(3, 3))

        def run_joint():
            w = Tensor(base, requires_grad=True)
            with Tape() as tape:
                l1 = ad.mean(ad.mul(w, w))
                l2 = l1_distance(w, ad.mul(w, 0.0))
                total = ad.add(l1, l2)
            tape.backward(total)
            return w.grad

        def run_split():
            w = Tensor(base, requires_grad=True)
            with Tape() as t1:
                l1 = ad.mean(ad.mul(w, w))
            t1.backward(l1)
            with Tape() as t2:
                l2 = l1_distance(w, ad.mul(w, 0.0))
            t2.backward(l2)
            return w.grad

        np.testing.assert_allclose(run_joint(), run_split(), rtol=0, atol=1e-15)

    def test_backward_is_bit_deterministic(self):
        rng = RNG(11)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 4))

        def run():
            ta = Tensor(a, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            with Tape() as tape:
                y = ad.mean(ad.softmax_rows(ad.matmul(ta, tb)))
            tape.backward(y)
            return ta.grad.copy(), tb.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_shared_leaf_gets_fanin_sum(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mean(ad.add(ad.mul(x, x), x))  # x^2 + x
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [7.0])


class TestFrozenForwardValues:
    """Hand-computed outputs pinned as regression anchors."""

    def test_softmax_rows_hand_value(self):
        x = Tensor([[0.0, 0.0], [0.0, np.log(3.0)]])
        y = ad.softmax_rows(x)
        np.testing.assert_allclose(y.data, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)

    def test_softmax_rows_shift_invariance(self):
        rng = RNG(3)
        x = rng.normal(size=(4, 6))
        a = ad.softmax_rows(Tensor(x)).data
        b = ad.softmax_rows(Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), np.ones(4), atol=1e-12)

    def test_bce_with_logits_at_zero_is_log_two(self):
        y = ad.bce_with_logits(Tensor([0.0]), Tensor([1.0]))
        np.testing.assert_allclose(float(y.data), 0.6931471805599453, atol=1e-15)

    def test_bce_extreme_logits_stay_finite(self):
        y = ad.bce_with_logits(Tensor([500.0, -500.0]), Tensor([0.0, 1.0]))
        assert np.isfinite(y.data) and float(y.data) > 100.0

    def test_gelu_known_point(self):
        # x * Phi(x) at x = 1: Phi(1) = 0.8413447460685429
        y = ad.gelu(Tensor([1.0]))
        np.testing.assert_allclose(y.data, [0.8413447460685429], atol=1e-15)

    def test_abs_mean_hand_value(self):
        # the class rows [1, -2] and [-1, 2]: mean |d| = 3; equal patch blocks
        a, b = np.zeros((3, 3)), np.zeros((3, 3))
        a[0, 1:], b[0, 1:] = [1.0, -2.0], [-1.0, 2.0]
        y = ad.view_consistency([Tensor(a)], [Tensor(b)], "l1").loss
        assert y.data.tolist() == [3.0, 0.0]

    def test_layer_norm_normalizes_rows(self):
        rng = RNG(5)
        x = rng.normal(size=(3, 8)) * 4.0 + 2.0
        d = x.shape[1]
        y = ad.layer_norm(Tensor(x), Tensor(np.ones((1, d))), Tensor(np.zeros((1, d))))
        np.testing.assert_allclose(y.data.mean(axis=1), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(y.data.std(axis=1), np.ones(3), atol=1e-4)

    def test_permute_rc_gathers(self):
        x = Tensor(np.arange(9.0).reshape(3, 3))
        y = ad.permute_rc(x, [2, 0, 1])
        np.testing.assert_array_equal(y.data, [[8.0, 6.0, 7.0], [2.0, 0.0, 1.0], [5.0, 3.0, 4.0]])

    def test_resample_hits_target_sums(self):
        """Each row of P A P^T sums to P times A's row sums: (8, 1) here."""
        x = Tensor([[1.0, 3.0], [2.0, 2.0]])
        out = ad.resample(x, [[2.0, 0.0], [0.0, 0.25], [1.0, 1.0]])
        assert out.shape == (3, 3)
        np.testing.assert_allclose(out.data.sum(axis=1), [8.0, 1.0, 8.0], atol=1e-12)

    def test_resample_leaves_zero_rows(self):
        """P A P^T is [[1, -1], [1, 0]]: row 0 sums to zero and keeps
        factor 1 although its target is -2; row 1 is scaled to its target 0."""
        x = Tensor([[1.0, -3.0], [1.0, 1.0]])
        out = ad.resample(x, [[1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_allclose(out.data, [[1.0, -1.0], [0.0, 0.0]], atol=1e-15)


class TestShapeContracts:
    def test_matmul_inner_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_elementwise_rejects_row_broadcast(self):
        # only identical shapes or scalar-vs-tensor are allowed
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.ones((4, 3))), Tensor(np.ones((1, 3))))

    def test_scalar_broadcast_allowed(self):
        y = ad.add(Tensor(np.ones((2, 2))), 3.0)
        np.testing.assert_array_equal(y.data, np.full((2, 2), 4.0))

    def test_concat_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_permute_rc_rejects_repeated_indices(self):
        x = Tensor(np.ones((3, 3)))
        for index in ([0, 0], [2, 1, 2]):
            with pytest.raises(ContractError, match="repeat"):
                ad.permute_rc(x, index)


# the fixed second operand of the binary cases below; the l1 case has its
# kinks where a probe equals it
def l1_distance(a, b):
    """The mean |a - b| over the patch block of two (m, m) matrices."""
    return ad.index(ad.view_consistency([a], [b], "l1").loss, 1)


def l1_to_zero(t):
    """Both l1 terms of a (2, 2) matrix against zeros, added."""
    return ad.mean(ad.view_consistency([t], [Tensor(np.zeros((2, 2)))], "l1").loss)


FD_OTHER = RNG(21).normal(size=(2, 3)) * 0.7 + 0.1


def fd_probe(name):
    """The probe of finite-difference case `name`, shaped as the case
    takes it (see _fd_catalog). It is seeded by a stable digest of the
    name (Python salts str hashes per process, so hash(name) would check
    other inputs on every run), then kept at least 5e-3 from 0 and, at
    (2, 3), 1e-3 from FD_OTHER."""
    shape = next(shape for case, shape, _ in _fd_catalog() if case == name)
    x = RNG(zlib.crc32(name.encode())).normal(size=shape)
    near = np.abs(x) < 5e-3
    if shape == FD_OTHER.shape:
        near |= np.abs(x - FD_OTHER) < 1e-3
    x = np.where(near, x + 0.25, x)
    assert not np.any(np.abs(x) < 5e-3), name
    assert shape != FD_OTHER.shape or np.all(np.abs(x - FD_OTHER) >= 1e-3), name
    return x


def _fd_cases():
    """(name, builder) pairs; each builder maps its probe tensor (fd_probe)
    to a scalar. Criterion 05 iterates them."""
    return [(name, builder) for name, _, builder in _fd_catalog()]


def _fd_catalog():
    """(name, probe shape, builder) of every finite-difference case: each
    op on (2, 3) probes, then the ops that take leading axes, a shared
    operand or a head axis on probes of those shapes."""
    rng = RNG(20)
    w = rng.normal(size=(4, 3))
    v = rng.normal(size=(3, 4))
    tgt = (rng.random(size=(2, 3)) > 0.5).astype(float)
    other = FD_OTHER
    g1 = rng.normal(size=(1, 3))
    b1 = rng.normal(size=(1, 3))
    tokens = np.array([2, 0, 1])
    w34 = rng.normal(size=(3, 4))
    k34 = rng.normal(size=(3, 4))
    b4 = rng.normal(size=(1, 4))
    probs = rng.random(size=(2, 2, 2)) + 0.1
    scores_out = rng.normal(size=(2, 2, 2))
    attend_out = rng.normal(size=(2, 4))
    interp = rng.random(size=(4, 3)) + 0.1
    resampled_out = rng.normal(size=(4, 4))
    permuted_out = rng.normal(size=(3, 3))

    def square(t):
        # a (2, 3) tensor and its first row again: a (3, 3) attention-shaped matrix
        return ad.concat([t, ad.index(t, np.s_[0:1])], axis=0)

    def consistency(x, b, distance, stacked=False):
        # both terms, weighted 0.7 and 1.3, against b re-indexed by a flip
        # of a 1x2 grid; stacked, the augmented half is x's matrix scaled
        a = square(x)
        if stacked:
            scale = Tensor(np.stack([np.ones((3, 3)), 1.5 + square(Tensor(b)).data]))
            out = ad.view_consistency([ad.mul(a, scale)], None, distance, [[0, 2, 1]])
        else:
            out = ad.view_consistency([a], [square(Tensor(b))], distance, [0, 2, 1])
        return ad.mean(ad.mul(out.loss, Tensor([0.7, 1.3])))

    def resampled(x):
        # entries of at least 0.5 keep every row sum of P A P^T far from
        # zero; the first row again makes A square
        pos = ad.add(ad.mul(x, x), 0.5)
        a = ad.concat([pos, ad.index(pos, np.s_[0:1])], axis=0)
        return ad.mean(ad.mul(ad.resample(a, interp), Tensor(resampled_out)))

    plain = [
        ("matmul_left", lambda x: ad.mean(ad.matmul(x, Tensor(v)))),
        ("matmul_right", lambda x: ad.mean(ad.matmul(Tensor(w[:, :2]), x))),
        ("add", lambda x: ad.mean(ad.add(x, Tensor(other)))),
        ("mul", lambda x: ad.mean(ad.mul(x, Tensor(other)))),
        ("scalar_broadcast", lambda x: ad.mean(ad.mul(ad.add(x, 2.5), Tensor(0.5)))),
        ("gelu", lambda x: ad.mean(ad.gelu(x))),
        ("softmax_rows", lambda x: ad.mean(ad.mul(ad.softmax_rows(x), Tensor(other)))),
        ("layer_norm_x", lambda x: ad.mean(ad.mul(ad.layer_norm(x, Tensor(g1), Tensor(b1)), Tensor(other)))),
        ("mean", lambda x: ad.mean(x)),
        # the three mean distances, through view_consistency's two layouts
        ("mean_distance_l1", lambda x: consistency(x, other, "l1")),
        ("mean_distance_l2", lambda x: consistency(x, other, "l2", stacked=True)),
        ("mean_distance_smooth_l1_inside",
         lambda x: consistency(ad.mul(x, 0.05), other * 0.05, "smooth_l1")),
        ("mean_distance_smooth_l1_outside",
         lambda x: consistency(ad.mul(x, 40.0), other, "smooth_l1", stacked=True)),
        ("bce_with_logits", lambda x: ad.bce_with_logits(x, Tensor(tgt))),
        ("linear", lambda x: ad.mean(ad.mul(ad.linear(x, Tensor(w34), Tensor(b4)), Tensor(attend_out)))),
        ("attention_scores", lambda x: ad.mean(ad.mul(ad.attention_scores(
            x, Tensor(w34), Tensor(b4), Tensor(k34), Tensor(-b4), 2, 0.5), Tensor(scores_out)))),
        ("attend", lambda x: ad.mean(ad.mul(ad.attend(Tensor(probs), x, Tensor(w34), Tensor(b4)),
                                            Tensor(attend_out)))),
        ("resample", resampled),
        ("concat_rows", lambda x: ad.mean(ad.mul(ad.concat([x, x], axis=0), ad.concat([x, x], axis=0)))),
        # "slice2d" and "pick" name the selection each index case makes; the
        # probe is seeded by the name
        ("slice2d", lambda x: ad.mean(ad.mul(ad.index(x, np.s_[..., 0:2, 1:3]), ad.index(x, np.s_[..., 0:2, 1:3])))),
        ("permute_rc", lambda x: ad.mean(ad.mul(ad.permute_rc(square(x), tokens),
                                                Tensor(permuted_out)))),
        ("pick", lambda x: ad.index(ad.index(x, 1), 1)),
        ("softmax_then_bce_chain", lambda x: ad.bce_with_logits(ad.softmax_rows(ad.matmul(x, Tensor(v[:, :3]))), Tensor(tgt))),
    ]
    # the leading-axis cases' operands, from a stream of their own (the
    # lambdas above read their names when called: none is rebound here)
    rng = RNG(30)
    w43 = rng.normal(size=(4, 3))
    other3 = rng.normal(size=(2, 3, 3))
    other4 = rng.normal(size=(2, 3, 4))
    table = rng.normal(size=(3, 4))
    row = rng.normal(size=(1, 4))
    cls = rng.normal(size=(1, 4))
    batched = rng.normal(size=(2, 4, 5))
    resized = rng.normal(size=(2, 7, 7))
    shaped = [
        ("matmul_batched_left", (2, 3, 4), lambda x: ad.mean(ad.matmul(x, Tensor(w43)))),
        ("matmul_shared_weight", (4, 3),
         lambda x: ad.mean(ad.mul(ad.matmul(Tensor(other4), x), Tensor(other3)))),
        ("matmul_batched_both", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.matmul(x, Tensor(batched)), ad.matmul(x, Tensor(batched))))),
        ("matmul_batched_right", (2, 4, 5),
         lambda x: ad.mean(ad.mul(ad.matmul(Tensor(other4), x), ad.matmul(Tensor(other4), x)))),
        ("layer_norm_batched_x", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.layer_norm(x, Tensor(row), Tensor(cls)), Tensor(other4)))),
        ("layer_norm_shared_gain", (1, 4),
         lambda x: ad.mean(ad.mul(ad.layer_norm(Tensor(other4), x, Tensor(cls)), Tensor(other4)))),
        ("layer_norm_shared_bias", (1, 4),
         lambda x: ad.mean(ad.mul(ad.layer_norm(Tensor(other4), Tensor(row), x), Tensor(other4)))),
        ("softmax_rows_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.softmax_rows(x), Tensor(other4)))),
        ("add_shared_table", (3, 4),
         lambda x: ad.mean(ad.mul(ad.add(Tensor(other4), x), Tensor(other4)))),
        ("mul_shared_table", (3, 4),
         lambda x: ad.mean(ad.mul(ad.mul(x, Tensor(other4)), Tensor(other4)))),
        ("concat_broadcast_row", (1, 4),
         lambda x: ad.mean(ad.mul(ad.concat([x, Tensor(other4)], axis=0),
                                  ad.concat([x, Tensor(other4)], axis=0)))),
        ("concat_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.concat([Tensor(np.ones((1, 4))), x], axis=0),
                                  ad.concat([Tensor(cls), ad.mul(x, x)], axis=0)))),
        ("index_block_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.index(x, np.s_[..., 0:1, 1:]), ad.index(x, np.s_[..., 2:3, 0:3])))),
        ("index_view_batched", (2, 3, 4),
         lambda x: ad.mean(ad.mul(ad.index(x, 1), Tensor(table)))),
        ("mean_head_axis", (2, 3, 3, 4),
         lambda x: ad.mean(ad.mul(ad.mean(x, axis=-3), Tensor(other4)))),
        ("permute_rc_per_entry", (2, 3, 3),
         lambda x: ad.mean(ad.mul(ad.permute_rc(x, [[2, 0, 1], [1, 2, 0]]), Tensor(other3)))),
        ("resample_batched", (2, 3, 3),
         lambda x: ad.mean(ad.mul(ad.resample(ad.add(ad.mul(x, x), 0.5), np.abs(other4[0].T)),
                                  Tensor(batched[..., :4])))),
        ("resize_attention_batched", (2, 5, 5),
         lambda x: ad.mean(ad.mul(gt.resize_attention(ad.add(ad.mul(x, x), 0.1),
                                                      GridShape(2, 2), GridShape(3, 2)),
                                  Tensor(resized)))),
    ]
    return tuple([(name, (2, 3), builder) for name, builder in plain] + shaped)


class TestGradientsMatchFiniteDifferences:
    """Central-difference oracle for every differentiable op (step 1e-5,
    64-bit floats), on (2, 3) probes and on probes with leading axes, a
    shared operand's shape or a head axis; probes avoid the l1 kinks by
    at least 1e-3."""

    @pytest.mark.parametrize("name,builder", _fd_cases(), ids=[n for n, _ in _fd_cases()])
    def test_op_gradient(self, name, builder):
        err = ad.grad_check(builder, Tensor(fd_probe(name)), step=1e-5)
        assert err < 1e-6, f"{name}: finite-difference mismatch {err:.3e}"

    def test_gradients_wrt_layer_norm_params(self):
        rng = RNG(77)
        x = rng.normal(size=(3, 4))
        other = rng.normal(size=(3, 4))
        bias = rng.normal(size=(1, 4))

        def wrt_gain(g):
            return ad.mean(ad.mul(ad.layer_norm(Tensor(x), g, Tensor(bias)), Tensor(other)))

        err = ad.grad_check(wrt_gain, Tensor(rng.normal(size=(1, 4))))
        assert err < 1e-6

    def test_gradients_wrt_bce_targets(self):
        rng = RNG(78)
        z = rng.normal(size=(2, 3))

        def wrt_targets(t):
            return ad.bce_with_logits(Tensor(z), t)

        err = ad.grad_check(wrt_targets, Tensor(rng.random(size=(2, 3))))
        assert err < 1e-6


class TestGradCheckContract:
    def test_quadratic_example(self):
        # f(x) = sum of squares at [1, 2]: analytic gradient [2, 4]
        err = ad.grad_check(lambda x: ad.mean(ad.mul(x, ad.mul(x, 2.0))), Tensor([1.0, 2.0]))
        assert err <= 1e-7

    def test_abs_away_from_kink(self):
        err = ad.grad_check(l1_to_zero, Tensor([[0.5, -1.0], [4.0, 2.0]]))
        assert err < 1e-10

    def test_max_coords_subsampling_runs(self):
        rng = RNG(9)
        x = Tensor(rng.normal(size=(6, 6)) + 0.5)
        err = ad.grad_check(lambda t: ad.mean(ad.mul(t, t)), x, max_coords=5, rng=RNG(1))
        assert err < 1e-7

    def test_non_scalar_f_rejected(self):
        with pytest.raises(ContractError):
            ad.grad_check(lambda t: ad.mul(t, 2.0), Tensor([1.0, 2.0]))

    @pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
    def test_step_that_checks_nothing_rejected(self, step):
        with pytest.raises(ContractError, match="step"):
            ad.grad_check(lambda t: ad.mean(ad.mul(t, t)), Tensor([1.0, 2.0]), step=step)

    @pytest.mark.parametrize("max_coords", [0, -1])
    def test_max_coords_that_checks_nothing_rejected(self, max_coords):
        with pytest.raises(ContractError, match="max_coords"):
            ad.grad_check(lambda t: ad.mean(ad.mul(t, t)), Tensor([1.0, 2.0]),
                          max_coords=max_coords)


class TestSeededBackward:
    """backward(loss, seed): one recorded forward, one sweep per seed."""

    def record(self):
        x = Tensor([[0.3, -1.2, 0.7]], requires_grad=True)
        w = Tensor(RNG(40).normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            y = ad.index(ad.gelu(ad.matmul(x, w)), 0)
        return x, w, tape, y

    def test_matches_a_fresh_tape_per_component_and_stays_usable(self):
        x, w, tape, y = self.record()
        for k in range(4):
            x.zero_grad()
            tape.backward(y, seed=np.eye(4)[k])
            fresh_x = Tensor(x.data, requires_grad=True)
            with Tape() as fresh:
                yk = ad.index(ad.index(ad.gelu(ad.matmul(fresh_x, w)), 0), k)
            fresh.backward(yk)
            assert np.array_equal(x.grad, fresh_x.grad)
        tape.backward(y, seed=np.ones(4))  # still usable after four sweeps

    def test_grads_accumulate_across_sweeps(self):
        x, _, tape, y = self.record()
        tape.backward(y, seed=np.eye(4)[0])
        first = x.grad.copy()
        tape.backward(y, seed=np.eye(4)[0])
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_seed_shape_must_match_loss(self):
        _, _, tape, y = self.record()
        with pytest.raises(DimensionError):
            tape.backward(y, seed=np.ones(3))

    def test_unseeded_sweep_still_consumes_the_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mean(ad.mul(x, x))
        tape.backward(y, seed=np.ones(()))
        tape.backward(y)
        with pytest.raises(StateError):
            tape.backward(y, seed=np.ones(()))

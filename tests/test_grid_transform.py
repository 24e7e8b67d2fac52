"""Token permutations, the dense Kronecker/commutation oracle, and
attention resizing. The fast gather path is held against brute-force
coordinate enumeration and against the dense linear-algebra route."""

import numpy as np
import pytest

import reference as ref
from attnreg import autodiff as ad
from attnreg import gridtransform as gt
from attnreg.autodiff import Tape, Tensor
from attnreg.errors import ContractError, DimensionError, ResourceError
from attnreg.gridtransform import (FLIP_H, FLIP_HV, FLIP_V, IDENTITY, ROT90, ROT180, ROT270,
                                   GridShape, SpatialTransform, TokenPermutation, TransformKind)

ALL_PERMS = (IDENTITY, FLIP_H, FLIP_V, FLIP_HV, ROT90, ROT180, ROT270)

# numpy view of each transform, used as an independent enumeration oracle
_NP_VIEW = {
    TransformKind.IDENTITY: lambda m: m,
    TransformKind.FLIP_H: lambda m: np.flip(m, axis=1),
    TransformKind.FLIP_V: lambda m: np.flip(m, axis=0),
    TransformKind.FLIP_HV: lambda m: np.flip(m, axis=(0, 1)),
    TransformKind.ROT90: lambda m: np.rot90(m, 1),
    TransformKind.ROT180: lambda m: np.rot90(m, 2),
    TransformKind.ROT270: lambda m: np.rot90(m, 3),
}


def perm_oracle(transform, grid):
    """sigma by brute force: lay out token indices on the grid, apply the
    numpy view transform, read the flattened result."""
    layout = np.arange(grid.n).reshape(grid.h, grid.w)
    return _NP_VIEW[transform.kind](layout).ravel()


def conjugate(a_full, perm):
    """Forward model: attention of the transformed view from the source
    attention, A'[p, q] = A[sigma[p], sigma[q]] with the class token fixed."""
    idx = np.concatenate(([0], perm.sigma + 1))
    return a_full[np.ix_(idx, idx)]


class TestTokenPermutation:
    def test_fliph_1x3_frozen(self):
        p = gt.token_permutation(FLIP_H, GridShape(1, 3))
        np.testing.assert_array_equal(p.sigma, [2, 1, 0])

    def test_rot90_2x2_frozen(self):
        p = gt.token_permutation(ROT90, GridShape(2, 2))
        np.testing.assert_array_equal(p.sigma, [1, 3, 0, 2])

    @pytest.mark.parametrize("transform", ALL_PERMS, ids=str)
    def test_matches_enumeration_oracle(self, transform):
        rng = np.random.default_rng(0)
        for _ in range(25):
            grid = GridShape(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            p = gt.token_permutation(transform, grid)
            np.testing.assert_array_equal(p.sigma, perm_oracle(transform, grid))
            assert p.target == transform.target_grid(grid)

    def test_rotations_swap_grid_shape(self):
        g = GridShape(2, 5)
        assert gt.token_permutation(ROT90, g).target == GridShape(5, 2)
        assert gt.token_permutation(FLIP_H, g).target == g

    def test_resize_is_not_a_permutation(self):
        with pytest.raises(ContractError):
            gt.token_permutation(SpatialTransform(TransformKind.RESIZE, GridShape(2, 2)), GridShape(4, 4))

    def test_non_permutation_sigma_rejected(self):
        with pytest.raises(ContractError):
            TokenPermutation(np.array([0, 0, 1, 2]), GridShape(2, 2), GridShape(2, 2))


class TestGroupLaws:
    """Flips are involutions; Rot90 has order four; Rot180 == FlipHV;
    Rot270 == Rot90 three times; FlipH . FlipV == FlipHV. Checked over
    random grid shapes."""

    def _grids(self, count=50, top=7):
        rng = np.random.default_rng(42)
        return [GridShape(int(rng.integers(1, top)), int(rng.integers(1, top))) for _ in range(count)]

    def test_flip_involutions(self):
        for g in self._grids():
            for t in (FLIP_H, FLIP_V, FLIP_HV, ROT180):
                p = gt.token_permutation(t, g)
                assert p.compose(gt.token_permutation(t, p.target)).is_identity()

    def test_rot90_order_four(self):
        for g in self._grids():
            p = gt.token_permutation(ROT90, g)
            for _ in range(3):
                p = p.compose(gt.token_permutation(ROT90, p.target))
            assert p.is_identity()

    def test_rot270_is_rot90_cubed(self):
        for g in self._grids():
            p = gt.token_permutation(ROT90, g)
            for _ in range(2):
                p = p.compose(gt.token_permutation(ROT90, p.target))
            q = gt.token_permutation(ROT270, g)
            np.testing.assert_array_equal(p.sigma, q.sigma)
            assert p.target == q.target

    def test_rot180_equals_fliphv(self):
        for g in self._grids():
            np.testing.assert_array_equal(gt.token_permutation(ROT180, g).sigma,
                                          gt.token_permutation(FLIP_HV, g).sigma)

    def test_fliph_then_flipv_is_fliphv(self):
        for g in self._grids():
            p = gt.token_permutation(FLIP_H, g).compose(gt.token_permutation(FLIP_V, g))
            np.testing.assert_array_equal(p.sigma, gt.token_permutation(FLIP_HV, g).sigma)

    def test_inverse_roundtrip(self):
        for g in self._grids(20):
            p = gt.token_permutation(ROT90, g)
            assert p.compose(p.inverse()).is_identity()
            assert p.inverse().compose(p).is_identity()


class TestCommutationMatrix:
    """C vec(H) = vec(H^T), exactly, plus the structural identities the
    dense oracle relies on."""

    def test_lemma_exact_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            h = rng.normal(size=(r, c))
            k = gt.commutation_matrix(r, c)
            assert np.array_equal(k @ gt.vec(h), gt.vec(h.T))

    def test_orthogonal_and_transpose_pair(self):
        for r, c in [(1, 1), (2, 3), (3, 2), (4, 4), (5, 2)]:
            k = gt.commutation_matrix(r, c)
            assert np.array_equal(k @ k.T, np.eye(r * c))
            assert np.array_equal(k.T, gt.commutation_matrix(c, r))

    def test_square_case_is_involution(self):
        k = gt.commutation_matrix(3, 3)
        assert np.array_equal(k @ k, np.eye(9))

    def test_kron_vec_lemma(self):
        # vec(A B C) = (C^T kron A) vec(B)
        rng = np.random.default_rng(8)
        a, b, c = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2, 5))
        np.testing.assert_allclose(gt.vec(a @ b @ c), np.kron(c.T, a) @ gt.vec(b), atol=1e-12)


class TestInversionFastVsOracle:
    """The gather path and the dense Kronecker path must agree on the
    patch block; exhaustive small grids run in the acceptance suite."""

    @pytest.mark.parametrize("transform", ALL_PERMS, ids=str)
    @pytest.mark.parametrize("grid", [GridShape(2, 2), GridShape(2, 3), GridShape(3, 2),
                                      GridShape(1, 4), GridShape(3, 3)], ids=str)
    def test_agreement(self, transform, grid):
        rng = np.random.default_rng(grid.n * 31 + 1)
        n = grid.n
        for _ in range(5):
            a_prime = rng.normal(size=(n + 1, n + 1))
            fast = gt.invert_attention_fast(a_prime, transform, grid).data
            oracle = gt.invert_attention_kronecker(a_prime[1:, 1:], transform, grid)
            assert np.max(np.abs(fast[1:, 1:] - oracle)) <= 1e-12

    def test_recovers_forward_model_exactly(self):
        """A' built by conjugating a base matrix with sigma inverts back
        to the base matrix, bit for bit (gathers move values, never mix)."""
        rng = np.random.default_rng(5)
        for transform in ALL_PERMS:
            grid = GridShape(3, 4)
            base = rng.normal(size=(grid.n + 1, grid.n + 1))
            perm = gt.token_permutation(transform, grid)
            a_prime = conjugate(base, perm)
            back = gt.invert_attention_fast(a_prime, transform, grid).data
            assert np.array_equal(back, base)

    def test_class_slots_reindex_along_patch_axis_only(self):
        grid = GridShape(1, 3)
        a = np.arange(16.0).reshape(4, 4)
        out = gt.invert_attention_fast(a, FLIP_H, grid).data
        assert out[0, 0] == a[0, 0]
        np.testing.assert_array_equal(out[0, 1:], a[0, 1:][::-1])
        np.testing.assert_array_equal(out[1:, 0], a[1:, 0][::-1])

    def test_identity_transform_is_identity(self):
        a = np.random.default_rng(0).normal(size=(5, 5))
        assert np.array_equal(gt.invert_attention_fast(a, IDENTITY, GridShape(2, 2)).data, a)

    def test_fast_path_is_differentiable(self):
        grid = GridShape(2, 2)
        rng = np.random.default_rng(3)
        probe = rng.normal(size=(5, 5))
        weight = Tensor(rng.normal(size=(5, 5)))

        def f(x):
            return ad.mean(ad.mul(gt.invert_attention_fast(x, ROT90, grid), weight))

        assert ad.grad_check(f, Tensor(probe)) < 1e-6

    def test_oracle_respects_token_cap(self):
        grid = GridShape(40, 40)
        with pytest.raises(ResourceError):
            gt.invert_attention_kronecker(np.zeros((1600, 1600)), FLIP_H, grid)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            gt.invert_attention_fast(np.zeros((4, 4)), FLIP_H, GridShape(2, 2))

    def test_index_built_once_per_transform_and_grid(self, monkeypatch):
        grid = GridShape(3, 5)
        gt._inverse_token_index.cache_clear()
        built = []
        real = gt.token_permutation
        monkeypatch.setattr(gt, "token_permutation",
                            lambda *args: built.append(args) or real(*args))
        a = np.random.default_rng(4).normal(size=(grid.n + 1, grid.n + 1))
        first = gt.invert_attention_fast(a, ROT90, grid).data
        again = gt.invert_attention_fast(a, ROT90, grid).data
        gt.invert_attention_fast(a, FLIP_V, grid)
        assert built == [(ROT90, grid), (FLIP_V, grid)]
        assert np.array_equal(first, again)
        index = gt._inverse_token_index(ROT90, grid)
        with pytest.raises(ValueError):
            index[0] = 1  # the cached index is read-only


def scalar_bilinear(field, th, tw):
    """Independent bilinear kernel: per-output-pixel scalar interpolation
    with half-pixel centers and border clamp."""
    sh, sw = field.shape
    out = np.zeros((th, tw))
    for oi in range(th):
        for oj in range(tw):
            u = (oi + 0.5) * sh / th - 0.5
            v = (oj + 0.5) * sw / tw - 0.5
            i0, j0 = int(np.floor(u)), int(np.floor(v))
            ti, tj = u - i0, v - j0
            i0c, i1c = np.clip([i0, i0 + 1], 0, sh - 1)
            j0c, j1c = np.clip([j0, j0 + 1], 0, sw - 1)
            out[oi, oj] = ((1 - ti) * (1 - tj) * field[i0c, j0c]
                           + (1 - ti) * tj * field[i0c, j1c]
                           + ti * (1 - tj) * field[i1c, j0c]
                           + ti * tj * field[i1c, j1c])
    return out


class TestResizeAttention:
    def test_same_grid_is_exact_copy(self):
        g = GridShape(3, 3)
        a = np.random.default_rng(1).random(size=(10, 10))
        out = gt.resize_attention(a, g, g).data
        assert np.array_equal(out, a)

    @pytest.mark.parametrize("src,dst", [((3, 3), (5, 5)), ((6, 6), (4, 4)), ((2, 3), (4, 5)),
                                         ((5, 4), (3, 6)), ((4, 2), (2, 4))], ids=str)
    def test_matches_block_chain_oracle(self, src, dst):
        src, dst = GridShape(*src), GridShape(*dst)
        rng = np.random.default_rng(src.n * 37 + dst.n)
        a = rng.random(size=(src.n + 1, src.n + 1)) + 0.05
        weight = Tensor(rng.normal(size=(dst.n + 1, dst.n + 1)))
        outs = []
        for resize in (gt.resize_attention, ref.resize_attention_chain):
            x = Tensor(a, requires_grad=True)
            with Tape() as tape:
                out = resize(x, src, dst)
                loss = ad.mean(ad.mul(out, weight))
            tape.backward(loss)
            outs.append((out.data, x.grad))
        (value, grad), (value_ref, grad_ref) = outs
        np.testing.assert_allclose(value, value_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-12)

    def test_records_one_node(self):
        src, dst = GridShape(3, 4), GridShape(4, 3)
        a = Tensor(np.random.default_rng(6).random(size=(13, 13)), requires_grad=True)
        with Tape() as tape:
            gt.resize_attention(a, src, dst)
        assert [n.op for n in tape.nodes] == ["resample"]

    @pytest.mark.parametrize("lead,src,dst", [
        ((), (10, 10), (8, 8)),
        ((1,), (10, 10), (8, 8)),
        ((4,), (6, 6), (8, 8)),
        ((), (4, 3), (3, 4)),
        ((2,), (3, 4), (3, 4)),
    ], ids=["2d-10x10-to-8x8", "k1-10x10-to-8x8", "k4-6x6-to-8x8", "4x3-to-3x4", "same-grid"])
    def test_bit_identical_to_five_node_chain(self, lead, src, dst):
        """The one node evaluates the chain's expressions on the chain's
        operand layouts: values and gradients are equal, not just close.
        The two 10x10 -> 8x8 cases fail when P^T is a transposed view of P
        instead of the chain's contiguous copy."""
        src, dst = GridShape(*src), GridShape(*dst)
        rng = np.random.default_rng(src.n * 31 + dst.n + len(lead))
        a = rng.random(size=lead + (src.n + 1, src.n + 1)) + 0.05
        seed = rng.normal(size=lead + (dst.n + 1, dst.n + 1))
        outs = []
        for resize in (gt.resize_attention, ref.resize_attention):
            x = Tensor(a, requires_grad=True)
            with Tape() as tape:
                out = resize(x, src, dst)
            tape.backward(out, seed=seed)
            outs.append((out.data, x.grad))
        (value, grad), (value_ref, grad_ref) = outs
        assert np.array_equal(value, value_ref)
        assert np.array_equal(grad, grad_ref)

    def test_resample_contracts(self):
        p = gt.bordered_interp_matrix(GridShape(2, 2), GridShape(3, 3))
        for shape, matrix in (((5, 4), p), ((2, 5), p), ((4, 4), p), ((5, 5), p[0])):
            with pytest.raises(DimensionError):
                ad.resample(Tensor(np.ones(shape)), matrix)

    def test_constant_matrix_stays_constant(self):
        src, dst = GridShape(3, 3), GridShape(5, 4)
        a = np.full((10, 10), 0.37)
        out = gt.resize_attention(a, src, dst).data
        assert out.shape == (21, 21)
        assert np.ptp(out) < 1e-12

    def test_row_stochastic_preserved(self):
        src, dst = GridShape(4, 4), GridShape(2, 3)
        rng = np.random.default_rng(9)
        a = rng.random(size=(17, 17))
        a /= a.sum(axis=1, keepdims=True)
        out = gt.resize_attention(a, src, dst).data
        np.testing.assert_allclose(out.sum(axis=1), np.ones(7), atol=1e-12)

    def test_class_row_matches_scalar_bilinear_oracle(self):
        """2x2 -> 4x4 upscale of a linear-ramp class row, compared against
        the scalar interpolation formula (including the row-sum rescale)."""
        src, dst = GridShape(2, 2), GridShape(4, 4)
        rng = np.random.default_rng(11)
        a = rng.random(size=(5, 5))
        ramp = np.array([0.0, 1.0, 2.0, 3.0])
        a[0, 1:] = ramp
        out = gt.resize_attention(a, src, dst).data
        expected = scalar_bilinear(ramp.reshape(2, 2), 4, 4).ravel()
        # row 0 is rescaled so its sum matches the source row sum
        raw_row = np.concatenate(([a[0, 0]], expected))
        rescale = a[0].sum() / raw_row.sum()
        np.testing.assert_allclose(out[0, 1:], expected * rescale, atol=1e-12)
        np.testing.assert_allclose(out[0].sum(), a[0].sum(), atol=1e-12)

    def test_patch_block_matches_scalar_oracle(self):
        """Identical source patch rows make the query-side interpolation a
        no-op, so the block reduces to key-side interpolation of one field;
        the expected rescale comes from the scalar oracle as well."""
        src, dst = GridShape(2, 2), GridShape(3, 3)
        a = np.zeros((5, 5))
        field = np.array([[0.1, 0.3], [0.5, 0.7]])
        for r in range(1, 5):
            a[r, 1:] = field.ravel()
            a[r, 0] = 0.25
        a[0, 0] = 1.0
        out = gt.resize_attention(a, src, dst).data
        interp = scalar_bilinear(field, 3, 3).ravel()
        raw = np.concatenate(([0.25], interp))  # col 0 is constant 0.25
        target_sums = scalar_bilinear(a[1:].sum(axis=1).reshape(2, 2), 3, 3).ravel()
        for r in range(9):
            expected = raw * (target_sums[r] / raw.sum())
            np.testing.assert_allclose(out[1 + r, 1:], expected[1:], atol=1e-12)
            np.testing.assert_allclose(out[1 + r, 0], expected[0], atol=1e-12)

    def test_bilinear_matrix_identity_and_row_sums(self):
        assert np.array_equal(gt.bilinear_matrix(5, 5), np.eye(5))
        w = gt.bilinear_matrix(3, 7)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(7), atol=1e-15)

    def test_interp_matrix_built_once_per_grid_pair(self, monkeypatch):
        src, dst = GridShape(6, 6), GridShape(8, 8)
        gt.bordered_interp_matrix.cache_clear()
        built = []
        real = gt.bilinear_matrix
        monkeypatch.setattr(gt, "bilinear_matrix",
                            lambda *args: built.append(args) or real(*args))
        a = np.random.default_rng(5).random(size=(src.n + 1, src.n + 1))
        first = gt.resize_attention(a, src, dst).data
        again = gt.resize_attention(a, src, dst).data
        assert built == [(6, 8), (6, 8)]  # one build: one matrix per axis
        assert np.array_equal(first, again)
        cached = gt.bordered_interp_matrix(src, dst)
        assert np.array_equal(cached, gt.bordered_interp_matrix.__wrapped__(src, dst))
        # blockdiag(1, W): the class token passes through untouched
        assert cached.shape == (dst.n + 1, src.n + 1) and cached[0, 0] == 1.0
        assert not cached[0, 1:].any() and not cached[1:, 0].any()
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0  # the cached matrix is read-only

    def test_nearest_index_cached_read_only(self):
        gt.nearest_index.cache_clear()
        for src, dst in [(4, 8), (8, 4), (5, 7), (3, 3), (1, 6)]:
            index = gt.nearest_index(src, dst)
            assert gt.nearest_index(src, dst) is index
            assert np.array_equal(index, gt.nearest_index.__wrapped__(src, dst))
            assert index.shape == (dst,) and index.min() >= 0 and index.max() < src
            with pytest.raises(ValueError):
                index[0] = 0
        assert gt.nearest_index(4, 8).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_resize_is_differentiable(self):
        src, dst = GridShape(2, 3), GridShape(3, 2)
        rng = np.random.default_rng(13)
        probe = rng.random(size=(7, 7)) + 0.1
        weight = Tensor(rng.normal(size=(7, 7)))

        def f(x):
            return ad.mean(ad.mul(gt.resize_attention(x, src, dst), weight))

        assert ad.grad_check(f, Tensor(probe)) < 1e-6

    def test_invert_attention_dispatch(self):
        g = GridShape(3, 3)
        t = SpatialTransform(TransformKind.RESIZE, GridShape(2, 2))
        a_small = np.random.default_rng(2).random(size=(5, 5))
        out = gt.invert_attention(a_small, t, g)
        assert out.shape == (10, 10)
        a_full = np.random.default_rng(3).random(size=(10, 10))
        out2 = gt.invert_attention(a_full, FLIP_V, g)
        assert out2.shape == (10, 10)


class TestParsing:
    def test_roundtrip(self):
        for text in ["identity", "fliph", "flipv", "fliphv", "rot90", "rot180", "rot270", "resize:4x6"]:
            assert str(SpatialTransform.parse(text)) == text

    def test_bad_transform(self):
        with pytest.raises(ContractError):
            SpatialTransform.parse("diagonal")

    def test_grid_parse(self):
        assert GridShape.parse("8x8") == GridShape(8, 8)
        with pytest.raises(ContractError):
            GridShape.parse("8by8")
        with pytest.raises(ContractError):
            GridShape(0, 3)

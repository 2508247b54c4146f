import logging
import math
import warnings

import numpy as np
import pytest

from twoview.errors import TwoViewError
from twoview.tensor_ops import (AffineMap, affine_tanh, affine_tanh_pinv,
                                circ_convolution, circ_correlation,
                                circ_correlation_fft, finite_diff_check,
                                init_orthogonal, init_unit_sphere,
                                project_rows_unit_norm, _windows)


def corr_definition_oracle(a, b):
    """Literal triple-loop transcription of the correlation definition."""
    d = len(a)
    out = np.zeros(d)
    for k in range(d):
        for i in range(d):
            out[k] += a[i] * b[(k + i) % d]
    return out


def conv_definition_oracle(a, b):
    d = len(a)
    return np.array([sum(a[i] * b[(k - i) % d] for i in range(d))
                     for k in range(d)])


class TestInitUnitSphere:
    def test_unit_norms(self, rng):
        vecs = init_unit_sphere(100, 7, rng, dtype=np.float64)
        assert np.all(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) < 1e-6)

    def test_dim_one_gives_signs(self, rng):
        vecs = init_unit_sphere(50, 1, rng, dtype=np.float64)
        assert set(np.unique(vecs)) <= {-1.0, 1.0}

    def test_spherical_symmetry(self):
        vecs = init_unit_sphere(10_000, 50, np.random.default_rng(1),
                                dtype=np.float64)
        assert np.all(np.abs(vecs.mean(axis=0)) < 0.05)

    def test_zero_dim_rejected(self, rng):
        with pytest.raises(TwoViewError):
            init_unit_sphere(3, 0, rng)


class TestInitOrthogonal:
    def test_square_orthonormal(self, rng):
        w = init_orthogonal(4, 4, rng, dtype=np.float64)
        assert np.allclose(w.T @ w, np.eye(4), atol=1e-5)

    def test_wide_row_orthonormal(self, rng):
        w = init_orthogonal(2, 5, rng, dtype=np.float64)
        assert np.allclose(w @ w.T, np.eye(2), atol=1e-5)

    def test_tall_column_orthonormal(self, rng):
        w = init_orthogonal(5, 2, rng, dtype=np.float64)
        assert np.allclose(w.T @ w, np.eye(2), atol=1e-5)

    def test_singular_values_one(self, rng):
        for d2, d1 in ((4, 4), (3, 8), (8, 3)):
            w = init_orthogonal(d2, d1, rng, dtype=np.float64)
            sv = np.linalg.svd(w, compute_uv=False)
            assert np.all(np.abs(sv - 1.0) < 1e-5)


class TestCircCorrelation:
    def test_basis_vector_identity(self, rng):
        b = rng.normal(size=6)
        e0 = np.zeros(6)
        e0[0] = 1.0
        assert np.allclose(circ_correlation(e0, b), b)

    def test_hand_example(self):
        out = circ_correlation(np.array([1.0, 2.0, 3.0]),
                               np.array([4.0, 5.0, 6.0]))
        assert np.array_equal(out, [32.0, 29.0, 29.0])
        assert np.array_equal(
            corr_definition_oracle([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
            [32.0, 29.0, 29.0])

    def test_zero_vectors(self):
        z = np.zeros(5)
        assert np.array_equal(circ_correlation(z, z), z)

    def test_matches_definition_oracle(self, rng):
        for d in (4, 50):
            a, b = rng.normal(size=d), rng.normal(size=d)
            assert np.allclose(circ_correlation(a, b),
                               corr_definition_oracle(a, b), atol=1e-10)

    def test_linearity_in_first_argument(self, rng):
        a, b = rng.normal(size=8), rng.normal(size=8)
        lhs = circ_correlation(2.5 * a, b)
        rhs = 2.5 * circ_correlation(a, b)
        assert np.all(np.abs(lhs - rhs) < 1e-6)

    def test_fft_fast_path(self, rng):
        for d in (4, 50, 300):
            a, b = rng.normal(size=d), rng.normal(size=d)
            ref = circ_correlation(a, b)
            fast = circ_correlation_fft(a, b)
            scale = max(1e-12, np.max(np.abs(ref)))
            assert np.max(np.abs(ref - fast)) / scale < 1e-4

    def test_convolution_matches_definition(self, rng):
        a, b = rng.normal(size=7), rng.normal(size=7)
        assert np.allclose(circ_convolution(a, b), conv_definition_oracle(a, b),
                           atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(TwoViewError):
            circ_correlation(np.zeros(3), np.zeros(4))


class TestCircBlocks:
    """(n, d) row blocks: scoring and training pass whole batches, and each
    row must come out as the 1-D call on that row would give it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [circ_correlation, circ_convolution])
    def test_rows_equal_one_dimensional_call_bitwise(self, kernel, dtype):
        rng = np.random.default_rng(13)
        for d in (1, 2, 3, 7, 50, 300):
            table = rng.normal(size=(200, d)).astype(dtype)
            a, b = (table[rng.integers(200, size=64)] for _ in range(2))
            block = kernel(a, b)
            assert block.shape == (64, d) and block.dtype == dtype
            rows = np.stack([kernel(x, y) for x, y in zip(a, b)])
            assert np.array_equal(block, rows), d

    @pytest.mark.parametrize("kernel, oracle", [
        (circ_correlation, corr_definition_oracle),
        (circ_convolution, conv_definition_oracle)])
    def test_rows_match_definition(self, kernel, oracle, rng):
        for d in (1, 2, 3, 7, 50):
            a, b = rng.normal(size=(2, 5, d))
            block = kernel(a, b)
            for i in range(5):
                assert np.allclose(block[i], oracle(a[i], b[i]), atol=1e-10), d

    def test_window_view_is_read_only(self):
        for b in (np.arange(5.0), np.arange(12.0).reshape(3, 4)):
            w = _windows(b)
            assert not w.flags.writeable
            assert np.array_equal(w[..., 1, :], np.roll(b, -1, axis=-1))
            with pytest.raises(ValueError):
                w[..., 0, 0] = 1.0

    def test_hand_example_one_row_block(self):
        out = circ_correlation(np.array([[1.0, 2.0, 3.0]]),
                               np.array([[4.0, 5.0, 6.0]]))
        assert out.shape == (1, 3)
        assert np.array_equal(out, [[32.0, 29.0, 29.0]])

    def test_fft_block_matches_definition(self, rng):
        a, b = rng.normal(size=(2, 40, 50))
        ref = circ_correlation(a, b)
        fast = circ_correlation_fft(a, b)
        assert fast.shape == ref.shape
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(ref - fast) / scale) < 1e-4

    @pytest.mark.parametrize("kernel", [circ_correlation, circ_convolution,
                                        circ_correlation_fft])
    @pytest.mark.parametrize("shapes", [((2, 3), (3, 3)), ((2, 3), (2, 4)),
                                        ((3,), (1, 3)), ((2, 2, 3), (2, 2, 3))])
    def test_unequal_or_three_dimensional_rejected(self, kernel, shapes):
        with pytest.raises(TwoViewError):
            kernel(np.zeros(shapes[0]), np.zeros(shapes[1]))


class TestAffineTanh:
    def test_zero_map(self):
        m = AffineMap(np.zeros((3, 4)), np.zeros(3))
        assert np.array_equal(affine_tanh(m, np.ones(4)), np.zeros(3))

    def test_identity_scalar(self):
        m = AffineMap(np.eye(1), np.zeros(1))
        out = affine_tanh(m, np.array([0.5]))
        assert abs(out[0] - math.tanh(0.5)) < 1e-12
        assert abs(out[0] - 0.46211715726000974) < 1e-12

    def test_output_strictly_inside_unit_box(self, rng):
        m = AffineMap(rng.normal(size=(5, 9)) * 10, rng.normal(size=5) * 10)
        out = affine_tanh(m, rng.normal(size=9) * 10)
        assert np.all(np.abs(out) < 1.0)

    def test_batch_matches_single(self, rng):
        m = AffineMap(rng.normal(size=(3, 6)), rng.normal(size=3))
        xs = rng.normal(size=(4, 6))
        batch = affine_tanh(m, xs)
        for i in range(4):
            assert np.allclose(batch[i], affine_tanh(m, xs[i]), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_in, d_out", [(300, 50), (50, 50)])
    def test_block_rows_equal_single_calls_bitwise(self, rng, dtype, d_in, d_out):
        """CT (300 -> 50) and HA (50 -> 50) shapes: each row of a block of
        gathered rows, and a one-row block, equals the 1-D call bitwise."""
        m = AffineMap(init_orthogonal(d_out, d_in, rng, dtype),
                      (0.1 * rng.normal(size=d_out)).astype(dtype))
        table = init_unit_sphere(40, d_in, rng, dtype)
        rows = rng.integers(0, 40, size=25)
        block = affine_tanh(m, table[rows])
        single = np.stack([affine_tanh(m, table[i]) for i in rows])
        assert block.dtype == single.dtype == dtype
        assert block.tobytes() == single.tobytes()
        assert affine_tanh(m, table[rows[:1]]).tobytes() == single[:1].tobytes()

    def test_dim_mismatch(self):
        m = AffineMap(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(TwoViewError):
            affine_tanh(m, np.zeros(5))


class TestAffineTanhPinv:
    def test_identity_map_inverts(self, rng):
        m = AffineMap(np.eye(6), np.zeros(6))
        x = np.clip(rng.normal(size=6), -2.9, 2.9)
        y = affine_tanh(m, x)
        assert np.max(np.abs(affine_tanh_pinv(m, y) - x)) < 1e-4

    def test_clamp_keeps_saturated_targets_finite(self):
        m = AffineMap(np.eye(2), np.zeros(2))
        out = affine_tanh_pinv(m, np.array([1.0, -1.0]))
        assert np.all(np.isfinite(out))

    def test_minimum_norm_preimage_vs_lstsq(self):
        rng = np.random.default_rng(3)
        w = init_orthogonal(50, 300, rng, dtype=np.float64)
        m = AffineMap(w, rng.normal(size=50) * 0.1)
        x = rng.normal(size=300)
        y = affine_tanh(m, x)
        pre = affine_tanh_pinv(m, y)
        # the image round-trips
        assert np.max(np.abs(affine_tanh(m, pre) - y)) < 1e-4
        # and equals an independent least-squares solve of W z = artanh(y) - b
        z = np.arctanh(np.clip(y, -1 + 1e-6, 1 - 1e-6)) - m.b
        lstsq = np.linalg.lstsq(w, z, rcond=None)[0]
        assert np.max(np.abs(pre - lstsq)) < 1e-8
        # minimum-norm: no shorter preimage exists among perturbations in
        # the null space direction of the residual x - pre
        assert np.linalg.norm(pre) <= np.linalg.norm(x) + 1e-9

    @pytest.mark.parametrize("shape", [(50, 300), (16, 50), (8, 8)])
    def test_float64_preimage_equals_numpy_pinv_bitwise(self, shape):
        """relquery inverts a 64-bit copy of the map: its preimages are the
        bytes ``np.linalg.pinv`` gives, also when W has a zero row."""
        rng = np.random.default_rng(5)
        w = rng.normal(size=shape)
        w[1] = 0.0
        m = AffineMap(w, rng.normal(size=shape[0]) * 0.1)
        y = np.tanh(rng.normal(size=(3, shape[0])))
        z = np.arctanh(np.clip(y, -1 + 1e-6, 1 - 1e-6)) - m.b
        assert np.array_equal(affine_tanh_pinv(m, y), z @ np.linalg.pinv(w).T)

    def test_rank_deficient_float32_map_warns_with_finite_condition(self, caplog):
        w = np.eye(3, dtype=np.float32)
        w[1] = 0.0
        m = AffineMap(w, np.zeros(3, np.float32))
        with warnings.catch_warnings(), \
                caplog.at_level(logging.WARNING, logger="twoview.tensor_ops"):
            warnings.simplefilter("error", RuntimeWarning)
            pre = affine_tanh_pinv(m, np.full((2, 3), 0.5, np.float32))
        assert pre.shape == (2, 3) and pre[:, 1].tolist() == [0.0, 0.0]
        (msg,) = [r.getMessage() for r in caplog.records]
        assert "rank-deficient" in msg and "inf" not in msg


def project_unit_norm(v):
    """One vector projected through the row form."""
    table = np.array([v])
    project_rows_unit_norm(table, [0])
    return table[0]


class TestProjectUnitNorm:
    def test_three_four_five(self):
        assert np.allclose(project_unit_norm(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_idempotent(self, rng):
        v = rng.normal(size=9)
        p = project_unit_norm(v)
        assert np.max(np.abs(project_unit_norm(p) - p)) < 1e-7

    def test_tiny_vector_no_underflow(self):
        out = project_unit_norm(np.array([1e-30, 0.0]))
        assert np.allclose(out, [1.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(TwoViewError):
            project_unit_norm(np.zeros(3))

    def test_row_projection_touches_only_selected(self, rng):
        table = rng.normal(size=(5, 4)).astype(np.float32)
        before = table.copy()
        project_rows_unit_norm(table, [1, 3])
        assert np.array_equal(table[0], before[0])
        assert np.array_equal(table[2], before[2])
        assert np.array_equal(table[4], before[4])
        assert abs(np.linalg.norm(table[1].astype(np.float64)) - 1) < 1e-6


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        point = np.array([1.0, 2.0])
        err = finite_diff_check(lambda x: float(x @ x), 2 * point, point)
        assert err < 1e-8

    def test_tanh_sum(self, rng):
        point = rng.normal(size=6)
        grad = 1.0 / np.cosh(point) ** 2
        err = finite_diff_check(lambda x: float(np.sum(np.tanh(x))), grad, point)
        assert err < 1e-6

    def test_wrong_gradient_flagged(self):
        point = np.array([0.7, -1.3])
        err = finite_diff_check(lambda x: float(x @ x), 4 * point, point)
        assert abs(err - 1.0 / 3.0) < 1e-3
        assert err > 1e-4

    def test_nonfinite_loss_rejected(self):
        with pytest.raises(TwoViewError):
            finite_diff_check(lambda x: float("nan"), np.zeros(2), np.zeros(2))

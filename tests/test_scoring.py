import numpy as np
import pytest

from twoview.diagnostics import check_scorer_gradients
from twoview.errors import TwoViewError
from twoview.scoring import (ScorerKind, score, score_all_heads,
                             score_all_tails, score_grads, sq_norms)


class TestScore:
    def test_translational_exact_translation_is_zero(self, rng):
        h, r = rng.normal(size=5), rng.normal(size=5)
        assert score(ScorerKind.TRANSLATIONAL, h, r, h + r) == 0.0

    def test_translational_nonpositive(self, rng):
        for _ in range(20):
            h, r, t = (rng.normal(size=4) for _ in range(3))
            assert score(ScorerKind.TRANSLATIONAL, h, r, t) <= 0.0

    def test_multiplicative_all_ones_relation_is_dot(self, rng):
        h, t = rng.normal(size=6), rng.normal(size=6)
        got = score(ScorerKind.MULTIPLICATIVE, h, np.ones(6), t)
        assert abs(got - float(h @ t)) < 1e-12

    def test_correlational_hand_value(self):
        got = score(ScorerKind.CORRELATIONAL, np.array([1.0, 2.0, 3.0]),
                    np.array([1.0, 0.0, 0.0]), np.array([4.0, 5.0, 6.0]))
        assert got == 32.0

    def test_dimension_mismatch(self):
        with pytest.raises(TwoViewError):
            score(ScorerKind.TRANSLATIONAL, np.zeros(3), np.zeros(3), np.zeros(4))


class TestScoreProperties:
    def test_multiplicative_symmetry(self, rng):
        for _ in range(10):
            h, r, t = (rng.normal(size=5) for _ in range(3))
            assert score(ScorerKind.MULTIPLICATIVE, h, r, t) == \
                score(ScorerKind.MULTIPLICATIVE, t, r, h)

    def test_correlational_asymmetry(self):
        rng = np.random.default_rng(4)
        h, r, t = (rng.normal(size=4) for _ in range(3))
        assert score(ScorerKind.CORRELATIONAL, h, r, t) != \
            score(ScorerKind.CORRELATIONAL, t, r, h)

    def test_translational_shift_invariance(self, rng):
        h, r, t, v = (rng.normal(size=6) for _ in range(4))
        a = score(ScorerKind.TRANSLATIONAL, h + v, r, t + v)
        b = score(ScorerKind.TRANSLATIONAL, h, r, t)
        assert abs(a - b) < 1e-5


class TestScoreGrads:
    def test_translational_zero_subgradient(self, rng):
        h, r = rng.normal(size=5), rng.normal(size=5)
        gh, gr, gt = score_grads(ScorerKind.TRANSLATIONAL, h, r, h + r)
        assert not gh.any() and not gr.any() and not gt.any()

    def test_multiplicative_symmetric_point(self):
        ones = np.ones(2)
        gh, gr, gt = score_grads(ScorerKind.MULTIPLICATIVE, ones, ones, ones)
        for g in (gh, gr, gt):
            assert np.array_equal(g, ones)

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_finite_difference_gate(self, kind):
        assert check_scorer_gradients(kind, n_probes=100, d=8, seed=0) < 1e-4

    def test_correlational_probe_d6(self):
        assert check_scorer_gradients(ScorerKind.CORRELATIONAL, n_probes=10,
                                      d=6, seed=2) < 1e-4


class TestVectorizedScoring:
    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_all_tails_matches_scalar(self, kind, rng):
        h, r = rng.normal(size=6), rng.normal(size=6)
        tails = rng.normal(size=(9, 6))
        vec = score_all_tails(kind, h, r, tails)
        for i in range(9):
            assert abs(vec[i] - score(kind, h, r, tails[i])) < 1e-9

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_all_heads_matches_scalar(self, kind, rng):
        r, t = rng.normal(size=6), rng.normal(size=6)
        heads = rng.normal(size=(9, 6))
        vec = score_all_heads(kind, heads, r, t)
        for i in range(9):
            assert abs(vec[i] - score(kind, heads[i], r, t)) < 1e-9

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_query_block_matches_scalar(self, kind, rng):
        h, r, t = (rng.normal(size=(4, 6)) for _ in range(3))
        table = rng.normal(size=(9, 6))
        tails = score_all_tails(kind, h, r, table)
        heads = score_all_heads(kind, table, r, t)
        assert tails.shape == heads.shape == (4, 9)
        for i in range(4):
            for j in range(9):
                assert abs(tails[i, j] - score(kind, h[i], r[i], table[j])) < 1e-9
                assert abs(heads[i, j] - score(kind, table[j], r[i], t[i])) < 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_passed_table_norms_give_same_bits(self, kind, dtype, rng):
        h, r, t = (rng.normal(size=(4, 6)).astype(dtype) for _ in range(3))
        table = rng.normal(size=(9, 6)).astype(dtype)
        table_sq = sq_norms(table)
        for with_sq, without in (
                (score_all_tails(kind, h, r, table, table_sq),
                 score_all_tails(kind, h, r, table)),
                (score_all_heads(kind, table, r, t, table_sq),
                 score_all_heads(kind, table, r, t)),
                (score_all_tails(kind, h[0], r[0], table, table_sq),
                 score_all_tails(kind, h[0], r[0], table))):
            assert with_sq.dtype == without.dtype == dtype
            assert with_sq.tobytes() == without.tobytes()


class TestBlockScores:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", [ScorerKind.TRANSLATIONAL,
                                      ScorerKind.MULTIPLICATIVE])
    def test_rows_equal_one_dimensional_score_bitwise(self, kind, dtype):
        """Eval re-scores in-window candidates as gathered blocks and its
        ranks must equal ``rank_candidates`` over 1-D ``score``: a numpy or
        BLAS change that rounds a block row differently fails here instead
        of silently moving a rank."""
        rng = np.random.default_rng(11)
        for d in (7, 50, 100, 128, 300, 301, 1000):
            table = rng.normal(size=(400, d)).astype(dtype)
            h, r, t = (table[rng.integers(400, size=300)] for _ in range(3))
            block = score(kind, h, r, t)
            assert block.shape == (300,) and block.dtype == dtype
            rows = [score(kind, *v) for v in zip(h, r, t)]
            assert block.tolist() == rows, d

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_correlational_rows_equal_one_dimensional_score_bitwise(self, dtype):
        """HolE blocks run one windowed correlation per block; each row must
        still equal the 1-D ``score`` of that row, and its gradients the 1-D
        ``score_grads``."""
        rng = np.random.default_rng(12)
        for d in (1, 2, 7, 50, 100, 128, 300, 301):
            table = rng.normal(size=(400, d)).astype(dtype)
            h, r, t = (table[rng.integers(400, size=100)] for _ in range(3))
            block = score(ScorerKind.CORRELATIONAL, h, r, t)
            assert block.shape == (100,) and block.dtype == dtype
            rows = [score(ScorerKind.CORRELATIONAL, *v) for v in zip(h, r, t)]
            assert block.tolist() == rows, d
            grads = score_grads(ScorerKind.CORRELATIONAL, h, r, t)
            for i in (0, 57, 99):
                one = score_grads(ScorerKind.CORRELATIONAL, h[i], r[i], t[i])
                assert all(np.array_equal(g[i], g1) for g, g1 in zip(grads, one)), d

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_block_grads_equal_rows(self, kind, rng):
        h, r, t = (rng.normal(size=(5, 6)) for _ in range(3))
        t[2] = h[2] + r[2]     # an exact translation: zero subgradient
        block = score_grads(kind, h, r, t)
        for i in range(5):
            for b, g in zip(block, score_grads(kind, h[i], r[i], t[i])):
                assert np.array_equal(b[i], g)

    def test_block_shape_mismatch(self):
        with pytest.raises(TwoViewError):
            score(ScorerKind.TRANSLATIONAL, np.zeros((2, 3)), np.zeros((2, 3)),
                  np.zeros((3, 3)))

import hashlib
import math

import numpy as np
import pytest

from twoview import objectives, training
from twoview.dataio import prepare_splits
from twoview.diagnostics import (check_cross_gradients, check_intra_gradients,
                                 _intra_probe, _pair_probe, _random_params)
from twoview.errors import ConfigError, TwoViewError
from twoview.kb import (CrossLinkStore, HierarchyStore, SplitSpec, Triple,
                        TripleStore, extract_hierarchy)
from twoview.model import ModelConfig, ModelParams
from twoview.objectives import (GradAccum, LossWeights, Margins, PairBatch,
                                TripleBatch, cg_loss, combine_intra,
                                combine_total, ct_loss, ha_loss,
                                intra_hinge_loss, loss_value,
                                sample_negative_concept, sample_negative_triple)
from twoview.scoring import ScorerKind
from twoview.synth import SUBCLASS, planted_kb
from twoview.tensor_ops import affine_tanh
from twoview.training import OptimizerState, TrainConfig, amsgrad_step, train_epoch

import reference_losses


class TestSampleNegativeTriple:
    def test_excludes_positive(self, rng):
        store = TripleStore([Triple(0, 0, 1)])
        for _ in range(200):
            neg = sample_negative_triple(Triple(0, 0, 1), store, 3, rng)
            assert neg not in store

    def test_tail_corruption_candidates(self):
        # with the tail side chosen, only tails {a, c} (ids 0, 2) are valid
        store = TripleStore([Triple(0, 0, 1)])
        seen = set()
        rng = np.random.default_rng(1)
        for _ in range(300):
            neg = sample_negative_triple(Triple(0, 0, 1), store, 3, rng)
            if neg.head == 0:  # tail was corrupted
                seen.add(neg.tail)
                assert neg.tail in (0, 2)
        assert seen == {0, 2}

    def test_untouched_slot_preserved(self, rng):
        store = TripleStore([Triple(0, 1, 1)])
        for _ in range(100):
            neg = sample_negative_triple(Triple(0, 1, 1), store, 4, rng)
            assert neg.relation == 1
            assert neg.head == 0 or neg.tail == 1

    def test_head_corruption_fraction(self):
        rng = np.random.default_rng(7)
        store = TripleStore([Triple(0, 0, 1)])
        heads = 0
        n = 10_000
        for _ in range(n):
            neg = sample_negative_triple(Triple(0, 0, 1), store, 50, rng)
            heads += neg.tail == 1 and neg.head != 0
        assert abs(heads / n - 0.5) < 0.02

    def test_saturation_counted(self):
        # every possible triple over two nodes exists: no negative can be found
        store = TripleStore(Triple(h, 0, t) for h in range(2) for t in range(2))
        stats = {}
        neg = sample_negative_triple(Triple(0, 0, 1), store, 2,
                                     np.random.default_rng(0), stats)
        assert stats["negative_saturation"] == 1
        assert neg in store  # gave up and returned the last candidate


class TestSampleNegativeConcept:
    def test_only_unlinked_concept_returned(self, rng):
        # entity 0 is linked to every concept except id 4
        links = CrossLinkStore((0, c) for c in range(4))
        for _ in range(50):
            assert sample_negative_concept(0, 1, links, 5, rng) == 4

    def test_never_in_store(self, rng):
        links = CrossLinkStore([(0, 1), (0, 2), (1, 0)])
        for _ in range(500):
            c = sample_negative_concept(0, 1, links, 6, rng)
            assert (0, c) not in links

    def test_uniform_over_valid(self):
        links = CrossLinkStore([(0, 0)])
        rng = np.random.default_rng(3)
        counts = np.zeros(10)
        n = 10_000
        for _ in range(n):
            counts[sample_negative_concept(0, 0, links, 10, rng)] += 1
        assert counts[0] == 0
        # Pearson's chi-square against uniform; its survival function at 8
        # degrees of freedom is exp(-x/2) sum_{i<4} (x/2)^i / i!, exactly
        expected = n / 9
        half = float(((counts[1:] - expected) ** 2).sum() / expected) / 2
        p = math.exp(-half) * sum(half ** i / math.factorial(i) for i in range(4))
        assert p > 0.01

    def test_serves_hierarchy_store(self, rng):
        hier = HierarchyStore([(0, 1), (0, 2)])
        for _ in range(100):
            c = sample_negative_concept(0, 1, hier, 4, rng)
            assert (0, c) not in hier


def _params_for_view(dim=4, n=4):
    rng = np.random.default_rng(0)
    return _random_params(rng, n_e=n, n_r=3, n_c=n, n_m=3, d_e=dim, d_c=dim)


class TestIntraHingeLoss:
    def test_satisfied_margin_gives_zero(self):
        params = _params_for_view()
        # make the positive score hugely better: t == h + r is impossible on
        # the sphere, so place explicit rows instead
        params.entities[0] = np.array([1.0, 0, 0, 0])
        params.relations[0] = np.array([0.0, 1, 0, 0])
        params.entities[1] = params.entities[0] + params.relations[0]
        params.entities[2] = -10 * np.ones(4)
        batch = TripleBatch([Triple(0, 0, 1)], [Triple(0, 0, 2)])
        loss, grads = intra_hinge_loss(ScorerKind.TRANSLATIONAL, batch, 0.5,
                                       params, "instance")
        assert loss == 0.0
        assert not grads.blocks

    def test_equal_scores_give_margin(self):
        params = _params_for_view()
        batch = TripleBatch([Triple(0, 0, 1)], [Triple(0, 0, 1)])
        loss, _ = intra_hinge_loss(ScorerKind.MULTIPLICATIVE, batch, 0.5,
                                   params, "instance")
        assert abs(loss - 0.5) < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(TwoViewError):
            intra_hinge_loss(ScorerKind.TRANSLATIONAL, TripleBatch([], []),
                             0.5, _params_for_view(), "instance")

    def test_gradient_locality(self):
        params = _params_for_view(n=6)
        batch = TripleBatch([Triple(0, 0, 1)], [Triple(0, 0, 2)])
        _, grads = intra_hinge_loss(ScorerKind.TRANSLATIONAL, batch, 5.0,
                                    params, "instance")
        touched = {key for key in grads.rows}
        assert touched <= {("entities", 0), ("entities", 1), ("entities", 2),
                           ("relations", 0)}

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_gradient_gate(self, kind):
        assert check_intra_gradients(kind, n_probes=50, seed=0) < 1e-4


class TestCgLoss:
    def _params(self):
        params = _params_for_view()
        return params

    def test_coincident_pair_zero_plain(self):
        params = self._params()
        params.concepts[0] = params.entities[0].copy()
        loss, grads = cg_loss(PairBatch([(0, 0)]), 0.5, params)
        assert loss == 0.0 and not grads.blocks

    def test_plain_arithmetic(self):
        params = self._params()
        params.entities[0] = np.zeros(4)
        params.concepts[0] = np.array([1.5, 0, 0, 0])
        loss, _ = cg_loss(PairBatch([(0, 0)]), 0.5, params)
        assert abs(loss - 1.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        params = _random_params(rng, d_e=6, d_c=4)
        with pytest.raises(ConfigError):
            cg_loss(PairBatch([(0, 0)]), 0.5, params)

    def test_gradient_gate_both_modes(self):
        assert check_cross_gradients("cg-plain", n_probes=50, seed=0) < 1e-4
        assert check_cross_gradients("cg-sampled", n_probes=50, seed=0) < 1e-4


class TestCtLoss:
    def test_perfect_projection_distant_negative(self):
        rng = np.random.default_rng(2)
        params = _random_params(rng, with_ct=True)
        proj = affine_tanh(params.ct_map, params.entities[0])
        params.concepts[0] = proj.copy()
        params.concepts[1] = proj + 10.0
        loss, _ = ct_loss(PairBatch([(0, 0)], [1]), 0.5, params)
        assert loss == 0.0

    def test_identical_negative_gives_margin(self):
        rng = np.random.default_rng(2)
        params = _random_params(rng, with_ct=True)
        loss, _ = ct_loss(PairBatch([(0, 0)], [0]), 0.7, params)
        assert abs(loss - 0.7) < 1e-12

    def test_gradient_gate_includes_map(self):
        assert check_cross_gradients("ct", n_probes=50, seed=0) < 1e-4

    def test_missing_map_rejected(self):
        params = _params_for_view()
        with pytest.raises(ConfigError):
            ct_loss(PairBatch([(0, 0)], [1]), 0.5, params)


class TestHaLoss:
    def test_identical_negative_gives_margin(self):
        rng = np.random.default_rng(2)
        params = _random_params(rng, with_ha=True)
        loss, _ = ha_loss(PairBatch([(0, 1)], [1]), 0.4, params)
        assert abs(loss - 0.4) < 1e-12

    def test_gradient_gate_includes_map(self):
        assert check_cross_gradients("ha", n_probes=50, seed=0) < 1e-4


class TestCombine:
    def test_weighted_sum(self):
        w = LossWeights(alpha1=2.5, alpha2=1.0)
        assert combine_intra(1.0, 2.0, None, w, ha_mode=False) == 6.0

    def test_zero_terms(self):
        w = LossWeights(alpha1=1.0, alpha2=1.0)
        assert combine_intra(0.0, 0.0, 0.0, w, ha_mode=True) == 0.0

    def test_ha_term(self):
        w = LossWeights(alpha1=1.0, alpha2=1.0)
        assert combine_intra(0.0, 0.0, 3.0, w, ha_mode=True) == 3.0

    def test_ha_mode_mismatch_rejected(self):
        w = LossWeights()
        with pytest.raises(ConfigError):
            combine_intra(0.0, 0.0, None, w, ha_mode=True)
        with pytest.raises(ConfigError):
            combine_intra(0.0, 0.0, 1.0, w, ha_mode=False)

    def test_total(self):
        assert combine_total(2.0, 3.0, 1.0) == 5.0
        assert combine_total(0.0, 4.0, 0.5) == 2.0


class TestMarginsAndWeights:
    def test_margin_defaults_by_kind(self):
        assert Margins.defaults_for(ScorerKind.TRANSLATIONAL).instance == 0.5
        assert Margins.defaults_for(ScorerKind.MULTIPLICATIVE).instance == 1.0
        assert Margins.defaults_for(ScorerKind.CORRELATIONAL).cross == 1.0

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError):
            Margins(instance=-0.1)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(alpha1=0.0)


class TestGradAccum:
    def test_accumulates_rows_and_maps(self):
        g = GradAccum()
        g.add_rows("entities", [0], np.ones((1, 3)))
        g.add_rows("entities", [0], np.ones((1, 3)))
        assert np.array_equal(g.rows[("entities", 0)], 2 * np.ones(3))
        g.add_rows("ct_W", ..., np.ones((2, 2)))
        g.add_rows("ct_W", ..., np.ones((2, 2)))
        assert g.blocks["ct_W"][0] is ...
        assert np.array_equal(g.blocks["ct_W"][1], 2 * np.ones((2, 2)))
        assert list(g.rows) == [("entities", 0)]

    def test_scale_and_merge(self):
        g = GradAccum()
        g.add_rows("concepts", [1], np.ones((1, 2)))
        g.scale(0.5)
        # a later gradient for the same row adds onto the scaled one
        g.add_rows("concepts", [1], np.ones((1, 2)))
        assert np.array_equal(g.rows[("concepts", 1)], 1.5 * np.ones(2))


class TestLossNonnegativityProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_losses_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(rng, with_ct=True, with_ha=True)
        batch = TripleBatch(
            [Triple(int(rng.integers(6)), int(rng.integers(4)),
                    int(rng.integers(6))) for _ in range(4)],
            [Triple(int(rng.integers(6)), int(rng.integers(4)),
                    int(rng.integers(6))) for _ in range(4)])
        for kind in ScorerKind:
            loss, _ = intra_hinge_loss(kind, batch, 0.5, params, "instance")
            assert loss >= 0.0
        pairs = PairBatch([(int(rng.integers(6)), int(rng.integers(6)))
                           for _ in range(4)],
                          [int(rng.integers(6)) for _ in range(4)])
        assert cg_loss(pairs, 0.5, params)[0] >= 0.0
        assert cg_loss(PairBatch(pairs.pos), 0.5, params)[0] >= 0.0
        assert ct_loss(pairs, 0.5, params)[0] >= 0.0
        concept_pairs = PairBatch(
            [(int(rng.integers(6)), int(rng.integers(6))) for _ in range(4)],
            [int(rng.integers(6)) for _ in range(4)])
        assert ha_loss(concept_pairs, 0.5, params)[0] >= 0.0


class TestMerge:
    def test_repeats_summed_in_first_occurrence_order(self):
        g = GradAccum()
        rows = np.arange(12.0).reshape(6, 2)
        g.add_rows("entities", [4, 1, 4, 7, 1, 4], rows.copy())
        ids, block = g.blocks["entities"]
        assert ids.tolist() == [4, 1, 7]
        assert np.array_equal(block, [rows[[0, 2, 5]].sum(axis=0),
                                      rows[[1, 4]].sum(axis=0), rows[3]])
        assert list(g.rows) == [("entities", 4), ("entities", 1), ("entities", 7)]
        g.rows[("entities", 1)][:] = -1.0    # rows are views into the block
        assert np.array_equal(g.blocks["entities"][1][1], [-1.0, -1.0])

    def test_many_repeats_of_one_id(self):
        g = GradAccum()
        rows = np.random.default_rng(0).normal(size=(37, 3))
        g.add_rows("relations", [5] * 37, rows.copy())
        ids, block = g.blocks["relations"]
        assert ids.tolist() == [5]
        assert np.allclose(block[0], rows.sum(axis=0), rtol=1e-13)

    def test_repeated_rows_summed_in_occurrence_order(self):
        """((g0 + g1) + g2) + g3: 1 here, where the pairwise sum
        (g0 + g1) + (g2 + g3) is 0."""
        g = GradAccum()
        g.add_rows("entities", [3, 3, 3, 3], np.array([[1e16], [1.0], [-1e16], [1.0]]))
        assert g.blocks["entities"][1].tolist() == [[1.0]]

    @staticmethod
    def _assert_sequential_fold(ids, rows):
        """The merged block equals, bitwise, each distinct id's rows added
        one at a time in occurrence order, ids in first-occurrence order."""
        sums = {}
        for i, row in zip(ids.tolist(), rows):
            if i in sums:
                sums[i] += row
            else:
                sums[i] = row.copy()
        g = GradAccum()
        g.add_rows("entities", ids, rows)
        merged_ids, block = g.blocks["entities"]
        assert merged_ids.tolist() == list(sums)
        assert block.dtype == rows.dtype
        assert block.tobytes() == np.array(list(sums.values())).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_instance_block_shape(self, dtype):
        """2,048 x 300 rows, about 43% of them repeated ids."""
        rng = np.random.default_rng(5)
        ids = rng.integers(1630, size=2048)
        assert 0.40 < 1 - len(np.unique(ids)) / len(ids) < 0.46
        self._assert_sequential_fold(ids, rng.normal(size=(2048, 300)).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relation_block_shape(self, dtype):
        """1,024 x 300 rows over 34 Zipf-drawn ids, one of them 150+ times."""
        rng = np.random.default_rng(6)
        p = 1.0 / np.arange(1, 35)
        ids = rng.choice(34, size=1024, p=p / p.sum())
        assert np.bincount(ids).max() >= 150
        self._assert_sequential_fold(ids, rng.normal(size=(1024, 300)).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_six_row_block(self, dtype):
        rows = np.random.default_rng(7).normal(size=(6, 5)).astype(dtype)
        self._assert_sequential_fold(np.array([2, 9, 2, 2, 5, 9]), rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_rows(self, dtype):
        rng = np.random.default_rng(8)
        wide = rng.normal(size=(512, 400)).astype(dtype)
        ids = rng.integers(200, size=512)
        for rows in (wide[:, 50:350], np.asfortranarray(wide)[:, ::2]):
            assert not rows.flags.c_contiguous
            self._assert_sequential_fold(ids, rows)


class TestBatchIdTypes:
    """Batches of Triples, plain tuples or np.int64 tuples give the same
    loss and the same gradient bytes."""

    @staticmethod
    def _assert_same(result, other):
        (loss, grads), (other_loss, other_grads) = result, other
        assert loss == other_loss and grads.blocks
        assert grads.blocks.keys() == other_grads.blocks.keys()
        for name, (ids, block) in grads.blocks.items():
            other_ids, other_block = other_grads.blocks[name]
            if ids is not ...:                  # a table's rows, not a dense map block
                assert ids.tolist() == other_ids.tolist(), name
            assert block.tobytes() == other_block.tobytes(), name

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_intra_loss(self, kind):
        rng = np.random.default_rng(9)
        params = _random_params(rng)
        sides = rng.integers([6, 4, 6], size=(2, 16, 3))
        batches = [TripleBatch(*([make(t) for t in side] for side in sides))
                   for make in (lambda t: Triple(*t.tolist()),
                                lambda t: tuple(t.tolist()),
                                lambda t: tuple(np.int64(x) for x in t))]
        results = [intra_hinge_loss(kind, b, 1.0, params, "instance") for b in batches]
        for other in results[1:]:
            self._assert_same(results[0], other)

    def test_pair_losses(self):
        rng = np.random.default_rng(10)
        params = _random_params(rng, with_ct=True, with_ha=True)
        pos, neg = rng.integers(6, size=(16, 2)), rng.integers(6, size=16)
        plain = PairBatch([tuple(p.tolist()) for p in pos], neg.tolist())
        numpy_ints = PairBatch([tuple(np.int64(x) for x in p) for p in pos],
                               [np.int64(c) for c in neg])
        for loss in (lambda b: cg_loss(b, 0.5, params),
                     lambda b: cg_loss(PairBatch(b.pos), 0.5, params),
                     lambda b: ct_loss(b, 0.5, params),
                     lambda b: ha_loss(b, 0.5, params)):
            self._assert_same(loss(plain), loss(numpy_ints))

    def test_empty_batches_rejected(self):
        params = _random_params(np.random.default_rng(0), with_ct=True, with_ha=True)
        empty = TripleBatch([], [])
        for call in (lambda: intra_hinge_loss(ScorerKind.TRANSLATIONAL, empty, 0.5,
                                              params, "instance"),
                     lambda: cg_loss(PairBatch([]), 0.5, params),
                     lambda: ct_loss(PairBatch([], []), 0.5, params),
                     lambda: ha_loss(PairBatch([], []), 0.5, params)):
            with pytest.raises(TwoViewError, match="batch is empty"):
                call()


class TestIdGate:
    """Loss batches read their ids through the stores' gate, so a float or
    negative id raises ``TwoViewError`` before any loss or update runs.
    Once, a -1 head in an active intra pair updated the last entity row."""

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_every_loss_and_a_store(self, bad):
        params = _random_params(np.random.default_rng(0), with_ct=True, with_ha=True)
        before, state = params.copy(), OptimizerState.init(params)

        def step(loss, *args):
            amsgrad_step(params, state, loss(*args, 10.0, params)[1], 0.1)

        def intra(batch, margin, params):
            return intra_hinge_loss(ScorerKind.TRANSLATIONAL, batch, margin, params,
                                    "instance")
        for call in (lambda: step(intra, TripleBatch([(bad, 0, 1)], [(2, 0, 1)])),
                     lambda: step(intra, TripleBatch([(2, 0, 1)], [(0, 0, bad)])),
                     lambda: step(cg_loss, PairBatch([(bad, 0)])),
                     lambda: step(cg_loss, PairBatch([(0, 1)], [bad])),
                     lambda: step(ct_loss, PairBatch([(0, bad)], [1])),
                     lambda: step(ct_loss, PairBatch([(0, 1)], [bad])),
                     lambda: step(ha_loss, PairBatch([(bad, 1)], [2])),
                     lambda: step(ha_loss, PairBatch([(0, 1)], [bad])),
                     lambda: TripleStore([(bad, 0, 1)]),
                     lambda: CrossLinkStore([(0, bad)])):
            with pytest.raises(TwoViewError, match="non-negative integer ids"):
                call()
        assert state.step == 0
        for (name, a), (_, b) in zip(params.blocks(), before.blocks()):
            assert a.tobytes() == b.tobytes(), name

    def test_pull_only_cg_only_without_negatives(self):
        """``cg_loss`` reads its form off the batch; CT and HA need negatives."""
        params = _random_params(np.random.default_rng(1), with_ct=True, with_ha=True)
        pos = [(0, 1), (2, 3)]
        plain = cg_loss(PairBatch(pos), 0.1, params)[0]
        assert plain == loss_value(cg_loss, PairBatch(pos), 0.1, params)
        assert plain != cg_loss(PairBatch(pos, [4, 5]), 0.1, params)[0]
        for loss in (ct_loss, ha_loss):
            with pytest.raises(TwoViewError, match="requires negative concepts"):
                loss(PairBatch(pos), 0.1, params)


def _loss_cases(params, triples, pairs, margin):
    """(loss, args) for the intra loss under every scorer and view, both CG
    modes, CT and HA; ``triples`` and ``pairs`` map a family to its batch."""
    for kind in ScorerKind:
        for view in ("instance", "ontology"):
            yield intra_hinge_loss, (kind, triples(kind), margin, params, view)
    yield cg_loss, (PairBatch(pairs("cg-plain").pos), margin, params)
    yield cg_loss, (pairs("cg-sampled"), margin, params)
    yield ct_loss, (pairs("ct"), margin, params)
    yield ha_loss, (pairs("ha"), margin, params)


class TestValuePath:
    """The gradient checks difference ``loss_value``, so it must give the
    public loss's value bitwise."""

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_public_loss_on_probe_batches(self, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(rng, with_ct=True, with_ha=True)
        for loss, args in _loss_cases(
                params, lambda kind: _intra_probe(kind, params, rng),
                lambda mode: _pair_probe(params, rng, mode), 0.5):
            assert loss_value(loss, *args) == loss(*args)[0]

    def test_equals_public_loss_on_float32_training_batch(self):
        rng = np.random.default_rng(4)
        config = ModelConfig.from_variant("HAHolE-CT", 32, 32)
        params = ModelParams.init(config, 300, 20, 60, 8, rng)
        n = 512
        nodes, edges = rng.integers(60, size=(2, n, 2)), rng.integers(8, size=n)
        triples = TripleBatch([Triple(h, r, t) for (h, t), r in
                               zip(nodes[0].tolist(), edges.tolist())],
                              [Triple(h, r, t) for (h, t), r in
                               zip(nodes[1].tolist(), edges.tolist())])
        pairs = PairBatch([tuple(p) for p in rng.integers(60, size=(n, 2)).tolist()],
                          rng.integers(60, size=n).tolist())
        assert params.entities.dtype == np.float32
        for loss, args in _loss_cases(params, lambda kind: triples,
                                      lambda mode: pairs, 1.0):
            value = loss(*args)[0]
            assert value > 0 and loss_value(loss, *args) == value


def _epoch_state(data, model, config, dtype=np.float64):
    """Parameters and AMSGrad state after one ``train_epoch`` from a fixed
    start."""
    params = ModelParams.init(model, len(data.entities), len(data.relations),
                              len(data.concepts), len(data.meta_relations),
                              np.random.default_rng(0), dtype=dtype)
    ontology, hierarchy = data.ontology_train, None
    if model.hierarchy_aware:
        hierarchy, ontology = extract_hierarchy(
            data.ontology_train, [SUBCLASS], data.meta_relations)
    state = OptimizerState.init(params)
    train_epoch(params, state, data, model, config, np.random.default_rng(1),
                ontology_store=ontology, hierarchy=hierarchy)
    return params, state


@pytest.mark.parametrize("variant, sampled", [
    ("HATransE-CT", True), ("HAHolE-CT", True), ("Mult-CG", True),
    ("Mult-CG", False)])
def test_batched_epoch_matches_per_pair_losses(variant, sampled, monkeypatch):
    """A whole float64 epoch with the batched losses ends where the same
    epoch with the per-pair reference losses does.  Sampling does not
    depend on the parameters, so both epochs see the same negatives."""
    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=3))
    model = ModelConfig.from_variant(variant, 12, 12 if "CG" in variant else 8)
    config = TrainConfig(epochs=1, batch_instance=128, batch_ontology=16,
                         batch_cross=64, batch_hierarchy=8, learning_rate=0.01,
                         margins=Margins.defaults_for(model.intra),
                         cross_negative_sampling=sampled)
    batched, _ = _epoch_state(data, model, config)
    for name in ("intra_hinge_loss", "cg_loss", "ct_loss", "ha_loss"):
        monkeypatch.setattr(training, name, getattr(reference_losses, name))
    oracle, _ = _epoch_state(data, model, config)
    for name in ModelParams.TABLES:
        np.testing.assert_allclose(batched.table(name), oracle.table(name),
                                   rtol=1e-6, atol=0, err_msg=name)
    for name in ("ct", "ha"):
        if getattr(oracle, f"{name}_map") is not None:
            for a, b in zip((batched.map(name).W, batched.map(name).b),
                            (oracle.map(name).W, oracle.map(name).b)):
                np.testing.assert_allclose(a, b, rtol=1e-6, atol=0, err_msg=name)


def _state_digests(params, state):
    """SHA-256 of every parameter and AMSGrad moment array, by name."""
    arrays = dict(params.blocks())
    for name, mom in state.moments.items():
        arrays.update({f"{name}.{k}": a for k, a in vars(mom).items()})
    return {k: hashlib.sha256(a.tobytes()).hexdigest() for k, a in arrays.items()}


@pytest.mark.parametrize("variant", ["TransE-CT", "HAHolE-CT"])
def test_epoch_bytes_equal_row_wise_merge_and_expression_amsgrad(variant, monkeypatch):
    """A float32 epoch with the flat 1-D ``np.add.at`` merge and the
    in-place AMSGrad ends in the same parameter and moment bytes as one with
    the row-wise merge and the one-expression update."""
    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=3))
    model = ModelConfig.from_variant(variant, 12, 8)
    config = TrainConfig(epochs=1, batch_instance=128, batch_ontology=16,
                         batch_cross=64, batch_hierarchy=8, learning_rate=0.01,
                         margins=Margins.defaults_for(model.intra))
    current = _state_digests(*_epoch_state(data, model, config, np.float32))
    monkeypatch.setattr(objectives, "_merge", reference_losses.merge)
    monkeypatch.setattr(training, "_amsgrad", reference_losses.amsgrad)
    assert current == _state_digests(*_epoch_state(data, model, config, np.float32))

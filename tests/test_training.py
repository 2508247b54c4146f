import hashlib
import sys

import numpy as np
import pytest

import reference_losses
from twoview import objectives, training
from twoview.dataio import prepare_splits
from twoview.errors import ConfigError, TwoViewError
from twoview.evaluation import triple_completion_eval
from twoview.kb import (CrossLinkStore, HierarchyStore, SplitSpec, Triple,
                        TripleStore, extract_hierarchy)
from twoview.model import ModelConfig, ModelParams, all_variants
from twoview.objectives import (GradAccum, LossWeights, Margins,
                                sample_negative_concept, sample_negative_triple)
from twoview.scoring import ScorerKind
from twoview.synth import planted_kb
from twoview.training import (OptimizerState, TrainConfig, _schedule,
                              amsgrad_step, sample_negatives, train, train_epoch)

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def small_params(seed=0, with_ct=True, dtype=np.float32):
    rng = np.random.default_rng(seed)
    config = ModelConfig(intra=ScorerKind.TRANSLATIONAL, cross="CT",
                         hierarchy_aware=False, d_e=6, d_c=4)
    return ModelParams.init(config, 8, 3, 5, 2, rng, dtype=dtype)


# SHA-256 over the name and bytes of every block of a seed-2024 init; the
# draws do not depend on the intra-view scorer
_INIT_SHA256 = {
    "CG": "9d5a638e450cb27c1c54a43ecc72d3f4740f5e4fb4f05b1ddde25fa95f363793",
    "CT": "a1732f2e6808ffe1b771b3c200b2a4acff1056848be7e097c1da28745cfd82fb",
    "HA": "99e9b09dc7f4a0a2a4782649ca44a5643bca8c381293ae2f9981580de82c6e4c",
}


def test_unknown_table_name_rejected():
    with pytest.raises(ConfigError, match="unknown parameter table 'maps'"):
        small_params().table("maps")


@pytest.mark.parametrize("variant", all_variants())
def test_init_follows_the_layout(variant):
    """``init`` draws the same bytes in the same order, its blocks have the
    layout's names and shapes, ``from_blocks`` rebuilds them and the
    optimizer keeps one set of moments per block."""
    config = ModelConfig.from_variant(variant, 6, 6 if "CG" in variant else 4)
    params = ModelParams.init(config, 5, 3, 4, 2, np.random.default_rng(2024))
    blocks = params.blocks()
    digest = hashlib.sha256()
    for name, arr in blocks:
        digest.update(name.encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == _INIT_SHA256[variant[:2] if "HA" in variant
                                              else variant[-2:]]
    rows = dict(zip(ModelParams.TABLES, (5, 3, 4, 2)))
    assert ModelParams.layout(config, rows) == [(n, a.shape) for n, a in blocks]
    again = ModelParams.from_blocks(blocks).blocks()
    assert [n for n, _ in again] == [n for n, _ in blocks]
    assert all(a is b for (_, a), (_, b) in zip(again, blocks))
    assert list(OptimizerState.init(params).moments) == [n for n, _ in blocks]


class TestAmsgradStep:
    def test_zero_gradient_is_noop(self):
        params = small_params()
        state = OptimizerState.init(params)
        before = params.entities.copy()
        grads = GradAccum()
        grads.add_rows("entities", [2], np.zeros((1, 6), dtype=np.float32))
        amsgrad_step(params, state, grads, 0.01)
        # update is exactly zero, and projection restores the unit row
        assert np.allclose(params.entities, before, atol=1e-7)

    def test_scalar_update_rule(self):
        # one relation coordinate (relations are unconstrained, so the raw
        # update is observable): theta -= lr * m / (sqrt(vhat) + eps)
        params = small_params(dtype=np.float64)
        state = OptimizerState.init(params)
        theta0 = float(params.relations[0, 0])
        g = np.zeros(6)
        g[0] = 1.0
        grads = GradAccum()
        grads.add_rows("relations", [0], g[None])
        amsgrad_step(params, state, grads, 0.01)
        m = (1 - BETA1) * 1.0
        v = (1 - BETA2) * 1.0
        expected_delta = 0.01 * m / (np.sqrt(v) + EPS)
        assert abs(expected_delta - 0.0316227) < 1e-6
        assert abs(theta0 - float(params.relations[0, 0]) - expected_delta) < 1e-12

    def test_vhat_is_monotone_max(self):
        params = small_params(dtype=np.float64)
        state = OptimizerState.init(params)
        g = np.zeros(6)
        # drive v above 0.01 with large gradients, then a small gradient
        # must leave vhat unchanged (max property)
        for _ in range(20):
            g[0] = 1.0
            grads = GradAccum()
            grads.add_rows("relations", [0], g.copy()[None])
            amsgrad_step(params, state, grads, 0.001)
        vhat_before = state.moments["relations"].vhat[0, 0].copy()
        g[0] = 0.1
        grads = GradAccum()
        grads.add_rows("relations", [0], g.copy()[None])
        amsgrad_step(params, state, grads, 0.001)
        assert state.moments["relations"].vhat[0, 0] == vhat_before
        assert state.moments["relations"].v[0, 0] < vhat_before

    def test_untouched_rows_bitwise_unchanged(self):
        params = small_params()
        state = OptimizerState.init(params)
        before_entities = params.entities.copy()
        before_relations = params.relations.copy()
        grads = GradAccum()
        grads.add_rows("entities", [3], np.ones((1, 6), dtype=np.float32))
        amsgrad_step(params, state, grads, 0.05)
        for i in range(8):
            if i != 3:
                assert np.array_equal(params.entities[i], before_entities[i])
        assert np.array_equal(params.relations, before_relations)

    def test_norm_audit_detects_missing_projection(self, monkeypatch):
        from twoview import diagnostics, training
        assert diagnostics.norm_audit() < 1e-5
        monkeypatch.setattr(training, "project_rows_unit_norm",
                            lambda arr, rows: None)
        assert diagnostics.norm_audit() > 1e-5

    def test_norm_constraint_after_steps(self):
        params = small_params()
        state = OptimizerState.init(params)
        rng = np.random.default_rng(5)
        for _ in range(200):
            grads = GradAccum()
            grads.add_rows("entities", [int(rng.integers(8))],
                           rng.normal(size=(1, 6)).astype(np.float32))
            grads.add_rows("concepts", [int(rng.integers(5))],
                           rng.normal(size=(1, 4)).astype(np.float32))
            amsgrad_step(params, state, grads, 0.01)
        for table in (params.entities, params.concepts):
            norms = np.linalg.norm(table.astype(np.float64), axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-5

    def test_nonfinite_gradient_rejected(self):
        params = small_params()
        state = OptimizerState.init(params)
        grads = GradAccum()
        grads.add_rows("entities", [0], np.full((1, 6), np.nan, dtype=np.float32))
        with pytest.raises(TwoViewError) as exc:
            amsgrad_step(params, state, grads, 0.01)
        assert "entities" in str(exc.value)

    def test_nonfinite_row_named_and_nothing_written(self):
        # the bad row sits in the second table, after a finite one
        params = small_params()
        state = OptimizerState.init(params)
        before = params.copy()
        grads = GradAccum()
        grads.add_rows("entities", [1], np.ones((1, 6), dtype=np.float32))
        for row, value in ((0, 1.0), (2, np.inf), (1, np.nan)):
            grads.add_rows("relations", [row], np.full((1, 6), value, dtype=np.float32))
        with pytest.raises(TwoViewError, match="relations row 2$"):
            amsgrad_step(params, state, grads, 0.01)
        assert np.array_equal(params.entities, before.entities)
        assert np.array_equal(params.relations, before.relations)
        assert not state.moments["entities"].m.any() and state.step == 0

    @staticmethod
    def _wide_step(seed):
        """A d_e = 300 parameter set and a gradient whose entities block
        spans several tiles (the last one short), its ids shuffled, with a
        concepts block beside it."""
        rng = np.random.default_rng(seed)
        config = ModelConfig(intra=ScorerKind.TRANSLATIONAL, cross="CT",
                             hierarchy_aware=False, d_e=300, d_c=50)
        params = ModelParams.init(config, 1500, 3, 60, 2, rng)
        grads = GradAccum()
        ids = rng.permutation(1500)[:1200]
        assert 1200 % (training.TILE_ELEMENTS // 300) and 1200 > training.TILE_ELEMENTS // 300
        grads.add_rows("entities", ids, rng.normal(size=(1200, 300)).astype(np.float32))
        grads.add_rows("concepts", rng.permutation(60)[:45],
                       rng.normal(size=(45, 50)).astype(np.float32))
        return params, grads

    def test_tiled_step_bytes_equal_one_shot_reference(self):
        """Three tiled steps leave the same parameter and moment bytes as
        the one-expression AMSGrad over each whole block followed by the
        ``np.linalg.norm`` projection."""
        params, _ = self._wide_step(0)
        ref = params.copy()
        state, ref_state = OptimizerState.init(params), OptimizerState.init(params)
        for seed, scale in ((1, 1.0), (2, 0.01), (3, 3.0)):   # vhat kept, then raised
            _, grads = self._wide_step(seed)
            for _, g in grads.blocks.values():
                g *= scale
            amsgrad_step(params, state, grads, 0.01)
            arrays = dict(ref.blocks())
            for name, (ids, g) in grads.blocks.items():
                reference_losses.amsgrad(arrays[name], ref_state.moments[name], ids, g, 0.01)
                reference_losses.project(arrays[name], ids)
        for (name, got), (_, want) in zip(params.blocks(), ref.blocks()):
            assert got.tobytes() == want.tobytes(), name
            for k in ("m", "v", "vhat"):
                assert (getattr(state.moments[name], k).tobytes()
                        == getattr(ref_state.moments[name], k).tobytes()), (name, k)

    def test_nonfinite_row_in_last_tile_writes_nothing(self):
        params, grads = self._wide_step(4)
        ids, g = grads.blocks["entities"]
        g[-1, 7] = np.inf
        before, state = params.copy(), OptimizerState.init(params)
        with pytest.raises(TwoViewError, match=f"entities row {ids[-1]}$"):
            amsgrad_step(params, state, grads, 0.01)
        for (name, got), (_, want) in zip(params.blocks(), before.blocks()):
            assert np.array_equal(got, want), name
        assert not any(a.any() for mom in state.moments.values() for a in vars(mom).values())
        assert state.step == 0

    def test_map_update(self):
        params = small_params()
        state = OptimizerState.init(params)
        before = params.ct_map.W.copy()
        grads = GradAccum()
        grads.add_rows("ct_W", ..., np.ones_like(params.ct_map.W))
        grads.add_rows("ct_b", ..., np.ones_like(params.ct_map.b))
        amsgrad_step(params, state, grads, 0.01)
        assert not np.array_equal(params.ct_map.W, before)


@pytest.fixture(scope="module")
def synth_data():
    kb, schema = planted_kb()
    return kb, schema, prepare_splits(kb, SplitSpec(seed=5))


def quick_config(**kw):
    base = dict(epochs=2, learning_rate=0.01, batch_instance=64,
                batch_ontology=8, batch_cross=16, batch_hierarchy=8,
                margins=Margins(0.5, 0.5, 0.5, 0.5),
                weights=LossWeights(alpha1=2.5, alpha2=1.0, omega=1.0),
                seed=2)
    base.update(kw)
    return TrainConfig(**base)


def greedy_schedule(counts):
    """The schedule rule stepped one batch at a time: the source least far
    along (batches done / batch count) goes next, ties to the earlier one."""
    done, order = [0] * len(counts), []
    while any(k < n for k, n in zip(done, counts)):
        s = min((i for i, n in enumerate(counts) if done[i] < n),
                key=lambda i: done[i] / counts[i])
        order.append((s, done[s]))
        done[s] += 1
    return order


class TestSchedule:
    @pytest.mark.parametrize("counts", [
        [], [0], [0, 0, 0, 0], [1], [3], [1, 1], [5, 5, 5, 5], [2, 4],
        [1, 2, 4, 8], [4, 2, 1], [0, 3, 0, 2], [7, 0, 1, 13], [3, 6, 9, 12],
        [161, 12, 5, 49],
    ])
    def test_matches_greedy_rule(self, counts):
        assert _schedule(counts).tolist() == [list(p) for p in greedy_schedule(counts)]

    def test_matches_greedy_rule_on_random_tables(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            counts = rng.integers(0, 40, size=int(rng.integers(1, 5))).tolist()
            got = _schedule(counts).tolist()
            assert got == [list(p) for p in greedy_schedule(counts)], counts

    def test_epoch_steps_in_schedule_order(self, synth_data, monkeypatch):
        """A hierarchy-aware CT epoch calls its four losses in the greedy
        rule's order over its batch counts."""
        _, _, data = synth_data
        model = ModelConfig.from_variant("HATransE-CT", 16, 8)
        cfg = quick_config(hierarchical_relations=("subclass_of",))
        hierarchy, residual = extract_hierarchy(
            data.ontology_train, ["subclass_of"], data.meta_relations)
        calls = []
        for name, source in (("intra_hinge_loss", None), ("ha_loss", "hierarchy"),
                             ("ct_loss", "cross")):
            def record(*args, _real=getattr(training, name), _source=source):
                calls.append(_source or args[-1])
                return _real(*args)
            monkeypatch.setattr(training, name, record)
        rng = np.random.default_rng(0)
        params = ModelParams.init(model, len(data.entities), len(data.relations),
                                  len(data.concepts), len(data.meta_relations),
                                  rng)
        train_epoch(params, OptimizerState.init(params), data, model, cfg, rng,
                    ontology_store=residual, hierarchy=hierarchy)
        names = ("instance", "ontology", "hierarchy", "cross")
        sizes = [(len(data.instance_train), cfg.batch_instance),
                 (len(residual), cfg.batch_ontology),
                 (len(hierarchy), cfg.batch_hierarchy),
                 (len(data.links_train), cfg.batch_cross)]
        expected = [names[s] for s, _ in
                    greedy_schedule([-(-n // b) for n, b in sizes])]
        assert calls == expected
        assert len(set(calls)) == 4


class TestTrainEpoch:
    def test_omega_zero_skips_cross(self, synth_data):
        kb, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)
        cfg = quick_config(weights=LossWeights(alpha1=1.0, alpha2=1.0, omega=0.0))
        rng = np.random.default_rng(0)
        params = ModelParams.init(model, len(data.entities), len(data.relations),
                                  len(data.concepts), len(data.meta_relations),
                                  rng)
        state = OptimizerState.init(params)
        w_before = params.ct_map.W.copy()
        b_before = params.ct_map.b.copy()
        report = train_epoch(params, state, data, model, cfg, rng)
        assert np.array_equal(params.ct_map.W, w_before)
        assert np.array_equal(params.ct_map.b, b_before)
        assert report.n_cross == 0

    @pytest.mark.parametrize("hierarchy", [None, HierarchyStore()], ids=["none", "empty"])
    def test_ha_without_hierarchy_pairs_rejected(self, synth_data, hierarchy):
        _, _, data = synth_data
        model = ModelConfig.from_variant("HATransE-CT", 16, 8)
        params = ModelParams.init(model, len(data.entities), len(data.relations),
                                  len(data.concepts), len(data.meta_relations),
                                  np.random.default_rng(0))
        with pytest.raises(ConfigError, match="requires extracted hierarchy pairs"):
            train_epoch(params, OptimizerState.init(params), data, model, quick_config(),
                        np.random.default_rng(0), hierarchy=hierarchy)


class TestTrain:
    def test_epochs_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_saturated_sampling_is_logged(self, caplog):
        """Where every corruption of a positive is itself a training triple,
        ``train`` logs how many times negative sampling saturated."""
        from twoview.kb import Vocab
        from twoview.training import SplitDataset
        every = TripleStore([Triple(h, 0, t) for h in range(2) for t in range(2)])
        data = SplitDataset(
            entities=Vocab(["a", "b"]), relations=Vocab(["r"]),
            concepts=Vocab(["x", "y"]), meta_relations=Vocab(["m"]),
            instance_train=every, instance_valid=TripleStore(), instance_test=TripleStore(),
            ontology_train=every, ontology_valid=TripleStore(), ontology_test=TripleStore(),
            links_train=CrossLinkStore([(0, 0), (1, 1)]), links_test=CrossLinkStore())
        model = ModelConfig.from_variant("TransE-CT", 6, 4)
        with caplog.at_level("WARNING", logger="twoview.training"):
            train(data, model, quick_config(epochs=2))
        assert caplog.messages == [
            "negative sampling saturated 16 time(s); the graph may be too dense "
            "for valid negatives"]

    def test_history_length(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)
        _, history = train(data, model, quick_config(epochs=3))
        assert len(history) == 3

    def test_loss_report_accounting(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)
        cfg = quick_config(epochs=1)
        _, history = train(data, model, cfg)
        rep = history[0]
        intra = rep.instance_loss + cfg.weights.alpha1 * rep.ontology_loss
        total = intra + cfg.weights.omega * rep.cross_loss
        assert abs(rep.total(cfg.weights, False) - total) < 1e-6

    def test_deterministic_bitwise(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)
        cfg = quick_config(epochs=2, seed=11)
        p1, _ = train(data, model, cfg)
        p2, _ = train(data, model, cfg)
        assert np.array_equal(p1.entities, p2.entities)
        assert np.array_equal(p1.relations, p2.relations)
        assert np.array_equal(p1.concepts, p2.concepts)
        assert np.array_equal(p1.ct_map.W, p2.ct_map.W)

    def test_loss_trend_on_synth(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)
        cfg = quick_config(epochs=12)
        _, history = train(data, model, cfg)
        totals = [r.total(cfg.weights, False) for r in history]
        assert totals[-1] < totals[0]

    def test_cg_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_variant("TransE-CG", 300, 50)

    def test_ha_without_hierarchy_names_rejected(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("HATransE-CT", 16, 8)
        with pytest.raises(ConfigError):
            train(data, model, quick_config(hierarchical_relations=()))

    def test_ha_with_unknown_relation_name_rejected(self, synth_data):
        from twoview.errors import UnknownSymbolError
        _, _, data = synth_data
        model = ModelConfig.from_variant("HATransE-CT", 16, 8)
        with pytest.raises(UnknownSymbolError):
            train(data, model, quick_config(
                hierarchical_relations=("no_such_relation",), epochs=1))

    def test_ha_with_no_matching_triples_rejected(self, synth_data):
        from twoview.training import SplitDataset
        from twoview.kb import CrossLinkStore, TripleStore, Vocab
        # "is_a" resolves in the vocabulary but labels no training triple
        ents = Vocab(["a", "b"])
        rels = Vocab(["r"])
        cons = Vocab(["x", "y"])
        metas = Vocab(["is_a", "related_to"])
        data = SplitDataset(
            entities=ents, relations=rels, concepts=cons, meta_relations=metas,
            instance_train=TripleStore([Triple(0, 0, 1)]),
            instance_valid=TripleStore(), instance_test=TripleStore(),
            ontology_train=TripleStore([Triple(0, 1, 1)]),
            ontology_valid=TripleStore(), ontology_test=TripleStore(),
            links_train=CrossLinkStore([(0, 0), (1, 1)]),
            links_test=CrossLinkStore())
        model = ModelConfig.from_variant("HATransE-CT", 6, 4)
        with pytest.raises(ConfigError):
            train(data, model, quick_config(
                hierarchical_relations=("is_a",), epochs=1))

    def test_ha_mode_trains(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("HATransE-CT", 16, 8)
        params, history = train(data, model, quick_config(
            epochs=1, hierarchical_relations=("subclass_of",)))
        assert params.ha_map is not None
        assert history[0].hierarchy_loss is not None

    def test_early_stop(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)
        cfg = quick_config(epochs=30, early_stop_patience=1)
        _, history = train(data, model, cfg)
        assert len(history) <= 30

    def test_early_stop_returns_best_parameters(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)

        def valid_mrr(params):
            return triple_completion_eval(params, model.intra, data.instance_valid,
                                          [data.instance_train]).mrr
        seen = []
        params, history = train(
            data, model, quick_config(epochs=12, learning_rate=0.05,
                                      early_stop_patience=2),
            epoch_callback=lambda epoch, params, report: seen.append(valid_mrr(params)))
        assert len(seen) == len(history) < 12
        assert seen[-1] < max(seen)
        assert valid_mrr(params) == max(seen)

    def test_no_copies_without_early_stop(self, synth_data, monkeypatch):
        _, _, data = synth_data
        copies = []
        original = ModelParams.copy
        monkeypatch.setattr(ModelParams, "copy",
                            lambda self: copies.append(1) or original(self))
        train(data, ModelConfig.from_variant("TransE-CT", 16, 8), quick_config())
        assert copies == []

    def test_cg_without_negative_sampling(self, synth_data):
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CG", 16, 16)
        cfg = quick_config(epochs=2, cross_negative_sampling=False)
        _, history = train(data, model, cfg)
        assert history[-1].cross_loss >= 0.0
        assert history[-1].n_cross == len(data.links_train)

    def test_ct_without_negative_sampling_rejected(self, synth_data):
        """The library path refuses what ``load_config`` refuses, where it
        used to train CT with negatives all the same."""
        _, _, data = synth_data
        model = ModelConfig.from_variant("TransE-CT", 16, 8)
        with pytest.raises(ConfigError, match="CT loss is defined with negatives"):
            train(data, model, quick_config(cross_negative_sampling=False))

def _python_calls_per_epoch(data, variant, batch):
    """Python-level calls (``sys.setprofile`` call events) in one
    ``train_epoch``, after a warm-up epoch, with every source's batch size
    ``batch``."""
    model = ModelConfig.from_variant(variant, 16, 16 if variant.endswith("CG") else 8)
    config = quick_config(batch_instance=batch, batch_ontology=batch,
                          batch_cross=batch, batch_hierarchy=batch)
    params = ModelParams.init(model, len(data.entities), len(data.relations),
                              len(data.concepts), len(data.meta_relations),
                              np.random.default_rng(0))
    state, rng = OptimizerState.init(params), np.random.default_rng(1)
    train_epoch(params, state, data, model, config, rng)
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(1))
    try:
        train_epoch(params, state, data, model, config, rng)
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the block sampler still hands each store member and "
                          "Lemire redraw to the per-positive sampler")
@pytest.mark.parametrize("variant", ["TransE-CT", "TransE-CG"])
def test_python_calls_per_epoch_are_per_batch(synth_data, variant):
    """Four times the batch size, at least a third of the Python calls: an
    epoch's Python work is per batch, none of it per positive."""
    small, large = (_python_calls_per_epoch(synth_data[2], variant, b) for b in (64, 256))
    assert small >= 3 * large, (small, large)


def _one_by_one(pos, store, node_count, rng, stats):
    """The per-positive loop that ``sample_negatives`` replays."""
    if pos.shape[1] == 3:
        return np.array([sample_negative_triple(p, store, node_count, rng, stats)
                         for p in pos.tolist()], np.int64).reshape(-1, 3)
    return np.array([sample_negative_concept(a, c, store, node_count, rng, stats)
                     for a, c in pos.tolist()], np.int64)


def _random_store(kind, nodes, rows, seed):
    """A store of ``rows`` random rows over ``nodes`` nodes (3 relations)."""
    r = np.random.default_rng(seed)
    if kind == "triples":
        return TripleStore(np.stack([r.integers(nodes, size=rows), r.integers(3, size=rows),
                                     r.integers(nodes, size=rows)], axis=1))
    cls = CrossLinkStore if kind == "links" else HierarchyStore
    return cls(r.integers(nodes, size=(rows, 2)))


class TestSampleNegatives:
    """The block sampler against the per-positive loop, bitwise: negatives,
    saturation count and the generator's final state.  It replays numpy's
    ``Generator.integers`` stream (Lemire's method on buffered uint32
    draws), so a numpy that draws otherwise fails here."""

    @staticmethod
    def _agree(pos, store, node_count, seed, prior_draws=0):
        sides = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            rng.integers(0, 2**32, size=prior_draws, dtype=np.uint32)
            sides.append((rng, {}))
        (rng_a, stats_a), (rng_b, stats_b) = sides
        got = sample_negatives(pos, store, node_count, rng_a, stats_a)
        want = _one_by_one(pos, store, node_count, rng_b, stats_b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert stats_a == stats_b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        return got, stats_a

    @pytest.mark.parametrize("kind", ["triples", "links", "hierarchy"])
    @pytest.mark.parametrize("prior_draws", [0, 3])     # 3: a half-used 64-bit word
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stores(self, monkeypatch, kind, prior_draws, seed):
        store = _random_store(kind, 12, 60, seed)
        pos = store.rows[np.random.default_rng(seed).integers(len(store), size=300)]
        name = "sample_negative_triple" if kind == "triples" else "sample_negative_concept"
        calls = []

        def one(*args):
            calls.append(args)
            return getattr(objectives, name)(*args)
        monkeypatch.setattr(training, name, one)
        self._agree(pos, store, 12, seed, prior_draws)
        # members were drawn, and the 1-D sampler took only those positives
        assert 0 < len(calls) < len(pos) // 2

    @pytest.mark.parametrize("kind", ["triples", "links"])
    def test_saturated_store(self, kind):
        """Every candidate is a member: each positive saturates."""
        if kind == "triples":
            store = TripleStore((h, 0, t) for h in range(3) for t in range(3))
        else:
            store = CrossLinkStore((a, c) for a in range(3) for c in range(3))
        pos = np.repeat(store.rows, 3, axis=0)
        _, stats = self._agree(pos, store, 3, 5, prior_draws=1)
        assert stats["negative_saturation"] == len(pos)

    @pytest.mark.parametrize("kind", ["triples", "links"])
    def test_lemire_redraws(self, kind):
        """With n = 3 * 2**30, integers(n) draws again for a quarter of its
        uint32 draws; a candidate past the store's ids is never a member, so
        those redraws are the only fallbacks."""
        store = _random_store(kind, 12, 60, 1)
        pos = store.rows[np.arange(200) % len(store)]
        got, _ = self._agree(pos, store, 3 * 2**30, 9)
        assert (got >= 12).any()

    @pytest.mark.parametrize("kind", ["triples", "links"])
    @pytest.mark.parametrize("node_count", [0, 1])
    def test_node_count_below_two(self, kind, node_count):
        store = _random_store(kind, 4, 8, 0)
        errors = []
        for sample in (sample_negatives, _one_by_one):
            with pytest.raises(TwoViewError) as exc:
                sample(store.rows, store, node_count, np.random.default_rng(0), {})
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


_TRAINED_SHA256 = {
    "TransE-CG": "f817be2db16a093c383a25d3fda08365b2affb327ed658b411a22fbccbea7718",
    "TransE-CT": "52f0ca773c4330b13eef677ec24dab3c6460fe0a3daf1a947ce3dde2be514f20",
    "Mult-CG": "b8c4204efc655bbf47744cea78cee92a3d6ed3e57dd335f0f4f3daa556c5d62b",
    "Mult-CT": "20c7d5feaa5c7e4594bc23b57e669abba378a81eecd27b8a3cf7c6215f1509c0",
    "HolE-CG": "19b83c83801109c8815bd0f599b661a44f9eaa57f1ee2c9c9d8ee1dbcb2b7733",
    "HolE-CT": "99f00e813655310370ca3328106c16459903046c008dd9bcd7b02a04cdcb1a77",
    "HATransE-CT": "1594bb4a33ceb3fd06909cba6aa3bcd5086b198085084f408b757631d437db3c",
    "HAMult-CT": "1488163e32934b323aae130864f5ba0f5bbc00889dc13383ac8489bc1a10852d",
    "HAHolE-CT": "fa9dc45c3b44dbf2c6e352d9f4c155b01f25bf3b9fe3521cae331bb089601ab4",
}


@pytest.mark.parametrize("variant", all_variants())
def test_trained_bytes_pinned(synth_data, variant):
    """SHA-256 over the name and bytes of every block after two quick
    epochs on ``planted_kb``.  A change to the sampling stream, the losses
    or the optimizer that moves any trained byte shows here."""
    model = ModelConfig.from_variant(variant, 16, 16 if variant.endswith("CG") else 8)
    config = quick_config(hierarchical_relations=("subclass_of",)
                          if model.hierarchy_aware else ())
    params, _ = train(synth_data[2], model, config)
    digest = hashlib.sha256()
    for name, arr in params.blocks():
        digest.update(name.encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == _TRAINED_SHA256[variant]


def test_moving_average_loss_trend_all_variants():
    """Smoothed total loss trends downward for every variant at default
    hyperparameters (up to resampled-negative noise of a few percent)."""
    from twoview.model import all_variants

    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=3))
    for variant in all_variants():
        ha = variant.startswith("HA")
        d_e, d_c = (32, 32) if variant.endswith("CG") else (32, 16)
        model = ModelConfig.from_variant(variant, d_e, d_c)
        cfg = TrainConfig(epochs=30, seed=4,
                          margins=Margins.defaults_for(model.intra),
                          hierarchical_relations=("subclass_of",) if ha else ())
        _, history = train(data, model, cfg)
        totals = [r.total(cfg.weights, ha) for r in history]
        ma = [sum(totals[i:i + 5]) / 5 for i in range(len(totals) - 4)]
        tolerance = 0.03 * ma[0]
        for i in range(len(ma) - 1):
            assert ma[i + 1] <= ma[i] + tolerance, \
                f"{variant}: moving average rose at epoch {i + 5}"
        assert ma[-1] < ma[0], f"{variant}: no overall descent"


_THREADS_RUN = """
import hashlib
from twoview.dataio import prepare_splits
from twoview.kb import SplitSpec
from twoview.model import ModelConfig, ModelParams
from twoview.objectives import Margins
from twoview.synth import planted_kb
from twoview.training import TrainConfig, train

kb, _ = planted_kb(n_clusters=100)
data = prepare_splits(kb, SplitSpec(seed=11))
params, _ = train(data, ModelConfig.from_variant({variant!r}, {d_e}, {d_c}),
                  TrainConfig({config}))
digest = hashlib.sha256()
for table in ModelParams.TABLES:
    digest.update(params.table(table).tobytes())
for m in (params.ct_map, params.ha_map):
    if m is not None:
        digest.update(m.W.tobytes() + m.b.tobytes())
print(digest.hexdigest())
"""


def _digests_under_blas_threads(**run):
    """Trained-parameter digests of one run under 1 and 2 BLAS threads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import twoview
    src = str(Path(twoview.__file__).resolve().parents[1])
    run_src = _THREADS_RUN.format(**run)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", run_src], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    return digests


def test_parameter_bytes_independent_of_blas_threads():
    """A BLAS product that sums over the batch, as dz.T @ A for the CT map
    gradient would, may round differently with the thread count.  The one
    cross batch here holds all 600 training links, all active under a wide
    margin; with dz.T @ A in place of the einsum the two digests differ."""
    digests = _digests_under_blas_threads(
        variant="TransE-CT", d_e=300, d_c=50,
        config="epochs=1, seed=11, batch_cross=1024, margins=Margins(cross=10.0)")
    assert digests[0] == digests[1]


def test_hole_parameter_bytes_independent_of_blas_threads():
    """The same for HolE's circular products and its HA and CT maps; whole
    cross and hierarchy sources in one batch each, active under wide
    margins, as above."""
    digests = _digests_under_blas_threads(
        variant="HAHolE-CT", d_e=100, d_c=50,
        config="epochs=1, seed=11, batch_cross=1024, batch_hierarchy=1024, "
               "margins=Margins(1.0, 1.0, 10.0, 10.0), "
               "hierarchical_relations=('subclass_of',)")
    assert digests[0] == digests[1]

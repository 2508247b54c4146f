import logging
import math
import warnings

import numpy as np
import pytest

from twoview import evaluation
from twoview.dataio import _FIELDS, load_split_dir, prepare_splits, write_split_dir
from twoview.errors import ConfigError, EvalError
from twoview.evaluation import (EvalReport, concept_distances,
                                entity_typing_eval, long_tail_eval,
                                populate_relation_query,
                                populate_triple_query, rank_candidates,
                                top_tails, triple_completion_eval,
                                typing_scores)
from twoview.kb import CrossLinkStore, SplitSpec, Triple, TripleStore
from twoview.model import ModelConfig, ModelParams
from twoview.scoring import (ScorerKind, rank_slack, score, score_all_heads,
                             score_all_tails)
from twoview.synth import random_kb
from twoview.tensor_ops import affine_tanh, init_unit_sphere


def sort_scan_rank(scores: dict, gold, filter_set=()):
    """Brute-force oracle: sort candidates, scan to the gold tie block,
    resolve the block mid-rank."""
    filter_set = set(filter_set)
    kept = [(s, c) for c, s in scores.items() if c == gold or c not in filter_set]
    kept.sort(key=lambda sc: -sc[0])
    gold_score = scores[gold]
    first = next(i for i, (s, _) in enumerate(kept) if s == gold_score)
    block = sum(1 for s, _ in kept if s == gold_score)
    return first + 1 + math.ceil((block - 1) / 2)


class TestRankCandidates:
    def test_strictly_best(self):
        assert rank_candidates({0: 5.0, 1: 1.0, 2: 0.0}, 0) == 1

    def test_third_best_of_four(self):
        scores = {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}
        assert rank_candidates(scores, 2) == 3

    def test_mid_rank_tie(self):
        # gold tied with one other, nothing above: 1 + 0 + ceil(1/2) = 2
        scores = {0: 1.0, 1: 1.0, 2: 0.0}
        assert rank_candidates(scores, 1) == 2
        assert sort_scan_rank(scores, 1) == 2

    def test_filtered_candidates_removed(self):
        scores = {0: 5.0, 1: 4.0, 2: 3.0}
        assert rank_candidates(scores, 2, filter_set={0, 1}) == 1

    def test_gold_in_filter_rejected(self):
        with pytest.raises(EvalError):
            rank_candidates({0: 1.0, 1: 0.0}, 0, filter_set={0})

    def test_agrees_with_sort_scan_oracle_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(3, 25))
            scores = {i: float(rng.integers(0, 5)) for i in range(n)}
            gold = int(rng.integers(n))
            filt = {int(c) for c in rng.choice(n, size=int(rng.integers(0, n // 2 + 1)),
                                               replace=False)} - {gold}
            assert rank_candidates(scores, gold, filt) == \
                sort_scan_rank(scores, gold, filt)

    def test_filtering_never_hurts(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            scores = {i: float(rng.normal()) for i in range(n)}
            gold = int(rng.integers(n))
            filt = {int(c) for c in rng.choice(n, size=n // 3, replace=False)} - {gold}
            assert rank_candidates(scores, gold, filt) <= \
                rank_candidates(scores, gold, set())


def random_model(seed=0, variant="TransE-CT", d_e=8, d_c=6, n_e=20, n_r=5,
                 n_c=8, n_m=3):
    rng = np.random.default_rng(seed)
    config = ModelConfig.from_variant(variant, d_e, d_c)
    params = ModelParams.init(config, n_e, n_r, n_c, n_m, rng, dtype=np.float64)
    return config, params


class TestTripleCompletionEval:
    def test_perfect_model_scores(self):
        # a model ranking gold strictly best for every query: translational
        # with t exactly at h + r, everything else far away
        config, params = random_model()
        params.entities = np.zeros((4, 8))
        params.entities[0, 0] = 1.0
        params.relations = np.zeros((2, 8))
        params.relations[0, 1] = 1.0
        params.entities[1] = params.entities[0] + params.relations[0]
        params.entities[2] = 50.0 + np.arange(8.0)
        params.entities[3] = -50.0 - np.arange(8.0)
        test = TripleStore([Triple(0, 0, 1)])
        rep = triple_completion_eval(params, ScorerKind.TRANSLATIONAL, test, [])
        assert rep.mrr == 1.0
        assert rep.hits[1] == 1.0

    def test_two_query_arithmetic(self):
        # ranks 1 and 4 -> MRR (1 + 0.25) / 2
        ranks = [1, 4]
        mrr = sum(1.0 / r for r in ranks) / 2
        assert abs(mrr - 0.625) < 1e-12

    def test_empty_test_rejected(self):
        config, params = random_model()
        with pytest.raises(EvalError):
            triple_completion_eval(params, config.intra, TripleStore(), [])

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_matches_bruteforce_oracle(self, kind):
        kb = random_kb(seed=8)
        config, params = random_model(seed=1, n_e=len(kb.entities),
                                      n_r=len(kb.relations), n_c=len(kb.concepts),
                                      n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(seed=2))
        rep = triple_completion_eval(params, kind, data.instance_test,
                                     [data.instance_train], view="instance",
                                     direction="both")
        # oracle: scalar scoring + sort-scan ranking + independent aggregation
        filt_tails, filt_heads = {}, {}
        for h, r, t in data.instance_train:
            filt_tails.setdefault((h, r), set()).add(t)
            filt_heads.setdefault((r, t), set()).add(h)
        oracle_ranks = []
        n_e = len(kb.entities)
        for h, r, t in data.instance_test:
            scores = {c: score(kind, params.entities[h], params.relations[r],
                               params.entities[c]) for c in range(n_e)}
            oracle_ranks.append(sort_scan_rank(
                scores, t, filt_tails.get((h, r), set()) - {t}))
            scores = {c: score(kind, params.entities[c], params.relations[r],
                               params.entities[t]) for c in range(n_e)}
            oracle_ranks.append(sort_scan_rank(
                scores, h, filt_heads.get((r, t), set()) - {h}))
        assert rep.ranks == oracle_ranks
        oracle_mrr = sum(1.0 / r for r in oracle_ranks) / len(oracle_ranks)
        assert abs(rep.mrr - oracle_mrr) < 1e-12
        for k in (1, 3, 10):
            frac = sum(1 for r in oracle_ranks if r <= k) / len(oracle_ranks)
            assert rep.hits[k] == frac

    @pytest.mark.parametrize("kind", list(ScorerKind))
    def test_several_filter_stores_match_oracle(self, kind, monkeypatch):
        """Strict filtering by (train, valid, test), passed as a one-shot
        generator, over blocks of 4 test triples: every block filters by
        every store."""
        kb = random_kb(seed=8, n_entities=30, n_relations=3, n_instance_triples=300)
        n_e = len(kb.entities)
        config, params = random_model(seed=1, n_e=n_e, n_r=len(kb.relations),
                                      n_c=len(kb.concepts), n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(0.6, 0.2, 0.2, seed=2))
        stores = (data.instance_train, data.instance_valid, data.instance_test)
        monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", 4 * n_e)
        rep = triple_completion_eval(params, kind, data.instance_test,
                                     (store for store in stores), direction="both")
        known = set().union(*stores)
        E, R = params.entities, params.relations
        oracle = []
        for h, r, t in data.instance_test:
            oracle.append(sort_scan_rank(
                {c: score(kind, E[h], R[r], E[c]) for c in range(n_e)}, t,
                {c for c in range(n_e) if (h, r, c) in known} - {t}))
            oracle.append(sort_scan_rank(
                {c: score(kind, E[c], R[r], E[t]) for c in range(n_e)}, h,
                {c for c in range(n_e) if (c, r, t) in known} - {h}))
        assert len(data.instance_test) > 8 and rep.ranks == oracle
        assert rep.ranks != triple_completion_eval(
            params, kind, data.instance_test, stores[:1], direction="both").ranks

    def test_hits_monotone(self):
        kb = random_kb(seed=9)
        config, params = random_model(seed=3, n_e=len(kb.entities),
                                      n_r=len(kb.relations), n_c=len(kb.concepts),
                                      n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(seed=1))
        rep = triple_completion_eval(params, config.intra, data.instance_test,
                                     [data.instance_train])
        assert rep.hits[1] <= rep.hits[3] <= rep.hits[10]
        assert rep.mrr >= rep.hits[1]


def plant_near_tie(kind, nodes, edges, query, twin, heads, rng):
    """Move row ``twin`` a few ulps away from the gold row of ``query`` until
    the batched scorer puts it strictly on one side of the gold and
    ``score`` counts it on the other, so that a rank read off the batched
    scores is off by one even where their exact ties are re-scored."""
    h, r, t = query
    gold = h if heads else t
    for _ in range(1000):
        away = np.where(rng.random(nodes.shape[1]) < 0.5, -np.inf, np.inf)
        row = nodes[gold].copy()
        for _ in range(4):
            row = np.nextafter(row, away.astype(nodes.dtype))
        nodes[twin] = row
        if heads:
            fast = score_all_heads(kind, nodes, edges[r], nodes[t])
            exact = [score(kind, nodes[c], edges[r], nodes[t]) for c in (twin, gold)]
        else:
            fast = score_all_tails(kind, nodes[h], edges[r], nodes)
            exact = [score(kind, nodes[h], edges[r], nodes[c]) for c in (twin, gold)]
        if fast[twin] != fast[gold] and \
                (fast[twin] > fast[gold]) != (exact[0] >= exact[1]):
            return
    raise AssertionError("no near-tie found")


@pytest.mark.parametrize("kind", [ScorerKind.TRANSLATIONAL,
                                  ScorerKind.MULTIPLICATIVE])
def test_float32_ranks_match_score_oracle(kind):
    """At d=300 in float32 the batched scores differ from ``score`` by an
    ulp or so; with a candidate planted that close to the gold answer, both
    directions' ranks must still equal ``rank_candidates`` over ``score``."""
    rng = np.random.default_rng(31)
    n, d, n_r, n_q = 5000, 300, 8, 6
    nodes = init_unit_sphere(n, d, rng, np.float32)
    edges = init_unit_sphere(n_r, d, rng, np.float32)
    ids = rng.choice(n, 2 * n_q + 2, replace=False).tolist()
    queries = [Triple(h, int(rng.integers(n_r)), t)
               for h, t in zip(ids[:n_q], ids[n_q:2 * n_q])]
    plant_near_tie(kind, nodes, edges, queries[0], ids[-2], False, rng)
    plant_near_tie(kind, nodes, edges, queries[1], ids[-1], True, rng)
    params = ModelParams(entities=nodes, relations=edges,
                         concepts=np.zeros((1, 4), np.float32),
                         meta_relations=np.zeros((1, 4), np.float32))
    train = TripleStore([Triple(h, r, int(c)) for h, r, _ in queries
                         for c in rng.choice(n, 3)]
                        + [Triple(int(c), r, t) for _, r, t in queries
                           for c in rng.choice(n, 3)])
    rep = triple_completion_eval(params, kind, TripleStore(queries), [train],
                                 direction="both")
    oracle = []
    for h, r, t in queries:
        scores = {c: score(kind, nodes[h], edges[r], nodes[c]) for c in range(n)}
        filt = {c for hh, rr, c in train if (hh, rr) == (h, r)} - {t}
        oracle.append(rank_candidates(scores, t, filt))
        scores = {c: score(kind, nodes[c], edges[r], nodes[t]) for c in range(n)}
        filt = {c for c, rr, tt in train if (rr, tt) == (r, t)} - {h}
        oracle.append(rank_candidates(scores, h, filt))
    assert rep.ranks == oracle


def plant_cancelling_terms(nodes, edges, h, r, rows, rng):
    """Give each of ``rows`` multiplicative terms h_k r_k t_k that are large
    but cancel: |t| follows |h o r| (so Cauchy-Schwarz, which the window
    uses, is nearly tight), with one half of the coordinates positive and
    the other half negative and scaled to balance.  Float32 rounding then
    uses a large share of gamma * sum |terms|.  Returns the row that the
    batched scores misplace by the most candidates lying farther than 1e-3
    of ``rank_slack``'s window from it."""
    kind = ScorerKind.MULTIPLICATIVE
    d = nodes.shape[1]
    v = nodes[h].astype(np.float64) * edges[r]
    half = np.where(np.arange(d) < d // 2, 1.0, -1.0)
    for c in rows:
        t = half * np.sign(v) * np.abs(v) * rng.uniform(1, 1.2, d)
        terms = v * t
        t[terms < 0] *= terms[terms > 0].sum() / -terms[terms < 0].sum()
        nodes[c] = t / np.linalg.norm(t)
    fast = score_all_tails(kind, nodes[h], edges[r], nodes).astype(np.float64)
    exact = np.array([score(kind, nodes[h], edges[r], row) for row in nodes])
    width = rank_slack(kind, nodes[[h]], edges[[r]], False,
                       evaluation._max_norm(nodes), fast[[0]])[0]

    def misplaced(g):
        far = np.abs(fast - fast[g]) > 1e-3 * width
        return abs(np.count_nonzero(far & (fast > fast[g]))
                   - np.count_nonzero(far & (exact > exact[g])))
    counts = [misplaced(g) for g in rows]
    assert max(counts) > 0, "no misplaced gold found"
    return rows[int(np.argmax(counts))]


@pytest.mark.parametrize("kind,cancelling", [
    (ScorerKind.TRANSLATIONAL, False), (ScorerKind.MULTIPLICATIVE, False),
    (ScorerKind.MULTIPLICATIVE, True),
], ids=["translational", "multiplicative", "multiplicative-cancelling"])
def test_float32_ranks_exact_where_query_meets_candidates(kind, cancelling):
    """As in a trained TransE model, each gold tail and 30 other rows lie
    within 1e-6 to 1e-3 of h + r.  There the expansion |q|^2 + |t|^2 - 2 q.t
    loses most of its digits to cancellation, and ranks must still equal
    ``rank_candidates`` over ``score`` in both directions.  The cancelling
    Mult case instead gives each gold tail and 150 other rows terms
    h_k r_k t_k that cancel (``plant_cancelling_terms``); it fails when the
    Mult window is cut to 1e-3 of its bound."""
    rng = np.random.default_rng(59)
    n, d, n_r, n_q = 1000, 300, 4, 8
    nodes = init_unit_sphere(n, d, rng, np.float32)
    edges = (0.3 * init_unit_sphere(n_r, d, rng, np.float32)).astype(np.float32)
    ids = rng.permutation(n).tolist()
    queries = []
    for i in range(n_q // 2 if cancelling else n_q):
        h, t, r = ids[2 * i], ids[2 * i + 1], int(rng.integers(n_r))
        if cancelling:
            t = plant_cancelling_terms(nodes, edges, h, r,
                                       ids[n_q + 150 * i:n_q + 150 * (i + 1)], rng)
        else:
            cluster = ids[2 * n_q + 30 * i:2 * n_q + 30 * (i + 1)]
            for c in [t] + cluster:
                step = rng.normal(size=d) * rng.uniform(1e-6, 1e-3) / np.sqrt(d)
                nodes[c] = nodes[h] + edges[r] + step.astype(np.float32)
        queries.append(Triple(h, r, t))
    params = ModelParams(entities=nodes, relations=edges,
                         concepts=np.zeros((1, 4), np.float32),
                         meta_relations=np.zeros((1, 4), np.float32))
    rep = triple_completion_eval(params, kind, TripleStore(queries), [],
                                 direction="both")
    oracle = []
    for h, r, t in queries:
        scores = {c: score(kind, nodes[h], edges[r], nodes[c]) for c in range(n)}
        oracle.append(rank_candidates(scores, t))
        scores = {c: score(kind, nodes[c], edges[r], nodes[t]) for c in range(n)}
        oracle.append(rank_candidates(scores, h))
    assert rep.ranks == oracle


def test_float32_head_ranks_exact_where_terms_cancel():
    """The heads mirror of the cancelling Mult case: for a fixed (r, t),
    each gold head and 150 other rows get terms h_k r_k t_k that cancel.
    Mult is symmetric in h and t, so ``plant_cancelling_terms`` anchored at
    t plants them, and the head window is read off the query row t o r.
    Head ranks must equal ``rank_candidates`` over ``score``; they do not
    when the Mult window is cut to 1e-3 of its bound."""
    kind = ScorerKind.MULTIPLICATIVE
    rng = np.random.default_rng(61)
    n, d, n_r, n_q = 1000, 300, 4, 4
    nodes = init_unit_sphere(n, d, rng, np.float32)
    edges = (0.3 * init_unit_sphere(n_r, d, rng, np.float32)).astype(np.float32)
    ids = rng.permutation(n).tolist()
    queries = []
    for i in range(n_q):
        t, r = ids[i], int(rng.integers(n_r))
        rows = ids[n_q + 150 * i:n_q + 150 * (i + 1)]
        queries.append(Triple(plant_cancelling_terms(nodes, edges, t, r, rows, rng),
                              r, t))
    params = ModelParams(entities=nodes, relations=edges,
                         concepts=np.zeros((1, 4), np.float32),
                         meta_relations=np.zeros((1, 4), np.float32))
    rep = triple_completion_eval(params, kind, TripleStore(queries), [],
                                 direction="both")
    oracle = [rank_candidates({c: score(kind, nodes[c], edges[r], nodes[t])
                               for c in range(n)}, h) for h, r, t in queries]
    assert rep.ranks[1::2] == oracle


@pytest.mark.parametrize("kind", [ScorerKind.TRANSLATIONAL,
                                  ScorerKind.MULTIPLICATIVE])
def test_top_tails_exact_at_k_boundary(kind):
    """With a candidate planted ulps away from the k-th best tail, so that
    the batched scores order the two the other way round from ``score``,
    ``top_tails`` still equals a stable sort over ``score`` of the
    unfiltered candidates, scores included."""
    rng = np.random.default_rng(47)
    n, d, k, h, r = 2000, 300, 5, 0, 1
    nodes = init_unit_sphere(n, d, rng, np.float32)
    edges = init_unit_sphere(4, d, rng, np.float32)
    store = TripleStore([Triple(h, r, int(c)) for c in rng.choice(n, 20)])

    def oracle():
        kept = [(c, score(kind, nodes[h], edges[r], nodes[c]))
                for c in range(n) if (h, r, c) not in store]
        return sorted(kept, key=lambda cs: -cs[1])

    best = [c for c, _ in oracle()[:k + 1]]
    twin = next(c for c in range(1, n)
                if c not in best and (h, r, c) not in store)
    plant_near_tie(kind, nodes, edges, Triple(h, r, best[k - 1]), twin,
                   False, rng)
    params = ModelParams(entities=nodes, relations=edges,
                         concepts=np.zeros((1, 4), np.float32),
                         meta_relations=np.zeros((1, 4), np.float32))
    want = oracle()[:k]
    assert twin in [c for c, _ in oracle()[:k + 1]]
    assert top_tails(params, kind, h, r, k, filter_store=store) == want


def test_filter_keys_are_built_on_first_use_and_kept(tmp_path):
    """No store holds sorted keys until it is asked; two eval passes over
    one filter store build its two key turns once."""
    kb = random_kb(seed=8)
    data = prepare_splits(kb, SplitSpec(seed=2))
    write_split_dir(data, tmp_path, kb)
    loaded = load_split_dir(tmp_path)
    stores = [getattr(loaded, name) for kind, name in _FIELDS]
    assert len(stores) == 8 and not any(store._keys for store in stores)
    assert not TripleStore([(0, 1, 2)])._keys and not CrossLinkStore([(0, 1)])._keys
    config, params = random_model(seed=1, n_e=len(kb.entities), n_r=len(kb.relations),
                                  n_c=len(kb.concepts), n_m=len(kb.meta_relations))
    train = loaded.instance_train
    first = triple_completion_eval(params, config.intra, loaded.instance_test, [train],
                                   direction="both")
    keys = dict(train._keys)
    assert sorted(keys) == [0, 1] and not loaded.instance_test._keys
    again = triple_completion_eval(params, config.intra, loaded.instance_test, [train],
                                   direction="both")
    assert again.ranks == first.ranks
    assert all(train._keys[turn] is keys[turn] for turn in keys)


@pytest.mark.parametrize("kind", [ScorerKind.TRANSLATIONAL,
                                  ScorerKind.MULTIPLICATIVE])
def test_block_boundaries_keep_ranks_and_order(kind, monkeypatch):
    """Blocks of 3 rows over 7 test triples (3 + 3 + 1), with exact ties
    planted in the first and last blocks and filtered candidates in the
    middle one: ranks equal ``rank_candidates`` over ``score`` and queries
    list tail, then head, per triple."""
    rng = np.random.default_rng(53)
    n, d, n_r = 60, 16, 3
    nodes = init_unit_sphere(n, d, rng, np.float32)
    edges = init_unit_sphere(n_r, d, rng, np.float32)
    ids = rng.permutation(n).tolist()
    test = [Triple(ids[2 * i], int(rng.integers(n_r)), ids[2 * i + 1])
            for i in range(7)]
    free = ids[14:]
    nodes[free[0]] = nodes[test[1].tail]
    nodes[free[1]] = nodes[test[6].head]
    train = TripleStore([triple for i in (3, 4, 5) for c in free[2 + 4 * i:6 + 4 * i]
                         for triple in (Triple(test[i].head, test[i].relation, c),
                                        Triple(c, test[i].relation, test[i].tail))])
    params = ModelParams(entities=nodes, relations=edges,
                         concepts=np.zeros((1, 4), np.float32),
                         meta_relations=np.zeros((1, 4), np.float32))
    rows = []
    for name in ("score_all_tails", "score_all_heads"):
        def counted(kind, a, r, b, *rest, _f=getattr(evaluation, name)):
            rows.append(len(r))
            return _f(kind, a, r, b, *rest)
        monkeypatch.setattr(evaluation, name, counted)
    monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", 3 * n)
    rep = triple_completion_eval(params, kind, TripleStore(test), [train],
                                 direction="both")
    assert rows == [3, 3, 3, 3, 1, 1]
    oracle, ties = [], []
    for h, r, t in test:
        for gold, cand, filt in (
                (t, lambda c: score(kind, nodes[h], edges[r], nodes[c]),
                 {c for hh, rr, c in train if (hh, rr) == (h, r)}),
                (h, lambda c: score(kind, nodes[c], edges[r], nodes[t]),
                 {c for c, rr, tt in train if (rr, tt) == (r, t)})):
            scores = {c: cand(c) for c in range(n)}
            oracle.append(rank_candidates(scores, gold, filt - {gold}))
            ties.append(sum(s == scores[gold] for s in scores.values()) - 1)
    assert ties[2] >= 1 and ties[13] >= 1
    assert rep.ranks == oracle
    assert rep.queries == [q for h, r, t in test
                           for q in (((h, r, None), t), ((None, r, t), h))]


class TestTypingScores:
    def test_ct_exact_projection_first(self):
        config, params = random_model(variant="TransE-CT")
        proj = affine_tanh(params.ct_map, params.entities[0])
        params.concepts[2] = proj.copy()
        ranked = typing_scores(params, config, 0)
        assert ranked[0][0] == 2
        assert ranked[0][1] < 1e-12

    def test_cg_coincident_concept_first(self):
        config, params = random_model(variant="TransE-CG", d_e=8, d_c=8)
        params.concepts[5] = params.entities[3].copy()
        ranked = typing_scores(params, config, 3)
        assert ranked[0][0] == 5

    def test_matches_exhaustive_oracle(self):
        config, params = random_model(variant="HolE-CT", seed=4)
        m = params.ct_map
        for e in range(5):
            ranked = typing_scores(params, config, e)
            proj = np.tanh(m.W @ params.entities[e] + m.b)
            dists = [(float(np.linalg.norm(params.concepts[c] - proj)), c)
                     for c in range(params.concepts.shape[0])]
            dists.sort()
            assert [c for _, c in dists] == [c for c, _ in ranked]

    def test_ordering_stable_under_appended_concepts(self):
        config, params = random_model(variant="TransE-CT")
        base = typing_scores(params, config, 1)
        params2 = params.copy()
        extra = np.full((3, params.concepts.shape[1]), 99.0)
        params2.concepts = np.vstack([params.concepts, extra])
        extended = typing_scores(params2, config, 1)
        assert [c for c, _ in extended[:len(base)]] == [c for c, _ in base]


class TestEntityTypingEval:
    def test_perfect_projection_accuracy(self):
        config, params = random_model(variant="TransE-CT")
        for e in range(6):
            proj = affine_tanh(params.ct_map, params.entities[e])
            params.concepts[e % 8] = proj + 1e-9 * np.arange(6)
        links = CrossLinkStore((e, e % 8) for e in range(6))
        rep = entity_typing_eval(params, config, links)
        assert rep.hits[1] == 1.0

    def test_rank_arithmetic(self):
        # ranks {1, 2} -> MRR 0.75, Hits@3 = 1.0
        ranks = [1, 2]
        assert abs(sum(1 / r for r in ranks) / 2 - 0.75) < 1e-12

    def test_matches_oracle_and_train_gold_filtering(self):
        kb = random_kb(seed=5)
        config, params = random_model(seed=6, variant="Mult-CT",
                                      n_e=len(kb.entities), n_r=len(kb.relations),
                                      n_c=len(kb.concepts), n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(seed=3))
        rep = entity_typing_eval(params, config, data.links_test, data.links_train)
        oracle = []
        for e, c in data.links_test:
            dists = concept_distances(params, config, e)
            scores = {i: -float(dists[i]) for i in range(len(dists))}
            filt = set(data.links_train.by_entity.get(e, ())) - {c}
            oracle.append(sort_scan_rank(scores, c, filt))
        assert rep.ranks == oracle
        assert abs(rep.mrr - sum(1 / r for r in oracle) / len(oracle)) < 1e-12

    def test_empty_test_rejected(self):
        config, params = random_model()
        with pytest.raises(EvalError):
            entity_typing_eval(params, config, CrossLinkStore())

    def test_blocks_match_oracle(self, monkeypatch):
        """9 links in blocks of 4 (4 + 4 + 1), with train-filtered concepts
        in every block: ranks equal the oracle, queries keep link order."""
        kb = random_kb(seed=5)
        config, params = random_model(seed=6, variant="Mult-CT",
                                      n_e=len(kb.entities), n_r=len(kb.relations),
                                      n_c=len(kb.concepts), n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(seed=3))
        rows = []

        def counted(fast, *args, _rank=evaluation._rank):
            rows.append(len(fast))
            return _rank(fast, *args)
        monkeypatch.setattr(evaluation, "_rank", counted)
        monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", 4 * len(kb.concepts))
        rep = entity_typing_eval(params, config, data.links_test, data.links_train)
        assert rows == [4, 4, 1]
        oracle, filtered = [], []
        for e, c in data.links_test:
            dists = concept_distances(params, config, e)
            filt = set(data.links_train.by_entity.get(e, ())) - {c}
            oracle.append(sort_scan_rank({i: -float(x) for i, x in enumerate(dists)},
                                         c, filt))
            filtered.append(len(filt))
        assert all(sum(filtered[i:i + 4]) for i in (0, 4, 8))
        assert rep.ranks == oracle
        assert rep.queries == [((e, None), c) for e, c in data.links_test]


def planted_typing(variant, d_e, n_links=40, copies=2, near=30, seed=0):
    """float32 parameters with d_c = 50 and, for each of ``n_links`` test
    links, its gold concept moved to within 1e-3 of the entity's image, then
    ``copies`` exact copies and ``near`` one-ulp neighbours of the gold row
    (one to three coordinates moved by one ulp) planted among the other
    concepts.  Returns (config, params, test links, filter links); the
    filter links hold the entity's first copy."""
    rng = np.random.default_rng(seed)
    config = ModelConfig.from_variant(variant, d_e, 50)
    n_c = 100 + n_links * (1 + copies + near)
    params = ModelParams.init(config, 3 * n_links, 2, n_c, 2, rng)
    if params.ct_map is not None:
        params.ct_map.b[:] = 0.1 * rng.standard_normal(50)
    ents = rng.choice(3 * n_links, n_links, replace=False).tolist()
    golds = rng.choice(n_c, n_links, replace=False).tolist()
    spare = iter(rng.permutation(np.setdiff1d(np.arange(n_c), golds)).tolist())
    test, train = [], []
    for e, g in zip(ents, golds):
        point = evaluation._images(params, config, params.entities[e])
        params.concepts[g] = point + 1e-3 * rng.standard_normal(50)
        for j in range(copies):
            c = next(spare)
            params.concepts[c] = params.concepts[g]
            if j == 0:
                train.append((e, c))
        for _ in range(near):
            row = params.concepts[g].copy()
            k = rng.choice(50, int(rng.integers(1, 4)), replace=False)
            row[k] = np.nextafter(row[k], np.where(rng.random(len(k)) < 0.5,
                                                   np.float32(-1), np.float32(1)))
            params.concepts[next(spare)] = row
        test.append((e, g))
    return config, params, CrossLinkStore(test), CrossLinkStore(train)


def typing_oracle(params, config, test, train):
    """``rank_candidates`` over the 1-D ``concept_distances`` of each link."""
    out = []
    for e, c in test:
        d = concept_distances(params, config, e)
        out.append(rank_candidates({i: -float(x) for i, x in enumerate(d)}, c,
                                   set(train.by_entity.get(e, ())) - {c}))
    return out


class TestTypingExactness:
    @pytest.mark.parametrize("variant, d_e", [("TransE-CT", 300), ("TransE-CG", 50)])
    def test_pairs_equal_full_rows_bitwise(self, variant, d_e):
        config, params, _, _ = planted_typing(variant, d_e, n_links=10)
        rng = np.random.default_rng(1)
        ents = rng.integers(0, params.entities.shape[0], size=200)
        cs = rng.integers(0, params.concepts.shape[0], size=200)
        pairs = concept_distances(params, config, ents, cs)
        full = np.stack([concept_distances(params, config, int(e)) for e in ents])
        assert pairs.dtype == full.dtype == np.float32
        assert pairs.tobytes() == full[np.arange(200), cs].tobytes()
        # typing's re-score: the kernel on rows gathered from one block's images
        block = np.unique(ents)
        points = evaluation._images(params, config, params.entities[block])
        gathered = evaluation._distances(points[np.searchsorted(block, ents)],
                                         params.concepts[cs])
        assert gathered.tobytes() == pairs.tobytes()

    @pytest.mark.parametrize("variant, d_e", [("TransE-CT", 300), ("TransE-CG", 50)])
    def test_planted_near_ties_rank_exactly(self, variant, d_e, monkeypatch):
        """The batched distances misorder many of the planted one-ulp
        neighbours against the gold; the window re-scores them.  Blocks of
        16 links (16 + 16 + 8)."""
        config, params, test, train = planted_typing(variant, d_e)
        n_c = params.concepts.shape[0]
        monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", 16 * n_c)
        rep = entity_typing_eval(params, config, test, train)
        assert rep.ranks == typing_oracle(params, config, test, train)


@pytest.mark.parametrize("variant", ["TransE-CT", "TransE-CG"])
def test_typing_maps_each_link_once(variant, monkeypatch):
    """Under CT one ``affine_tanh`` call per block of 16 links (16 + 16 + 8)
    maps each link's entity, and the window re-score maps none; CG maps
    nothing.  ``long_tail_eval`` maps only its slice."""
    config, params, test, train = planted_typing(variant, 50)
    ct = config.variant.endswith("-CT")
    calls = []

    def counted(m, x, _affine_tanh=evaluation.affine_tanh):
        calls.append(len(x))
        return _affine_tanh(m, x)
    monkeypatch.setattr(evaluation, "affine_tanh", counted)
    monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", 16 * params.concepts.shape[0])
    entity_typing_eval(params, config, test, train)
    assert calls == ([16, 16, 8] if ct else [])
    calls.clear()
    freq = {e: 9 * (i % 3 == 0) for i, e in enumerate(test.rows[:, 0].tolist())}
    rep = long_tail_eval(params, config, test, freq, 5, train)
    assert rep.n_queries == 26
    assert calls == ([16, 10] if ct else [])


_TYPING_THREADS_RUN = """
import json, sys
sys.path.insert(0, {tests!r})
from test_evaluation import planted_typing
from twoview.evaluation import entity_typing_eval
config, params, test, train = planted_typing("TransE-CT", 300, n_links=60)
print(json.dumps(entity_typing_eval(params, config, test, train).ranks))
"""


def test_typing_ranks_independent_of_blas_threads():
    """Whatever the BLAS thread count does to the rounding of the (60 x 50)
    . (50 x 2080) distance matmul, the window must hide it."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import twoview
    src = str(Path(twoview.__file__).resolve().parents[1])
    run = _TYPING_THREADS_RUN.format(tests=str(Path(__file__).resolve().parent))
    ranks = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", run], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        ranks.append(json.loads(out.stdout))
    config, params, test, train = planted_typing("TransE-CT", 300, n_links=60)
    assert ranks[0] == ranks[1] == typing_oracle(params, config, test, train)


class TestLongTailEval:
    def _setup(self):
        kb = random_kb(seed=7)
        config, params = random_model(seed=8, n_e=len(kb.entities),
                                      n_r=len(kb.relations), n_c=len(kb.concepts),
                                      n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(seed=4))
        from twoview.kb import entity_frequency
        freq = entity_frequency(data.instance_train)
        return config, params, data, freq

    def test_huge_threshold_equals_full_eval(self):
        config, params, data, freq = self._setup()
        full = entity_typing_eval(params, config, data.links_test, data.links_train)
        sliced = long_tail_eval(params, config, data.links_test, freq, 10_000,
                                data.links_train)
        assert sliced.mrr == full.mrr
        assert sliced.n_queries == full.n_queries

    def test_threshold_one_empty_slice(self):
        config, params, data, freq = self._setup()
        with pytest.raises(EvalError):
            long_tail_eval(params, config, data.links_test, freq, 1,
                           data.links_train)

    def test_slice_metadata(self):
        config, params, data, freq = self._setup()
        rep = long_tail_eval(params, config, data.links_test, freq, 5,
                             data.links_train)
        assert rep.slice["threshold"] == 5
        assert 0 < rep.slice["n_queries"] <= len(data.links_test)


class TestPopulateRelationQuery:
    def test_single_relation_kb(self):
        config, params = random_model(variant="TransE-CT", n_r=1)
        out = populate_relation_query(params, config, 0, 1, k=5)
        assert len(out) == 1
        assert out[0][0] == 0

    def test_k_larger_than_relation_count(self):
        config, params = random_model(variant="TransE-CT", n_r=4)
        out = populate_relation_query(params, config, 0, 1, k=100)
        assert len(out) == 4
        dists = [d for _, d in out]
        assert dists == sorted(dists)

    def test_variant_gate(self):
        for bad in ("Mult-CT", "HolE-CT", "TransE-CG"):
            d_e, d_c = (8, 8) if bad.endswith("CG") else (8, 6)
            config, params = random_model(variant=bad, d_e=d_e, d_c=d_c)
            with pytest.raises(ConfigError):
                populate_relation_query(params, config, 0, 1, k=3)

    def test_rank_deficient_map_warns_once(self, caplog):
        config = ModelConfig.from_variant("TransE-CT", 8, 6)
        params = ModelParams.init(config, 20, 5, 8, 3, np.random.default_rng(0))
        params.ct_map.W[2] = 0.0                    # float32, rank 5 of 6
        with warnings.catch_warnings(), \
                caplog.at_level(logging.WARNING, logger="twoview.tensor_ops"):
            warnings.simplefilter("error", RuntimeWarning)
            assert len(populate_relation_query(params, config, 0, 1, k=3)) == 3
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == 1 and "rank-deficient" in warned[0]
        assert "inf" not in warned[0]

    def test_invariant_under_relation_permutation(self):
        config, params = random_model(variant="TransE-CT", n_r=6, seed=10)
        out = populate_relation_query(params, config, 2, 3, k=6)
        perm = np.array([3, 0, 5, 1, 4, 2])
        params2 = params.copy()
        params2.relations = params.relations[perm]
        out2 = populate_relation_query(params2, config, 2, 3, k=6)
        # distances decide ranks: the permuted ids map back to the originals
        remapped = [(int(perm[i]), d) for i, d in out2]
        assert [i for i, _ in remapped] == [i for i, _ in out]
        for (_, a), (_, b) in zip(out, remapped):
            assert abs(a - b) < 1e-12


class TestPopulateTripleQuery:
    def test_matches_bruteforce(self):
        config, params = random_model(variant="Mult-CT", seed=11)
        got = populate_triple_query(params, config, 1, 0, k=8)
        from twoview.scoring import score_all_tails
        scores = score_all_tails(config.intra, params.concepts[1],
                                 params.meta_relations[0], params.concepts)
        order = np.argsort(-scores, kind="stable")
        assert [c for c, _ in got] == [int(i) for i in order]

    def test_k_one_is_argmax(self):
        config, params = random_model(variant="TransE-CT", seed=12)
        got = populate_triple_query(params, config, 0, 1, k=1)
        assert len(got) == 1

    def test_filtering_excludes_training_triples(self):
        config, params = random_model(variant="TransE-CT", seed=13)
        full = populate_triple_query(params, config, 0, 0, k=8)
        best = full[0][0]
        filt = TripleStore([Triple(0, 0, best)])
        filtered = populate_triple_query(params, config, 0, 0, k=8,
                                         filter_store=filt)
        assert best not in [c for c, _ in filtered]


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(k):
    """A list of fewer than one candidate is an error, not a slice that
    drops the last candidates."""
    config, params = random_model(variant="TransE-CT", seed=14)
    for query in (lambda: top_tails(params, config.intra, 0, 0, k),
                  lambda: populate_triple_query(params, config, 0, 0, k),
                  lambda: populate_relation_query(params, config, 0, 1, k)):
        with pytest.raises(EvalError, match="k must be at least 1"):
            query()


class TestEvalReport:
    def test_library_reports_leave_filter_mode_unset(self):
        """Only the caller that picks the filter stores can name them."""
        kb = random_kb(seed=8)
        config, params = random_model(seed=1, n_e=len(kb.entities),
                                      n_r=len(kb.relations), n_c=len(kb.concepts),
                                      n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(seed=2))
        reports = [
            triple_completion_eval(params, config.intra, data.instance_test,
                                   [data.instance_train]),
            entity_typing_eval(params, config, data.links_test, data.links_train),
            long_tail_eval(params, config, data.links_test, {}, 1, data.links_train)]
        assert [rep.to_dict()["filter_mode"] for rep in reports] == [None] * 3

    def test_json_fields(self):
        rep = EvalReport(task="t", mrr=0.5, hits={1: 0.25, 10: 0.75},
                         n_queries=4, variant="TransE-CT")
        d = rep.to_dict()
        assert set(d) == {"task", "variant", "mrr", "hits", "n_queries",
                          "slice", "filter_mode"}
        assert d["hits"]["10"] == 0.75

    def test_queries_follow_ranks(self):
        kb = random_kb(seed=8)
        config, params = random_model(seed=1, n_e=len(kb.entities),
                                      n_r=len(kb.relations), n_c=len(kb.concepts),
                                      n_m=len(kb.meta_relations))
        data = prepare_splits(kb, SplitSpec(seed=2))
        rep = triple_completion_eval(params, config.intra, data.instance_test,
                                     [], direction="both")
        h, r, t = next(iter(data.instance_test))
        assert rep.queries[:2] == [((h, r, None), t), ((None, r, t), h)]
        assert len(rep.queries) == len(rep.ranks) == 2 * len(data.instance_test)
        from twoview.kb import entity_frequency
        freq = entity_frequency(data.instance_train)
        rep = long_tail_eval(params, config, data.links_test, freq, 5,
                             data.links_train)
        assert rep.queries == [((e, None), c) for e, c in data.links_test
                               if freq.get(e, 0) < 5]

"""Ranking-based evaluation: filtered triple completion, entity typing,
long-tail typing, and the two ontology-population query types.

``_rank`` places a gold answer among the unfiltered candidates, resolving
ties mid-rank: rank = 1 + #better + ceil(#tied / 2), which is deterministic
and biases neither optimistically nor pessimistically.  ``_top_k`` lists the
best candidates, ties by ascending id.  Translational and multiplicative
triple ranks equal ``rank_candidates`` over ``score`` exactly; correlational
ranks come from the batched scores and may be one off on ulp-close ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ConfigError, EvalError
from .kb import CrossLinkStore, TripleStore
from .model import VIEW_TABLES, CrossKind, ModelConfig, ModelParams
from .scoring import ScorerKind, score, score_all_heads, score_all_tails
from .tensor_ops import AffineMap, affine_tanh, affine_tanh_pinv


@dataclass
class EvalReport:
    """Aggregates for one ranking task.  ``queries[i]`` = (query ids with
    None in the asked slot, gold id) is the query behind ``ranks[i]``."""

    task: str
    mrr: float
    hits: dict[int, float]
    n_queries: int
    variant: str = ""
    filter_mode: str = "train"
    slice: dict | None = None
    ranks: list[int] | None = None
    queries: list[tuple[tuple[int | None, ...], int]] | None = None

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "variant": self.variant,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "n_queries": self.n_queries,
            "slice": self.slice,
            "filter_mode": self.filter_mode,
        }


def rank_candidates(scores: Mapping[int, float], gold: int,
                    filter_set: Iterable[int] = ()) -> int:
    """1-based rank of ``gold`` among the scored candidates.

    Filtered candidates are removed from the universe (the gold answer may
    never be filtered); candidates tied with the gold score contribute half
    a rank each, rounded up.
    """
    filter_set = set(filter_set)
    if gold in filter_set:
        raise EvalError("gold answer may not be in the filter set")
    if gold not in scores:
        raise EvalError("gold answer was not scored")
    gold_score = scores[gold]
    better = 0
    tied = 0
    for cand, s in scores.items():
        if cand == gold or cand in filter_set:
            continue
        if s > gold_score:
            better += 1
        elif s == gold_score:
            tied += 1
    return 1 + better + math.ceil(tied / 2)


def _rank(fast: np.ndarray, gold: int, filter_ids: Iterable[int] = (),
          slack: tuple[float, float] | None = None,
          exact: Callable[[int], float] | None = None) -> int:
    """Mid-rank of ``gold`` by ``fast`` (higher is better) among all
    candidates but ``filter_ids``; the gold itself is never filtered.

    Without ``slack`` the rank is read off ``fast``.  With ``slack = (rel,
    abs)`` such that |fast[c] - exact(c)| <= rel * |fast[c]| + abs, the gold
    and every candidate within both bounds of it are re-scored with
    ``exact``, and the rank equals ``rank_candidates`` over ``exact``.
    Since |fast[c]| <= |fast[gold]| + |diff|, a candidate with |diff| >
    width (below) is outside both bounds.
    """
    keep = np.ones(fast.shape[0], dtype=bool)
    keep[list(filter_ids)] = False
    keep[gold] = False
    if slack is None:
        better = int(np.count_nonzero(keep & (fast > fast[gold])))
        tied = int(np.count_nonzero(keep & (fast == fast[gold])))
        return 1 + better + math.ceil(tied / 2)
    diff = fast - fast[gold]
    rel, abs_ = slack
    width = 2 * (rel * abs(float(fast[gold])) + abs_) / (1 - rel)
    better = int(np.count_nonzero(keep & (diff > width)))
    gold_score = exact(gold)
    rescored = [exact(int(c)) for c in np.flatnonzero(keep & (np.abs(diff) <= width))]
    better += sum(s > gold_score for s in rescored)
    return 1 + better + math.ceil(sum(s == gold_score for s in rescored) / 2)


def _top_k(scores: np.ndarray, k: int | None = None,
           drop: Callable[[int], bool] = lambda c: False) -> list[int]:
    """The ``k`` (default: all) best-scoring ids that ``drop`` keeps, best
    first, ties by ascending id."""
    ids = (int(c) for c in np.argsort(-scores, kind="stable"))
    return list(islice((c for c in ids if not drop(c)), k))


def _slack(kind: ScorerKind, anchor: np.ndarray, r: np.ndarray, heads: bool,
           max_norm: float) -> tuple[float, float] | None:
    """``_rank``'s (rel, abs) bound on |score_all_tails/heads - score| for
    the query fixing ``anchor`` and ``r``; ``max_norm`` bounds every
    candidate row's norm.  Correlational scores are ranked as they are.

    With d the dimension, u the unit roundoff and gamma_m = m u / (1 - m u),
    a sum of m terms each rounded once is off by at most gamma_m times the
    sum of |terms|.  Indices below carry two spare terms, covering
    second-order terms and the rounding of the bound itself.
    * Translational tails: both paths build the same y = fl(fl(h + r) - t)
      and differ only in summing its squares; each norm is within
      gamma_{d+1} ||y||, and ||y|| <= |fast| / (1 - gamma_{d+1}).
    * Translational heads: ``score_all_heads`` builds fl(h - fl(t - r)) and
      ``score`` fl(fl(h + r) - t), each within u/(1-u) (|t - r| + |y_i|)
      resp. u/(1-u) (|h + r| + |y_i|) of h + r - t per element; with
      ||h + r|| <= ||y|| + ||t|| this adds gamma_2 (||t - r|| + ||t||).
    * Multiplicative: each path rounds one product per element and sums d,
      so |fast - score| <= 2 gamma_{d+1} sum_k |h_k r_k t_k|, which by
      Cauchy-Schwarz is at most ||anchor o r|| times the candidate's norm.
    """
    u = np.finfo(anchor.dtype).eps / 2
    m = anchor.shape[0] + 3
    rel = 2 * m * u / (1 - 2 * m * u)       # 2 gamma_m / (1 - gamma_m)
    a, r = anchor.astype(np.float64), r.astype(np.float64)
    if kind is ScorerKind.TRANSLATIONAL:
        extra = np.linalg.norm(a - r) + np.linalg.norm(a) if heads else 0.0
        return rel, 2 * u / (1 - 2 * u) * float(extra)
    if kind is ScorerKind.MULTIPLICATIVE:
        return 0.0, rel * float(np.linalg.norm(a * r)) * max_norm
    return None


def _aggregate(task: str, ranks: list[int], ks=(1, 3, 10), **kw) -> EvalReport:
    n = len(ranks)
    mrr = sum(1.0 / r for r in ranks) / n
    hits = {k: sum(1 for r in ranks if r <= k) / n for k in ks}
    return EvalReport(task=task, mrr=mrr, hits=hits, n_queries=n,
                      ranks=list(ranks), **kw)


def _triple_filter_index(stores: Iterable[TripleStore]):
    """(head, relation) -> tails and (relation, tail) -> heads maps."""
    by_hr: dict[tuple[int, int], set[int]] = {}
    by_rt: dict[tuple[int, int], set[int]] = {}
    for store in stores:
        for h, r, t in store:
            by_hr.setdefault((h, r), set()).add(t)
            by_rt.setdefault((r, t), set()).add(h)
    return by_hr, by_rt


def triple_completion_eval(params: ModelParams, kind: ScorerKind,
                           test: TripleStore,
                           filter_stores: Iterable[TripleStore],
                           view: str = "instance",
                           direction: str = "tail",
                           ks=(1, 3, 10),
                           filter_mode: str = "train") -> EvalReport:
    """Filtered ranking over the full per-view vocabulary.

    For each test triple, all candidate tails are scored; candidates that
    would form a triple present in the filter stores are excluded (never the
    gold); with ``direction="both"`` head queries are ranked too and
    aggregated together.
    """
    if len(test) == 0:
        raise EvalError("test store is empty")
    if direction not in ("tail", "both"):
        raise EvalError(f"unknown direction {direction!r}")
    nodes, edges = (params.table(name) for name in VIEW_TABLES[view])
    by_hr, by_rt = _triple_filter_index(filter_stores)
    max_norm = (float(np.linalg.norm(nodes, axis=1).max())
                if kind is ScorerKind.MULTIPLICATIVE else 0.0)
    ranks, queries = [], []
    for h, r, t in test:
        fast = score_all_tails(kind, nodes[h], edges[r], nodes)
        ranks.append(_rank(fast, t, by_hr.get((h, r), ()),
                           _slack(kind, nodes[h], edges[r], False, max_norm),
                           lambda c: score(kind, nodes[h], edges[r], nodes[c])))
        queries.append(((h, r, None), t))
        if direction == "both":
            fast = score_all_heads(kind, nodes, edges[r], nodes[t])
            ranks.append(_rank(fast, h, by_rt.get((r, t), ()),
                               _slack(kind, nodes[t], edges[r], True, max_norm),
                               lambda c: score(kind, nodes[c], edges[r], nodes[t])))
            queries.append(((None, r, t), h))
    return _aggregate(f"triple_completion_{view}", ranks, ks,
                      filter_mode=filter_mode, queries=queries)


def top_tails(params: ModelParams, kind: ScorerKind, head: int, relation: int,
              k: int, view: str = "instance",
              filter_store: TripleStore | None = None
              ) -> list[tuple[int, float]]:
    """Top-k tails of ``(head, relation, ?)`` by intra-view score, best
    first, ties by ascending id, except those forming a triple of
    ``filter_store``."""
    nodes, edges = (params.table(name) for name in VIEW_TABLES[view])
    scores = score_all_tails(kind, nodes[head], edges[relation], nodes)
    store = filter_store or ()
    return [(c, float(scores[c])) for c in
            _top_k(scores, k, lambda c: (head, relation, c) in store)]


def typing_scores(params: ModelParams, config: ModelConfig,
                  entity: int) -> list[tuple[int, float]]:
    """Concepts ranked by distance from the entity's image in concept space.

    CG measures ||c - e|| directly; CT measures distance from the
    transformed entity.  Ascending distance, stable by concept id on ties.
    """
    distances = concept_distances(params, config, entity)
    return [(c, float(distances[c])) for c in _top_k(-distances)]


def concept_distances(params: ModelParams, config: ModelConfig,
                      entity: int) -> np.ndarray:
    e = params.entities[entity]
    if config.cross == CrossKind.GROUPING:
        point = e
    else:
        point = affine_tanh(params.map("ct"), e)
    return np.linalg.norm(params.concepts - point[None, :], axis=1)


def entity_typing_eval(params: ModelParams, config: ModelConfig,
                       test_links: CrossLinkStore,
                       train_links: CrossLinkStore | None = None,
                       ks=(1, 3, 10),
                       filter_mode: str = "train") -> EvalReport:
    """One ranking query per test link.

    For multi-label entities, the other gold concepts of the same entity
    that appear in the training link set are filtered from the candidates.
    Ranks are read off ``concept_distances`` as they are.
    """
    if len(test_links) == 0:
        raise EvalError("test link store is empty")
    ranks, queries = [], []
    for e, c in test_links:
        distances = concept_distances(params, config, e)
        filt = train_links.by_entity.get(e, ()) if train_links is not None else ()
        ranks.append(_rank(-distances, c, filt))
        queries.append(((e, None), c))
    return _aggregate("entity_typing", ranks, ks, variant=config.variant,
                      filter_mode=filter_mode, queries=queries)


def long_tail_eval(params: ModelParams, config: ModelConfig,
                   test_links: CrossLinkStore, freq: dict[int, int],
                   threshold: int, train_links: CrossLinkStore | None = None,
                   ks=(1, 3, 10)) -> EvalReport:
    """Entity typing restricted to entities seen fewer than ``threshold`` times."""
    if threshold < 1:
        raise EvalError(f"long-tail threshold must be >= 1, got {threshold}")
    kept = [(e, c) for e, c in test_links if freq.get(e, 0) < threshold]
    if not kept:
        raise EvalError(
            f"long-tail slice at threshold {threshold} contains no test links")
    sliced = CrossLinkStore(kept)
    report = entity_typing_eval(params, config, sliced, train_links, ks)
    report.task = "long_tail_typing"
    report.slice = {
        "threshold": threshold,
        "n_queries": len(kept),
        "n_entities": len({e for e, _ in kept}),
    }
    return report


def populate_relation_query(params: ModelParams, config: ModelConfig,
                            c_head: int, c_tail: int,
                            k: int) -> list[tuple[int, float]]:
    """Zero-shot meta-relation discovery for translational CT variants.

    Both concepts are carried back to entity space through the pseudo-inverse
    of the cross-view transformation; instance relations are ranked by
    distance to the difference of the two preimages.
    """
    if config.cross != CrossKind.TRANSFORMATION or \
            config.intra is not ScorerKind.TRANSLATIONAL:
        raise ConfigError(
            "relation population queries are defined only for translational "
            f"CT variants, not {config.variant}")
    m = params.map("ct")
    w_pinv = np.linalg.pinv(np.asarray(m.W, dtype=np.float64))
    m64 = AffineMap(np.asarray(m.W, dtype=np.float64),
                    np.asarray(m.b, dtype=np.float64))
    head_pre = affine_tanh_pinv(m64, np.asarray(params.concepts[c_head], np.float64),
                                w_pinv=w_pinv)
    tail_pre = affine_tanh_pinv(m64, np.asarray(params.concepts[c_tail], np.float64),
                                w_pinv=w_pinv)
    v = tail_pre - head_pre
    distances = np.linalg.norm(params.relations.astype(np.float64) - v[None, :],
                               axis=1)
    return [(i, float(distances[i])) for i in _top_k(-distances, k)]


def populate_triple_query(params: ModelParams, config: ModelConfig,
                          c_head: int, r_meta: int, k: int,
                          filter_store: TripleStore | None = None
                          ) -> list[tuple[int, float]]:
    """Top-k tail concepts for an ontology-view query: ``top_tails``."""
    return top_tails(params, config.intra, c_head, r_meta, k, view="ontology",
                     filter_store=filter_store)

"""Ranking-based evaluation: filtered triple completion, entity typing,
long-tail typing, and the two ontology-population query types.

``_rank`` places each gold answer of a block of queries among its
unfiltered candidates, resolving ties mid-rank: rank = 1 + #better +
ceil(#tied / 2), which is deterministic and biases neither optimistically
nor pessimistically.  ``_top_k`` lists the best candidates, ties by
ascending id.  ``_rank_block`` ranks a block of at most ``BLOCK_ELEMENTS``
query x candidate scores from one matmul, per direction for triple
completion, filtered through the filter stores' own ``lookup``; typing is
the translational tail query (the entity's image, a zero relation, the
concepts).  The batched scores and their rounding window both come from
``scoring``, which forms each scorer's query rows once.  Translational and
multiplicative ranks and ``top_tails`` lists equal ``rank_candidates`` over
``score`` (``concept_distances`` for typing) exactly: the candidates within
``rank_slack``'s window are re-scored by one such call per block over
gathered rows, for typing from the images the block's scores used, so each
entity goes through the CT map once per pass.  Correlational ones come from
the batched scores and may be one off on ulp-close ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ConfigError, EvalError
from .kb import CrossLinkStore, TripleStore
from .model import VIEW_TABLES, CrossKind, ModelConfig, ModelParams
from .scoring import (ScorerKind, rank_slack, score, score_all_heads,
                      score_all_tails, sq_norms)
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
    filter_mode: str | None = None
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


# Cap on one block's query x candidate score matrix: 2 MiB of float32.
BLOCK_ELEMENTS = 1 << 19


def _rank(fast: np.ndarray, gold, drop, width: np.ndarray | None = None,
          exact: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
          ) -> list[int]:
    """Mid-rank of ``gold[i]`` by row i of ``fast`` (higher is better)
    among all candidates but the (row, candidate) pairs indexed by
    ``drop``; the gold itself is never filtered.

    Without ``width`` the ranks are read off ``fast``.  With ``width[i]``
    such that every candidate c with |fast[i, c] - fast[i, gold]| >
    width[i] is ordered against the gold by ``fast`` as by ``score``
    (``rank_slack``), the gold and every candidate inside the window are
    re-scored in one call ``exact(rows, candidates)``, which scores the
    pairs of two index arrays as ``score`` does, and the ranks equal
    ``rank_candidates`` over ``score``.  ``fast`` is overwritten: the
    dropped pairs and the golds become NaN, which no comparison counts.
    """
    rows = np.arange(len(gold))
    g = fast[rows, gold]
    fast[drop] = np.nan
    fast[rows, gold] = np.nan
    if width is None:
        better = np.count_nonzero(fast > g[:, None], axis=1)
        tied = np.count_nonzero(fast == g[:, None], axis=1)
        return (1 + better + (tied + 1) // 2).tolist()
    g = g.astype(np.float64)
    above = fast > _outward(g + width, fast.dtype, np.inf)[:, None]
    near = fast >= _outward(g - width, fast.dtype, -np.inf)[:, None]
    near ^= above   # all above the ceiling are above the floor: keep the window
    better = np.count_nonzero(above, axis=1)
    i, c = np.divmod(np.flatnonzero(near), fast.shape[1])  # 2-D nonzero is ~10x slower
    del above, near     # the masks are not alive while ``exact`` gathers rows
    s = exact(np.concatenate((rows, i)), np.concatenate((gold, c)))
    s, s_gold = s[len(rows):], s[:len(rows)][i]
    better += np.bincount(i[s > s_gold], minlength=len(rows))
    tied = np.bincount(i[s == s_gold], minlength=len(rows))
    return (1 + better + (tied + 1) // 2).tolist()


def _outward(x: np.ndarray, dtype, toward: float) -> np.ndarray:
    """float64 ``x``, one rounding off a real bound, as the nearest value of
    ``dtype`` on the far side of that bound in the direction ``toward``."""
    x = np.nextafter(x, toward)
    y = x.astype(dtype)
    moved_in = y < x if toward > 0 else y > x
    return np.where(moved_in, np.nextafter(y, np.asarray(toward, dtype)), y)


def _top_k(scores: np.ndarray, k: int | None = None,
           kept: np.ndarray | None = None) -> list[int]:
    """The ``k`` (default: all) best-scoring ids, of those the boolean mask
    ``kept`` marks (default: all), best first, ties by ascending id."""
    if k is not None and k < 1:
        raise EvalError(f"k must be at least 1, got {k}")
    ids = np.lexsort((-scores,))                    # stable: ties by ascending id
    return (ids if kept is None else ids[kept[ids]])[:k].tolist()


def _max_norm(table: np.ndarray, sq: np.ndarray | None = None) -> float:
    """Largest row norm of ``table``, computed in its dtype from its
    ``sq_norms`` ``sq`` (None: computed here)."""
    return float(np.sqrt((sq_norms(table) if sq is None else sq).max()))


def _aggregate(task: str, ranks: list[int], ks=(1, 3, 10), **kw) -> EvalReport:
    n = len(ranks)
    mrr = sum(1.0 / r for r in ranks) / n
    hits = {k: sum(1 for r in ranks if r <= k) / n for k in ks}
    return EvalReport(task=task, mrr=mrr, hits=hits, n_queries=n,
                      ranks=list(ranks), **kw)


def _dropped(stores: list, prefix, turn: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(query row i, candidate) per row of ``stores`` (a None is skipped) whose
    columns, turned left ``turn`` places, read ``prefix[i]``, then the candidate."""
    i, v = zip((np.empty(0, np.int64), np.empty((0, 1), np.int64)),
               *(store.lookup(prefix, turn) for store in stores if store))
    return np.concatenate(i), np.concatenate(v)[:, 0]


def _rank_block(kind: ScorerKind, heads: bool, anchor_rows: np.ndarray,
                rel_rows: np.ndarray, table: np.ndarray, table_sq: np.ndarray,
                gold: np.ndarray, drop, exact) -> list[int]:
    """``_rank`` of a block of queries fixing ``anchor_rows[i]`` (the head,
    or the tail if ``heads``) and ``rel_rows[i]``, scored against every row
    of ``table``, whose ``sq_norms`` are ``table_sq``, by one
    ``score_all_*``."""
    fast = (score_all_heads(kind, table, rel_rows, anchor_rows, table_sq) if heads
            else score_all_tails(kind, anchor_rows, rel_rows, table, table_sq))
    width = rank_slack(kind, anchor_rows, rel_rows, heads, _max_norm(table, table_sq),
                   fast[np.arange(len(gold)), gold])
    del anchor_rows, rel_rows   # not alive while ``exact`` gathers rows
    return _rank(fast, gold, drop, width, exact)


def triple_completion_eval(params: ModelParams, kind: ScorerKind,
                           test: TripleStore,
                           filter_stores: Iterable[TripleStore],
                           view: str = "instance",
                           direction: str = "tail",
                           ks=(1, 3, 10)) -> EvalReport:
    """Filtered ranking over the full per-view vocabulary.

    For each test triple, all candidate tails are scored; candidates that
    would form a triple present in the filter stores are excluded (never the
    gold); with ``direction="both"`` head queries are ranked too and
    aggregated together, each right after its triple's tail query.  Test
    triples are scored in blocks of ``BLOCK_ELEMENTS // n`` rows, one
    ``score_all_tails`` and one ``score_all_heads`` call per block.
    """
    if len(test) == 0:
        raise EvalError("test store is empty")
    if direction not in ("tail", "both"):
        raise EvalError(f"unknown direction {direction!r}")
    nodes, edges = (params.table(name) for name in VIEW_TABLES[view])
    filter_stores = list(filter_stores)     # every block reads them
    nodes_sq = sq_norms(nodes)      # once per pass, for every block
    both = direction == "both"
    triples = test.rows
    ranks = np.empty((len(triples), 1 + both), dtype=np.int64)
    step = max(1, BLOCK_ELEMENTS // len(nodes))
    for start in range(0, len(triples), step):
        h, r, t = triples[start:start + step].T
        ranks[start:start + step, 0] = _rank_block(
            kind, False, nodes[h], edges[r], nodes, nodes_sq, t,
            _dropped(filter_stores, triples[start:start + step, :2]),
            lambda i, c: score(kind, nodes[h[i]], edges[r[i]], nodes[c]))
        if both:
            ranks[start:start + step, 1] = _rank_block(
                kind, True, nodes[t], edges[r], nodes, nodes_sq, h,
                _dropped(filter_stores, triples[start:start + step, 1:], turn=1),
                lambda i, c: score(kind, nodes[c], edges[r[i]], nodes[t[i]]))
    queries = [q for h, r, t in triples.tolist()
               for q in (((h, r, None), t), ((None, r, t), h))[:1 + both]]
    return _aggregate(f"triple_completion_{view}", ranks.ravel().tolist(), ks,
                      queries=queries)


def top_tails(params: ModelParams, kind: ScorerKind, head: int, relation: int,
              k: int, view: str = "instance",
              filter_store: TripleStore | None = None
              ) -> list[tuple[int, float]]:
    """Top-k tails of ``(head, relation, ?)`` by intra-view score, best
    first, ties by ascending id, except those forming a triple of
    ``filter_store``.

    Translational and multiplicative lists are exact: the k listed by the
    batched scores and every kept candidate within ``rank_slack``'s window of
    the k-th are re-scored with ``score``, which orders them and gives the
    listed scores.  Any other candidate is below all k listed ones.
    """
    nodes, edges = (params.table(name) for name in VIEW_TABLES[view])
    nodes_sq = sq_norms(nodes)
    fast = score_all_tails(kind, nodes[head], edges[relation], nodes, nodes_sq)
    kept = np.ones(len(fast), dtype=bool)
    kept[_dropped([filter_store], [[head, relation]])[1]] = False
    listed = _top_k(fast, k, kept)
    width = rank_slack(kind, nodes[[head]], edges[[relation]], False,
                   _max_norm(nodes, nodes_sq), fast[listed[-1:]]) if listed else None
    if width is None:
        return [(c, float(fast[c])) for c in listed]
    floor = _outward(float(fast[listed[-1]]) - width, fast.dtype, -np.inf)
    window = np.flatnonzero((fast >= floor) & kept)
    exact = score(kind, nodes[np.full_like(window, head)],
                  edges[np.full_like(window, relation)], nodes[window])
    best = np.lexsort((window, -exact))[:k]
    return list(zip(window[best].tolist(), exact[best].tolist()))


def typing_scores(params: ModelParams, config: ModelConfig,
                  entity: int) -> list[tuple[int, float]]:
    """Every concept by ascending ``concept_distances`` from the entity,
    stable by concept id on ties."""
    distances = concept_distances(params, config, entity)
    return [(c, float(distances[c])) for c in _top_k(-distances)]


def _images(params: ModelParams, config: ModelConfig, e: np.ndarray) -> np.ndarray:
    """Entity rows ``e`` in concept space: e under CG, tanh(W e + b) under CT."""
    return e if config.cross == CrossKind.GROUPING else affine_tanh(params.map("ct"), e)


def _distances(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """fl(||fl(rows - points)||) over the last axis, broadcast."""
    return np.linalg.norm(rows - points, axis=-1)


def concept_distances(params: ModelParams, config: ModelConfig, entity,
                      concepts: np.ndarray | None = None) -> np.ndarray:
    """(n_c,) distances from the image of an int ``entity`` to every concept,
    or (k,) ones of each pair of equal-length id arrays ``entity`` and
    ``concepts``.  Both forms are ``_distances`` of the ``_images`` rows, so
    a pair equals its entry of the full row bitwise."""
    rows = params.concepts if concepts is None else params.concepts[concepts]
    return _distances(_images(params, config, params.entities[entity]), rows)


def entity_typing_eval(params: ModelParams, config: ModelConfig,
                       test_links: CrossLinkStore,
                       train_links: CrossLinkStore | None = None,
                       ks=(1, 3, 10)) -> EvalReport:
    """One ranking query per test link.

    The entity's concepts in ``train_links`` (the filter links), other than
    the gold, are filtered from the candidates.  A block of ``BLOCK_ELEMENTS
    // n_c`` links is mapped by one ``affine_tanh`` call and scored by one
    ``score_all_tails`` call; the window is re-scored by one ``_distances``
    call from the same images, so ranks equal ``rank_candidates`` over
    ``concept_distances``: ``affine_tanh`` maps a block's rows bitwise as
    one at a time, with r = 0 the query row is fl(p + 0) = p for the image
    p, and ``_distances`` computes fl(||fl(x_c - p)||) as ``score`` does,
    so ``rank_slack``'s translational tail bound holds.
    """
    if len(test_links) == 0:
        raise EvalError("test link store is empty")
    links = test_links.rows
    concepts = params.concepts
    concepts_sq = sq_norms(concepts)
    step = max(1, BLOCK_ELEMENTS // concepts.shape[0])
    ranks = []
    for start in range(0, len(links), step):
        ents, gold = links[start:start + step].T
        points = _images(params, config, params.entities[ents])
        ranks += _rank_block(
            ScorerKind.TRANSLATIONAL, False, points,
            np.zeros((len(ents), concepts.shape[1]), concepts.dtype),
            concepts, concepts_sq, gold, _dropped([train_links], ents[:, None]),
            lambda i, c: -_distances(points[i], concepts[c]))
    return _aggregate("entity_typing", ranks, ks, variant=config.variant,
                      queries=[((e, None), c) for e, c in links.tolist()])


def long_tail_eval(params: ModelParams, config: ModelConfig,
                   test_links: CrossLinkStore, freq: dict[int, int],
                   threshold: int, train_links: CrossLinkStore | None = None,
                   ks=(1, 3, 10)) -> EvalReport:
    """Entity typing restricted to entities seen fewer than ``threshold`` times."""
    if threshold < 1:
        raise EvalError(f"long-tail threshold must be >= 1, got {threshold}")
    rows = test_links.rows
    kept = rows[[freq.get(e, 0) < threshold for e in rows[:, 0].tolist()]]
    if not len(kept):
        raise EvalError(
            f"long-tail slice at threshold {threshold} contains no test links")
    report = entity_typing_eval(params, config, CrossLinkStore(kept), train_links, ks)
    report.task = "long_tail_typing"
    report.slice = {
        "threshold": threshold,
        "n_queries": len(kept),
        "n_entities": len(np.unique(kept[:, 0])),
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
    m64 = AffineMap(np.asarray(m.W, dtype=np.float64),
                    np.asarray(m.b, dtype=np.float64))
    head_pre, tail_pre = affine_tanh_pinv(
        m64, params.concepts[[c_head, c_tail]].astype(np.float64))
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

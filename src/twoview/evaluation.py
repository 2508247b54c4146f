"""Ranking-based evaluation: filtered triple completion, entity typing,
long-tail typing, and the two ontology-population query types.

``_rank`` places each gold answer of a block of queries among its
unfiltered candidates, resolving ties mid-rank: rank = 1 + #better +
ceil(#tied / 2), which is deterministic and biases neither optimistically
nor pessimistically.  ``_top_k`` lists the best candidates, ties by
ascending id.  A block holds at most ``BLOCK_ELEMENTS`` query x candidate
scores, from one matmul: per direction for triple completion, filtered by
sorted integer keys; typing is the translational tail query (the entity's
image, a zero relation, the concepts).  Translational and multiplicative
ranks and ``top_tails`` lists equal ``rank_candidates`` over ``score``
(``concept_distances`` for typing) exactly: the candidates within a
rounding window are re-scored by one such call per block over gathered
rows.  Correlational ones come from the batched scores and may be one off
on ulp-close ties.
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
    (``_slack``), the gold and every candidate inside the window are
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
           drop: Callable[[int], bool] = lambda c: False) -> list[int]:
    """The ``k`` (default: all) best-scoring ids that ``drop`` keeps, best
    first, ties by ascending id."""
    ids = (int(c) for c in np.argsort(-scores, kind="stable"))
    return list(islice((c for c in ids if not drop(c)), k))


def _max_norm(table: np.ndarray) -> float:
    """Largest row norm of ``table``, computed in its dtype."""
    return float(np.sqrt(np.einsum("ij,ij->i", table, table).max()))


def _slack(kind: ScorerKind, anchor: np.ndarray, r: np.ndarray, heads: bool,
           max_norm: float, gold_fast: np.ndarray) -> np.ndarray | None:
    """``_rank``'s window half-width for each query row fixing ``anchor[i]``
    (the head, or the tail if ``heads``) and ``r[i]``, whose gold answer has
    the batched score ``gold_fast[i]``; ``max_norm`` bounds every candidate
    row's norm.  Correlational scores are ranked as they are (None).
    Typing is the translational tail case with r = 0: q = fl(p + 0) = p, and
    ``concept_distances`` computes fl(||fl(x_c - p)||) as ``score`` does.

    With d the dimension, u the unit roundoff and gamma_m = m u / (1 - m u),
    a sum of m terms each rounded once is off by at most gamma_m times the
    sum of |terms|.  e(c) bounds |fast(c) - score(c)| for a candidate c.
    * Multiplicative: both paths round one product per element and sum d
      terms, so e(c) <= 2 gamma_{d+1} sum_k |a_k r_k t_k|, which by
      Cauchy-Schwarz is at most 2 gamma_{d+1} ||anchor o r|| max_norm = A
      for every c, and the window is 2 A.  gamma_{d+3} / (1 - gamma_{d+3})
      stands for gamma_{d+1}: the spare terms cover the rounding of
      max_norm and of the bound itself.
    * Translational: q = fl(h + r) for tails, fl(t - r) for heads; delta =
      ||q - x_c|| for the candidate row x_c, sigma = sqrt(max(0, s2)) with
      s2 the computed |q|^2 + |x_c|^2 - 2 q.x_c, and s = -fast(c) =
      fl(sigma).  The three length-d sums and two additions give |s2 -
      delta^2| <= gamma_{d+2} (||q|| + max_norm)^2 = E, and then |sigma -
      delta| = |s2 - delta^2| / (sigma + delta) <= min(sqrt(E), E / sigma)
      (clamping at 0 only narrows the gap), which is at most P(s) =
      min(sqrt(E), E (1 + u) / s).  The final square root adds u sigma.
      ``score`` computes fl(||fl(fl(h + r) - t)||), within gamma_{d+3} of
      its own exact distance delta', and delta' = delta for tails.  For
      heads fl(t - r) and fl(h + r) move delta' from delta by at most
      u (delta + ||t|| + ||t - r||) plus second-order terms.  With delta <=
      s / (1 - u) + sqrt(E) this gives e(c) <= P(s) + k s + B, where k =
      gamma_{d+5} / (1 - u) and B = gamma_{d+5} sqrt(E), plus gamma_2
      (||t|| + ||t - r||) for heads.
      Window: with s_g the gold's s and e_g = e(gold), let W = c (e_g +
      k s_g + B + P(max(0, s_g - W0))), W0 = c (e_g + k s_g + B + sqrt(E))
      and c = 1 / (1 - k), so W <= W0.  A candidate with s > s_g + W has
      e(c) <= P(s_g) + k s + B and s (1 - k) > s_g + e_g + P(s_g) + B, so
      s - s_g > e(c) + e_g.  One with s < s_g - W has e(c) <= P(s) + k s_g
      + B, and s_g - s - P(s) decreases in s (P is constant, then falls
      with slope above -1), so s_g - s - P(s) > W - P(s_g - W0) >= e_g + k
      s_g + B.  Either way |fast(c) - fast(gold)| > e(c) + e_g orders c
      against the gold as ``score`` does.
    Every bound is scaled by 1 + 2**-10.  That covers the second-order
    terms (O(d u) relative), the rounding of max_norm and of the bound in
    float64, and gradual underflow, whose absolute error (d + 2) times the
    smallest subnormal is far below E for rows of any usable norm.
    """
    u = np.finfo(anchor.dtype).eps / 2
    d = anchor.shape[1]
    spare = 1 + 2.0 ** -10

    def gamma(m):
        return m * u / (1 - m * u)

    a, r = anchor.astype(np.float64), r.astype(np.float64)
    if kind is ScorerKind.MULTIPLICATIVE:
        rel = 2 * gamma(d + 3) / (1 - gamma(d + 3))
        return 2 * rel * np.linalg.norm(a * r, axis=1) * max_norm * spare
    if kind is not ScorerKind.TRANSLATIONAL:
        return None
    q = (anchor - r if heads else anchor + r).astype(np.float64)
    q_norm = np.linalg.norm(q, axis=1)
    e2 = gamma(d + 2) * (q_norm + max_norm) ** 2
    root = np.sqrt(e2)
    k = gamma(d + 5) / (1 - u)
    b = gamma(d + 5) * root
    if heads:
        b += gamma(2) * (q_norm + np.linalg.norm(a, axis=1))

    def p(s):
        over = np.divide(e2 * (1 + u), s, out=np.full_like(s, np.inf), where=s > 0)
        return np.minimum(root, over)

    s = -gold_fast.astype(np.float64)
    c = spare / (1 - k)
    e_g = p(s) + k * s + b
    w0 = c * (e_g + k * s + b + root)
    return c * (e_g + k * s + b + p(np.maximum(s - w0, 0.0)))


def _aggregate(task: str, ranks: list[int], ks=(1, 3, 10), **kw) -> EvalReport:
    n = len(ranks)
    mrr = sum(1.0 / r for r in ranks) / n
    hits = {k: sum(1 for r in ranks if r <= k) / n for k in ks}
    return EvalReport(task=task, mrr=mrr, hits=hits, n_queries=n,
                      ranks=list(ranks), **kw)


def _filter_keys(stores: Iterable[TripleStore], n_edges: int, n_nodes: int):
    """(keys, values) sorted by key: h * n_edges + r -> tails and
    r * n_nodes + t -> heads over every triple of ``stores``."""
    h, r, t = np.concatenate([np.empty((0, 3), np.int64),
                              *(s.rows for s in stores)]).T
    out = []
    for keys, values in ((h * n_edges + r, t), (r * n_nodes + t, h)):
        order = np.argsort(keys)
        out.append((keys[order], values[order]))
    return out


def _lookup(index, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) of every entry of ``index`` filed under ``keys[row]``."""
    sorted_keys, values = index
    lo = np.searchsorted(sorted_keys, keys, "left")
    counts = np.searchsorted(sorted_keys, keys, "right") - lo
    rows = np.repeat(np.arange(len(keys)), counts)
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return rows, values[np.arange(len(rows)) + starts]


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
    aggregated together, each right after its triple's tail query.  Test
    triples are scored in blocks of ``BLOCK_ELEMENTS // n`` rows, one
    ``score_all_tails`` and one ``score_all_heads`` call per block.
    """
    n_nodes, n_edges = (params.table(name).shape[0] for name in VIEW_TABLES[view])
    return _ranked_triples(params, kind, test,
                           _filter_keys(filter_stores, n_edges, n_nodes),
                           view, direction, ks, filter_mode)


def _ranked_triples(params: ModelParams, kind: ScorerKind, test: TripleStore,
                    index, view: str = "instance", direction: str = "tail",
                    ks=(1, 3, 10), filter_mode: str = "train") -> EvalReport:
    """``triple_completion_eval`` with the filter stores' ``_filter_keys``
    index built beforehand, so that a caller ranking many times against the
    same stores builds it once."""
    if len(test) == 0:
        raise EvalError("test store is empty")
    if direction not in ("tail", "both"):
        raise EvalError(f"unknown direction {direction!r}")
    nodes, edges = (params.table(name) for name in VIEW_TABLES[view])
    n_nodes, n_edges = nodes.shape[0], edges.shape[0]
    by_hr, by_rt = index
    max_norm = _max_norm(nodes)
    sides = (False, True) if direction == "both" else (False,)
    triples = test.rows
    ranks = np.empty((len(triples), len(sides)), dtype=np.int64)
    step = max(1, BLOCK_ELEMENTS // n_nodes)
    for start in range(0, len(triples), step):
        h, r, t = triples[start:start + step].T
        for j, heads in enumerate(sides):
            if heads:
                fast = score_all_heads(kind, nodes, edges[r], nodes[t])
                gold, anchor, drop = h, t, _lookup(by_rt, r * n_nodes + t)
                exact = lambda i, c: score(kind, nodes[c], edges[r[i]], nodes[t[i]])
            else:
                fast = score_all_tails(kind, nodes[h], edges[r], nodes)
                gold, anchor, drop = t, h, _lookup(by_hr, h * n_edges + r)
                exact = lambda i, c: score(kind, nodes[h[i]], edges[r[i]], nodes[c])
            width = _slack(kind, nodes[anchor], edges[r], heads, max_norm,
                           fast[np.arange(len(gold)), gold])
            ranks[start:start + step, j] = _rank(fast, gold, drop, width, exact)
            del fast    # one block's scores alive at a time
    queries = [q for h, r, t in triples.tolist()
               for q in (((h, r, None), t), ((None, r, t), h))[:len(sides)]]
    return _aggregate(f"triple_completion_{view}", ranks.ravel().tolist(), ks,
                      filter_mode=filter_mode, queries=queries)


def top_tails(params: ModelParams, kind: ScorerKind, head: int, relation: int,
              k: int, view: str = "instance",
              filter_store: TripleStore | None = None
              ) -> list[tuple[int, float]]:
    """Top-k tails of ``(head, relation, ?)`` by intra-view score, best
    first, ties by ascending id, except those forming a triple of
    ``filter_store``.

    Translational and multiplicative lists are exact: the k listed by the
    batched scores and every kept candidate within ``_slack``'s window of
    the k-th are re-scored with ``score``, which orders them and gives the
    listed scores.  Any other candidate is below all k listed ones.
    """
    nodes, edges = (params.table(name) for name in VIEW_TABLES[view])
    fast = score_all_tails(kind, nodes[head], edges[relation], nodes)
    store = filter_store or ()

    def drop(c):
        return (head, relation, c) in store

    listed = _top_k(fast, k, drop)
    width = _slack(kind, nodes[[head]], edges[[relation]], False,
                   _max_norm(nodes), fast[listed[-1:]]) if listed else None
    if width is None:
        return [(c, float(fast[c])) for c in listed]
    floor = _outward(float(fast[listed[-1]]) - width, fast.dtype, -np.inf)
    window = np.array([c for c in np.flatnonzero(fast >= floor).tolist()
                       if not drop(c)], dtype=np.intp)
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


def concept_distances(params: ModelParams, config: ModelConfig, entity,
                      concepts: np.ndarray | None = None) -> np.ndarray:
    """(n_c,) distances from the image of an int ``entity`` to every concept,
    or (k,) ones of each pair of equal-length id arrays ``entity`` and
    ``concepts``.  Both forms compute ``np.linalg.norm(rows - point,
    axis=-1)``, so a pair equals its entry of the full row bitwise."""
    point = _images(params, config, params.entities[entity])
    rows = params.concepts if concepts is None else params.concepts[concepts]
    return np.linalg.norm(rows - point, axis=-1)


def entity_typing_eval(params: ModelParams, config: ModelConfig,
                       test_links: CrossLinkStore,
                       train_links: CrossLinkStore | None = None,
                       ks=(1, 3, 10), filter_mode: str = "train") -> EvalReport:
    """One ranking query per test link.

    The entity's concepts in ``train_links`` (the filter links), other than
    the gold, are filtered from the candidates.  A block of ``BLOCK_ELEMENTS
    // n_c`` links is mapped by one ``affine_tanh`` call and scored by one
    ``score_all_tails`` call; the window is re-scored by one
    ``concept_distances`` call, so ranks equal ``rank_candidates`` over it.
    """
    if len(test_links) == 0:
        raise EvalError("test link store is empty")
    filt = train_links.rows if train_links is not None else np.empty((0, 2), np.int64)
    by_entity = tuple(filt[np.argsort(filt[:, 0], kind="stable")].T)   # for _lookup
    links = test_links.rows
    concepts = params.concepts
    max_norm = _max_norm(concepts)
    step = max(1, BLOCK_ELEMENTS // concepts.shape[0])
    ranks = []
    for start in range(0, len(links), step):
        ents, gold = links[start:start + step].T
        points = _images(params, config, params.entities[ents])
        zeros = np.zeros_like(points)
        fast = score_all_tails(ScorerKind.TRANSLATIONAL, points, zeros, concepts)
        width = _slack(ScorerKind.TRANSLATIONAL, points, zeros, False, max_norm,
                       fast[np.arange(len(gold)), gold])
        ranks += _rank(fast, gold, _lookup(by_entity, ents), width,
                       lambda i, c: -concept_distances(params, config, ents[i], c))
        del fast    # one block's scores alive at a time
    return _aggregate("entity_typing", ranks, ks, variant=config.variant,
                      filter_mode=filter_mode,
                      queries=[((e, None), c) for e, c in links.tolist()])


def long_tail_eval(params: ModelParams, config: ModelConfig,
                   test_links: CrossLinkStore, freq: dict[int, int],
                   threshold: int, train_links: CrossLinkStore | None = None,
                   ks=(1, 3, 10), filter_mode: str = "train") -> EvalReport:
    """Entity typing restricted to entities seen fewer than ``threshold`` times."""
    if threshold < 1:
        raise EvalError(f"long-tail threshold must be >= 1, got {threshold}")
    kept = [(e, c) for e, c in test_links if freq.get(e, 0) < threshold]
    if not kept:
        raise EvalError(
            f"long-tail slice at threshold {threshold} contains no test links")
    report = entity_typing_eval(params, config, CrossLinkStore(kept), train_links,
                                ks, filter_mode)
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

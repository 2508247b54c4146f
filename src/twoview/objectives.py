"""Negative samplers and every training loss: averaged hinge losses with
sparse gradients through the pairs whose bracket is positive.  Each loss is
a gather (ids to (b, d) row blocks), a value kernel (rows to per-pair
brackets), a gradient kernel (the active pairs' rows to gradient blocks)
and one scatter into a GradAccum.  CG, CT and HA share one distance hinge.
Gather and value kernel alone are the value path, ``loss_value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, TwoViewError
from .kb import Triple, _as_rows
from .model import VIEW_TABLES, ModelParams, map_blocks
from .scoring import ScorerKind, score, score_grads
from .tensor_ops import affine_tanh, unit_rows


@dataclass(frozen=True)
class Margins:
    """Hinge margins for the four loss families (all nonnegative)."""

    instance: float = 0.5
    ontology: float = 0.5
    cross: float = 0.5
    hierarchy: float = 0.5

    def __post_init__(self):
        for name in ("instance", "ontology", "cross", "hierarchy"):
            if getattr(self, name) < 0:
                raise ConfigError(f"margin {name} must be >= 0")

    @classmethod
    def defaults_for(cls, kind: ScorerKind) -> "Margins":
        """0.5 everywhere for the translational scorer, 1.0 otherwise."""
        g = 0.5 if kind is ScorerKind.TRANSLATIONAL else 1.0
        return cls(instance=g, ontology=g, cross=g, hierarchy=g)


@dataclass(frozen=True)
class LossWeights:
    """alpha1 scales the ontology intra loss, alpha2 the hierarchy loss,
    omega the whole cross-view term."""

    alpha1: float = 2.5
    alpha2: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ConfigError("alpha weights must be positive")
        if self.omega < 0:
            raise ConfigError("omega must be >= 0 (0 disables cross-view steps)")


@dataclass(frozen=True)
class TripleBatch:
    """Positives with one corrupted negative each, given as (n, 3) id arrays
    or iterables of id rows (``Triple``s, say) and held as the (n, 3) int64
    arrays of ``kb._as_rows``: a float or negative id raises here."""

    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        for name in ("pos", "neg"):
            object.__setattr__(self, name, _as_rows(getattr(self, name), 3))
        if len(self.pos) != len(self.neg):
            raise TwoViewError("positive and negative lists must be parallel")

    def __len__(self):
        return len(self.pos)


@dataclass(frozen=True)
class PairBatch:
    """(anchor, positive second) pairs with one negative second element each:
    cross-view links (entity, concept) or hierarchy pairs (finer, coarser),
    held as ``kb._as_rows`` arrays, (n, 2) and (n,), as ``TripleBatch``
    holds its sides.  Without ``neg_second``, ``cg_loss`` takes its
    pull-only form."""

    pos: np.ndarray
    neg_second: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "pos", _as_rows(self.pos, 2))
        if self.neg_second is not None:
            object.__setattr__(self, "neg_second", _as_rows(self.neg_second, None))
            if len(self.pos) != len(self.neg_second):
                raise TwoViewError("positive and negative lists must be parallel")

    def __len__(self):
        return len(self.pos)


def _merge(ids: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` in first-occurrence order with the sums of their
    rows of ``g``.  A repeated id's rows are summed in occurrence order by one
    1-D ``np.add.at`` over flat element indices, which adds in index order."""
    order = ids.argsort(kind="stable")
    s = ids[order]
    k = np.arange(len(s)) - s.searchsorted(s)       # occurrence number
    reps = k.nonzero()[0]
    if len(reps) == 0:
        return ids, g
    keep = np.sort(order[k == 0])
    out, d = g[keep], g.shape[1]
    flat = keep.searchsorted(order[reps - k[reps]])[:, None] * d + np.arange(d)
    np.add.at(out.reshape(-1), flat.reshape(-1), g[order[reps]].reshape(-1))
    return ids[keep], out


class GradAccum:
    """Sparse gradient, one (ids, g) block per ``ModelParams.blocks()`` name:
    for a table, the distinct row ids in first-occurrence order and their
    summed (n, d) rows, merged as rows are added; for an affine map's W or
    b, ``...`` and the dense array.  ``rows`` views the table blocks as
    {(table, row id): row}, each row a view into its block."""

    def __init__(self):
        self.blocks: dict[str, tuple] = {}

    @property
    def rows(self) -> dict[tuple[str, int], np.ndarray]:
        return {(table, row): g for table, (ids, block) in self.blocks.items()
                if ids is not ... for row, g in zip(ids.tolist(), block)}

    def add_rows(self, name: str, ids, g: np.ndarray) -> None:
        """Add ``g``, taken over, not copied: (n, d) rows at row ``ids``, or
        with ``ids`` ``...`` the whole dense block."""
        old = self.blocks.get(name)
        if ids is ...:
            self.blocks[name] = (..., g if old is None else old[1] + g)
            return
        ids = np.asarray(ids, dtype=np.intp)
        if old is not None:
            ids, g = np.concatenate((old[0], ids)), np.concatenate((old[1], g))
        self.blocks[name] = _merge(ids, g)

    def scale(self, s: float) -> "GradAccum":
        for _, g in self.blocks.values():
            g *= s
        return self


# --------------------------------------------------------------------------
# Negative sampling

MAX_NEGATIVE_TRIES = 100


def sample_negative_triple(pos, store, node_count: int,
                           rng: np.random.Generator,
                           stats: dict | None = None) -> Triple:
    """Corrupt the head or tail (fair coin) of the (head, relation, tail)
    row ``pos`` with a uniform random node until the corrupted triple is
    absent from ``store``.

    The corrupted side is chosen once; only the replacement node is redrawn.
    After MAX_NEGATIVE_TRIES rejections the last candidate is returned and a
    saturation warning is counted (dense toy graphs may have no valid
    negative at all).
    """
    if node_count < 2:
        raise TwoViewError("need at least two nodes to sample negatives")
    corrupt_head = bool(rng.integers(2))
    h, r, t = pos
    for _ in range(MAX_NEGATIVE_TRIES):
        node = int(rng.integers(node_count))
        candidate = Triple(node, r, t) if corrupt_head else Triple(h, r, node)
        if candidate not in store:
            return candidate
    if stats is not None:
        stats["negative_saturation"] = stats.get("negative_saturation", 0) + 1
    return candidate


def sample_negative_concept(anchor: int, positive: int, pair_store,
                            concept_count: int, rng: np.random.Generator,
                            stats: dict | None = None) -> int:
    """Uniform random c' with (anchor, c') absent from ``pair_store``.

    Serves both cross-view links (anchor = entity) and hierarchy pairs
    (anchor = finer concept); saturation is handled as for triples.
    """
    if concept_count < 2:
        raise TwoViewError("need at least two concepts to sample negatives")
    candidate = positive
    for _ in range(MAX_NEGATIVE_TRIES):
        candidate = int(rng.integers(concept_count))
        if (anchor, candidate) not in pair_store:
            return candidate
    if stats is not None:
        stats["negative_saturation"] = stats.get("negative_saturation", 0) + 1
    return candidate


# --------------------------------------------------------------------------
# Losses

def _hinge_mean(bracket: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean over all pairs of the positive brackets, and their mask."""
    if not len(bracket):
        raise TwoViewError("loss batch is empty")
    active = bracket > 0.0
    return float(bracket[active].sum()) * (1.0 / len(bracket)), active


def _hinge(bracket: np.ndarray, gradient) -> tuple[float, GradAccum]:
    """The loss and its gradient: ``gradient(active)`` gives [(block, ids,
    g)], ids ``...`` for a dense map block, added in order, scaled like the mean."""
    value, active = _hinge_mean(bracket)
    grads = GradAccum()
    if active.any():
        for name, ids, g in gradient(active):
            grads.add_rows(name, ids, g)
    return value, grads.scale(1.0 / len(bracket))


def _intra(kind: ScorerKind, batch: TripleBatch, margin: float,
           params: ModelParams, view: str):
    """Brackets margin + f(neg) - f(pos) and the gradient kernel."""
    node_table, edge_table = VIEW_TABLES[view]
    nodes, edges = params.table(node_table), params.table(edge_table)

    def rows(trip):
        return nodes[trip[:, 0]], edges[trip[:, 1]], nodes[trip[:, 2]]

    pos, neg = batch.pos, batch.neg
    bracket = (margin + score(kind, *rows(neg)).astype(np.float64)
               - score(kind, *rows(pos)))

    def gradient(active):   # gathers the active rows again, to keep peak memory down
        trips = np.stack((pos[active], neg[active]))        # (side, pair, slot)
        n, d = trips.shape[1], nodes.shape[1]
        node_g = np.empty((2, 2, n, d), nodes.dtype)        # (side, head/tail, pair)
        edge_g = np.empty((2, n, d), edges.dtype)
        for side, trip in enumerate(trips):                 # positives, then negatives
            node_g[side, 0], edge_g[side], node_g[side, 1] = \
                score_grads(kind, *rows(trip))
        node_g[0] *= -1
        edge_g[0] *= -1
        return [(node_table, trips[:, :, ::2].transpose(0, 2, 1).ravel(),
                 node_g.reshape(-1, d)),
                (edge_table, trips[:, :, 1].ravel(), edge_g.reshape(-1, d))]

    return bracket, gradient


def _distance_hinge(point: np.ndarray, targets, margin: float):
    """Value kernel of CG, CT and HA from ``point`` rows and target rows
    (pos,) or (pos, neg): brackets ||pos - point|| - margin or margin +
    ||pos - point|| - ||neg - point||, and the unit difference rows."""
    units, dists = zip(*(unit_rows(t - point) for t in targets))
    d_pos = dists[0].astype(np.float64)
    return (d_pos - margin if len(dists) == 1 else margin + d_pos - dists[1]), units


def _pairs(batch: PairBatch, margin: float, params: ModelParams,
           map_name: str | None = None):
    """Brackets and gradient kernel of the distance hinge from each anchor's
    point, the entity under CG and tanh(W a + b) under CT and HA (concept
    anchors), to its concept, and to its negative when the batch has them.
    Products with W and dW are ``np.einsum`` calls: a BLAS matmul's sums
    follow its thread count."""
    a, c = batch.pos.T
    if map_name and batch.neg_second is None:
        raise TwoViewError(f"the {map_name.upper()} loss requires negative concepts")
    targets = (c,) if batch.neg_second is None else (c, batch.neg_second)
    anchor_table = "concepts" if map_name == "ha" else "entities"
    anchors, concepts = params.table(anchor_table), params.concepts
    m = None if map_name is None else params.map(map_name)
    fits = (m.d_in, m.d_out) if m else (concepts.shape[1],) * 2
    if (anchors.shape[1], concepts.shape[1]) != fits:
        raise ConfigError(f"{map_name or 'CG'} needs widths {fits}, not {anchor_table}"
                          f"({anchors.shape[1]}) -> concepts({concepts.shape[1]})")
    point = anchors[a] if m is None else affine_tanh(m, anchors[a])
    bracket, units = _distance_hinge(point, (concepts[t] for t in targets), margin)

    def gradient(active):   # gathers the active anchor rows again, as in _intra
        u = [x[active] for x in units]                      # positives, then negatives
        g_point = -u[0] if len(u) == 1 else u[1] - u[0]
        rows = [("concepts", np.concatenate([t[active] for t in targets]),
                 u[0] if len(u) == 1 else np.concatenate((u[0], -u[1])))]
        if m is None:
            return rows + [(anchor_table, a[active], g_point)]
        p = point[active]
        dz = g_point * (1.0 - p * p)                        # tanh'
        w, b = map_blocks(map_name)
        return rows + [(anchor_table, a[active], np.einsum("bo,oi->bi", dz, m.W)),
                       (w, ..., np.einsum("bi,bj->ij", dz, anchors[a[active]])),
                       (b, ..., dz.sum(axis=0))]

    return bracket, gradient


_ct, _ha = partial(_pairs, map_name="ct"), partial(_pairs, map_name="ha")


def intra_hinge_loss(kind: ScorerKind, batch: TripleBatch, margin: float,
                     params: ModelParams, view: str) -> tuple[float, GradAccum]:
    """Margin ranking loss of one view: mean [margin + f(neg) - f(pos)]_+."""
    return _hinge(*_intra(kind, batch, margin, params, view))


def cg_loss(batch: PairBatch, margin: float,
            params: ModelParams) -> tuple[float, GradAccum]:
    """Cross-view grouping loss: mean [||c - e|| - margin]_+, pulling each
    entity inside its concept's margin radius, or, for a batch with
    negatives, the margin-ranking form mean [margin + ||c - e|| - ||c' - e||]_+
    of CT."""
    return _hinge(*_pairs(batch, margin, params))


def ct_loss(batch: PairBatch, margin: float,
            params: ModelParams) -> tuple[float, GradAccum]:
    """Cross-view transformation loss over (entity, concept) links:
    mean [margin + ||c - tanh(W e + b)|| - ||c' - tanh(W e + b)||]_+."""
    return _hinge(*_ct(batch, margin, params))


def ha_loss(batch: PairBatch, margin: float,
            params: ModelParams) -> tuple[float, GradAccum]:
    """Hierarchy loss over (finer, coarser) concept pairs: CT with the HA map."""
    return _hinge(*_ha(batch, margin, params))


_VALUE_PATHS = {intra_hinge_loss: _intra, cg_loss: _pairs, ct_loss: _ct, ha_loss: _ha}


def loss_value(loss, *args) -> float:
    """``loss(*args)[0]`` through the loss's value path alone: its gather
    and value kernel, with no gradient and no scatter."""
    return _hinge_mean(_VALUE_PATHS[loss](*args)[0])[0]


def combine_intra(j_instance: float, j_ontology: float, j_hierarchy: float | None,
                  weights: LossWeights, ha_mode: bool) -> float:
    """Weighted intra-view total: J_GI + alpha1 * J_GO (+ alpha2 * J_HA in
    hierarchy-aware mode, where J_GO covers only the residual triples)."""
    if ha_mode and j_hierarchy is None:
        raise ConfigError("hierarchy-aware mode without a hierarchy loss term")
    if not ha_mode and j_hierarchy is not None:
        raise ConfigError("hierarchy loss supplied outside hierarchy-aware mode")
    total = j_instance + weights.alpha1 * j_ontology
    if ha_mode:
        total += weights.alpha2 * j_hierarchy
    return total


def combine_total(j_intra: float, j_cross: float, omega: float) -> float:
    """Joint loss: J_Intra + omega * J_Cross."""
    if omega < 0:
        raise ConfigError("omega must be >= 0")
    return j_intra + omega * j_cross

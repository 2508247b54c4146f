"""Negative samplers and every training loss, each returning value plus
sparse analytic gradients.

All losses are averaged hinge losses, nonnegative by construction, and
produce gradients only for the embeddings that actually appear in the batch
(plus the affine-map parameters for the transformation losses).  Gradients
flow only through pairs whose margin bracket is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TwoViewError
from .kb import Triple
from .model import VIEW_TABLES, ModelParams
from .scoring import ScorerKind, score, score_grads
from .tensor_ops import affine_tanh


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


@dataclass
class TripleBatch:
    """Positives with one corrupted negative each."""

    pos: list[Triple]
    neg: list[Triple]

    def __post_init__(self):
        if len(self.pos) != len(self.neg):
            raise TwoViewError("positive and negative lists must be parallel")

    def __len__(self):
        return len(self.pos)


@dataclass
class PairBatch:
    """(anchor, positive second) pairs with one negative second element each.

    Used for cross-view links (entity, concept) and hierarchy pairs
    (finer, coarser); ``neg_second`` may be omitted for the loss modes that
    need no negatives.
    """

    pos: list[tuple[int, int]]
    neg_second: list[int] | None = None

    def __post_init__(self):
        if self.neg_second is not None and len(self.pos) != len(self.neg_second):
            raise TwoViewError("positive and negative lists must be parallel")

    def __len__(self):
        return len(self.pos)


class GradAccum:
    """Sparse gradient map: embedding rows keyed by (table, row id) plus
    dense (dW, db) blocks per affine map."""

    def __init__(self):
        self.rows: dict[tuple[str, int], np.ndarray] = {}
        self.maps: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def add_row(self, table: str, row: int, g: np.ndarray) -> None:
        key = (table, row)
        cur = self.rows.get(key)
        if cur is None:
            self.rows[key] = g.copy()
        else:
            cur += g

    def add_map(self, name: str, dW: np.ndarray, db: np.ndarray) -> None:
        cur = self.maps.get(name)
        if cur is None:
            self.maps[name] = (dW.copy(), db.copy())
        else:
            cur_w, cur_b = cur
            cur_w += dW
            cur_b += db

    def scale(self, s: float) -> "GradAccum":
        for g in self.rows.values():
            g *= s
        for dW, db in self.maps.values():
            dW *= s
            db *= s
        return self


# --------------------------------------------------------------------------
# Negative sampling

MAX_NEGATIVE_TRIES = 100


def sample_negative_triple(pos: Triple, store, node_count: int,
                           rng: np.random.Generator,
                           stats: dict | None = None) -> Triple:
    """Corrupt head or tail (fair coin) with a uniform random node until the
    corrupted triple is absent from ``store``.

    The corrupted side is chosen once; only the replacement node is redrawn.
    After MAX_NEGATIVE_TRIES rejections the last candidate is returned and a
    saturation warning is counted (dense toy graphs may have no valid
    negative at all).
    """
    if node_count < 2:
        raise TwoViewError("need at least two nodes to sample negatives")
    corrupt_head = bool(rng.integers(2))
    candidate = pos
    for _ in range(MAX_NEGATIVE_TRIES):
        node = int(rng.integers(node_count))
        if corrupt_head:
            candidate = Triple(node, pos.relation, pos.tail)
        else:
            candidate = Triple(pos.head, pos.relation, node)
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

def intra_hinge_loss(kind: ScorerKind, batch: TripleBatch, margin: float,
                     params: ModelParams, view: str) -> tuple[float, GradAccum]:
    """Margin ranking loss over (positive, corrupted) triple pairs of one view.

    loss = mean_+ [margin + f(neg) - f(pos)]_+ with gradients through every
    pair whose bracket is positive.
    """
    if len(batch) == 0:
        raise TwoViewError("intra-view batch is empty")
    node_table, edge_table = VIEW_TABLES[view]
    nodes = params.table(node_table)
    edges = params.table(edge_table)
    grads = GradAccum()
    total = 0.0
    for pos, neg in zip(batch.pos, batch.neg):
        s_pos = score(kind, nodes[pos.head], edges[pos.relation], nodes[pos.tail])
        s_neg = score(kind, nodes[neg.head], edges[neg.relation], nodes[neg.tail])
        bracket = margin + s_neg - s_pos
        if bracket <= 0.0:
            continue
        total += bracket
        gh, gr, gt = score_grads(kind, nodes[pos.head], edges[pos.relation],
                                 nodes[pos.tail])
        grads.add_row(node_table, pos.head, -gh)
        grads.add_row(edge_table, pos.relation, -gr)
        grads.add_row(node_table, pos.tail, -gt)
        gh, gr, gt = score_grads(kind, nodes[neg.head], edges[neg.relation],
                                 nodes[neg.tail])
        grads.add_row(node_table, neg.head, gh)
        grads.add_row(edge_table, neg.relation, gr)
        grads.add_row(node_table, neg.tail, gt)
    inv = 1.0 / len(batch)
    grads.scale(inv)
    return total * inv, grads


def _unit_or_zero(diff: np.ndarray) -> tuple[np.ndarray, float]:
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        return np.zeros_like(diff), 0.0
    return diff / norm, norm


def cg_loss(batch: PairBatch, margin: float, use_negatives: bool,
            params: ModelParams) -> tuple[float, GradAccum]:
    """Cross-view grouping loss.

    Without negatives: mean [||c - e|| - margin]_+ , pulling each entity
    inside the margin radius of its concept.  With negatives the
    margin-ranking form mean [margin + ||c - e|| - ||c' - e||]_+ is used,
    mirroring the transformation loss.
    """
    if len(batch) == 0:
        raise TwoViewError("cross-view batch is empty")
    if params.entities.shape[1] != params.concepts.shape[1]:
        raise ConfigError("CG requires equal entity and concept dimensions")
    if use_negatives and batch.neg_second is None:
        raise TwoViewError("negative concepts required for the sampled CG mode")
    grads = GradAccum()
    total = 0.0
    for i, (e, c) in enumerate(batch.pos):
        ev = params.entities[e]
        cv = params.concepts[c]
        u_pos, d_pos = _unit_or_zero(cv - ev)
        if use_negatives:
            cn = batch.neg_second[i]
            u_neg, d_neg = _unit_or_zero(params.concepts[cn] - ev)
            bracket = margin + d_pos - d_neg
            if bracket <= 0.0:
                continue
            total += bracket
            grads.add_row("concepts", c, u_pos)
            grads.add_row("concepts", cn, -u_neg)
            grads.add_row("entities", e, -u_pos + u_neg)
        else:
            bracket = d_pos - margin
            if bracket <= 0.0:
                continue
            total += bracket
            grads.add_row("concepts", c, u_pos)
            grads.add_row("entities", e, -u_pos)
    inv = 1.0 / len(batch)
    grads.scale(inv)
    return total * inv, grads


def _transform_hinge(batch: PairBatch, margin: float, params: ModelParams,
                     map_name: str, anchor_table: str,
                     target_table: str) -> tuple[float, GradAccum]:
    """Shared core of the CT and HA losses.

    loss = mean [margin + ||target - tanh(W a + b)|| - ||neg - tanh(W a + b)||]_+
    with gradients for the anchor, both targets and the map itself.
    """
    if len(batch) == 0:
        raise TwoViewError("transformation batch is empty")
    if batch.neg_second is None:
        raise TwoViewError("transformation losses require negative targets")
    m = params.map(map_name)
    anchors = params.table(anchor_table)
    targets = params.table(target_table)
    if m.d_in != anchors.shape[1] or m.d_out != targets.shape[1]:
        raise ConfigError(
            f"map {map_name!r} of shape {m.W.shape} does not fit tables "
            f"{anchor_table}({anchors.shape[1]}) -> {target_table}({targets.shape[1]})")
    grads = GradAccum()
    total = 0.0
    for (a, pos_t), neg_t in zip(batch.pos, batch.neg_second):
        av = anchors[a]
        proj = affine_tanh(m, av)
        u_pos, d_pos = _unit_or_zero(targets[pos_t] - proj)
        u_neg, d_neg = _unit_or_zero(targets[neg_t] - proj)
        bracket = margin + d_pos - d_neg
        if bracket <= 0.0:
            continue
        total += bracket
        grads.add_row(target_table, pos_t, u_pos)
        grads.add_row(target_table, neg_t, -u_neg)
        d_proj = -u_pos + u_neg
        dz = d_proj * (1.0 - proj * proj)  # tanh'
        grads.add_map(map_name, np.outer(dz, av), dz)
        grads.add_row(anchor_table, a, m.W.T @ dz)
    inv = 1.0 / len(batch)
    grads.scale(inv)
    return total * inv, grads


def ct_loss(batch: PairBatch, margin: float,
            params: ModelParams) -> tuple[float, GradAccum]:
    """Cross-view transformation loss over (entity, concept) links."""
    return _transform_hinge(batch, margin, params, "ct", "entities", "concepts")


def ha_loss(batch: PairBatch, margin: float,
            params: ModelParams) -> tuple[float, GradAccum]:
    """Hierarchy loss over (finer, coarser) concept pairs."""
    return _transform_hinge(batch, margin, params, "ha", "concepts", "concepts")


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

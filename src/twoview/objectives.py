"""Negative samplers and every training loss, each returning value plus
sparse analytic gradients.

All losses are averaged hinge losses, nonnegative by construction, and
produce gradients only for the embeddings that actually appear in the batch
(plus the affine-map parameters for the transformation losses).  Gradients
flow only through pairs whose margin bracket is strictly positive.  Each
loss gathers its batch's rows once and scores and differentiates them as
(b, d) blocks; its gradient holds one block per table, the distinct row ids
with their summed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, TwoViewError
from .kb import Triple
from .model import VIEW_TABLES, ModelParams
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


def _id_rows(items, width: int) -> np.ndarray:
    return np.fromiter(chain.from_iterable(items), np.intp,
                       width * len(items)).reshape(-1, width)


class GradAccum:
    """Sparse gradient: per embedding table, one block of the distinct row
    ids in first-occurrence order and their summed (n, d) rows, merged as
    rows are added; plus dense (dW, db) per affine map.  ``rows`` views the
    blocks as {(table, row id): row}, each row a view into its block."""

    def __init__(self):
        self.blocks: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.maps: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def rows(self) -> dict[tuple[str, int], np.ndarray]:
        return {(table, row): g for table, (ids, block) in self.blocks.items()
                for row, g in zip(ids.tolist(), block)}

    def add_rows(self, table: str, ids, g: np.ndarray) -> None:
        """Add the (n, d) rows ``g``, taken over, not copied, at ``ids``."""
        ids = np.asarray(ids, dtype=np.intp)
        if table in self.blocks:
            old_ids, old = self.blocks[table]
            ids, g = np.concatenate((old_ids, ids)), np.concatenate((old, g))
        self.blocks[table] = _merge(ids, g)

    def add_row(self, table: str, row: int, g: np.ndarray) -> None:
        self.add_rows(table, [row], np.array(g)[None])

    def add_map(self, name: str, dW: np.ndarray, db: np.ndarray) -> None:
        cur = self.maps.get(name)
        self.maps[name] = (dW.copy(), db.copy()) if cur is None else \
            (cur[0] + dW, cur[1] + db)

    def scale(self, s: float) -> "GradAccum":
        for _, g in self.blocks.values():
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
    pair whose bracket is positive.  The positives and the negatives are
    each scored, and then differentiated, as one block of rows; each
    table's gradient rows are merged once.
    """
    if len(batch) == 0:
        raise TwoViewError("intra-view batch is empty")
    node_table, edge_table = VIEW_TABLES[view]
    nodes, edges = params.table(node_table), params.table(edge_table)

    def rows(trip):
        return nodes[trip[:, 0]], edges[trip[:, 1]], nodes[trip[:, 2]]

    pos, neg = (_id_rows(side, 3) for side in (batch.pos, batch.neg))
    bracket = (margin + score(kind, *rows(neg)).astype(np.float64)
               - score(kind, *rows(pos)))
    active = bracket > 0.0
    grads = GradAccum()
    if active.any():
        trips = np.stack((pos[active], neg[active]))        # (side, pair, slot)
        n, d = trips.shape[1], nodes.shape[1]
        node_g = np.empty((2, 2, n, d), nodes.dtype)        # (side, head/tail, pair)
        edge_g = np.empty((2, n, d), edges.dtype)
        for side, trip in enumerate(trips):                 # positives, then negatives
            node_g[side, 0], edge_g[side], node_g[side, 1] = \
                score_grads(kind, *rows(trip))
        node_g[0] *= -1
        edge_g[0] *= -1
        grads.add_rows(node_table, trips[:, :, ::2].transpose(0, 2, 1).ravel(),
                       node_g.reshape(-1, d))
        grads.add_rows(edge_table, trips[:, :, 1].ravel(), edge_g.reshape(-1, d))
    inv = 1.0 / len(batch)
    grads.scale(inv)
    return float(bracket[active].sum()) * inv, grads


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
    e, c = _id_rows(batch.pos, 2).T
    ents = params.entities[e]
    u_pos, d_pos = unit_rows(params.concepts[c] - ents)
    if use_negatives:
        cn = np.asarray(batch.neg_second, dtype=np.intp)
        u_neg, d_neg = unit_rows(params.concepts[cn] - ents)
        bracket = margin + d_pos.astype(np.float64) - d_neg
    else:
        bracket = d_pos.astype(np.float64) - margin
    active = bracket > 0.0
    grads = GradAccum()
    if use_negatives:
        grads.add_rows("concepts", np.concatenate((c[active], cn[active])),
                       np.concatenate((u_pos[active], -u_neg[active])))
        grads.add_rows("entities", e[active], u_neg[active] - u_pos[active])
    else:
        grads.add_rows("concepts", c[active], u_pos[active])
        grads.add_rows("entities", e[active], -u_pos[active])
    inv = 1.0 / len(batch)
    grads.scale(inv)
    return float(bracket[active].sum()) * inv, grads


def _transform_hinge(batch: PairBatch, margin: float, params: ModelParams,
                     map_name: str, anchor_table: str,
                     target_table: str) -> tuple[float, GradAccum]:
    """Shared core of the CT and HA losses.

    loss = mean [margin + ||target - tanh(W a + b)|| - ||neg - tanh(W a + b)||]_+
    with gradients for the anchor, both targets and the map itself.  The
    products with W and the map gradient dW, a sum over pairs, are
    ``np.einsum`` calls: a BLAS matmul's sums follow its thread count, and
    its packing buffers add to a run's peak memory.
    """
    if len(batch) == 0:
        raise TwoViewError("transformation batch is empty")
    if batch.neg_second is None:
        raise TwoViewError("transformation losses require negative targets")
    m = params.map(map_name)
    anchors, targets = params.table(anchor_table), params.table(target_table)
    if m.d_in != anchors.shape[1] or m.d_out != targets.shape[1]:
        raise ConfigError(
            f"map {map_name!r} of shape {m.W.shape} does not fit tables "
            f"{anchor_table}({anchors.shape[1]}) -> {target_table}({targets.shape[1]})")
    a, pos_t = _id_rows(batch.pos, 2).T
    neg_t = np.asarray(batch.neg_second, dtype=np.intp)
    av = anchors[a]
    proj = affine_tanh(m, av)
    u_pos, d_pos = unit_rows(targets[pos_t] - proj)
    u_neg, d_neg = unit_rows(targets[neg_t] - proj)
    bracket = margin + d_pos.astype(np.float64) - d_neg
    active = bracket > 0.0
    grads = GradAccum()
    if active.any():
        u_pos, u_neg, proj, av = u_pos[active], u_neg[active], proj[active], av[active]
        grads.add_rows(target_table, np.concatenate((pos_t[active], neg_t[active])),
                       np.concatenate((u_pos, -u_neg)))
        dz = (u_neg - u_pos) * (1.0 - proj * proj)  # tanh'
        grads.add_map(map_name, np.einsum("bi,bj->ij", dz, av), dz.sum(axis=0))
        grads.add_rows(anchor_table, a[active], np.einsum("bo,oi->bi", dz, m.W))
    inv = 1.0 / len(batch)
    grads.scale(inv)
    return float(bracket[active].sum()) * inv, grads


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

"""Per-pair reference forms of the training losses, kept as test oracles.

Each function loops over the batch one pair at a time with 1-D ``score``,
``score_grads`` and ``affine_tanh`` calls and sums gradient rows in a dict
keyed by (table, row id), the way the losses were computed before they were
batched.  Each returns the same (loss, GradAccum) as the batched loss of the
same name in ``twoview.objectives``.

``merge``, ``amsgrad`` and ``project`` are the earlier forms of
``objectives._merge`` (one row-wise ``np.add.at``), ``training._amsgrad``
(one expression per moment and for the step, over the whole block) and
``tensor_ops.project_rows_unit_norm`` (``np.linalg.norm``), which the
current forms match bitwise.
"""

import numpy as np

from twoview.kb import Triple
from twoview.model import VIEW_TABLES, map_blocks
from twoview.objectives import GradAccum
from twoview.scoring import score, score_grads
from twoview.tensor_ops import affine_tanh
from twoview.training import BETA1, BETA2, EPS


def merge(ids, g):
    """``objectives._merge`` with the repeated rows added by one row-wise
    ``np.add.at``."""
    order = ids.argsort(kind="stable")
    s = ids[order]
    k = np.arange(len(s)) - s.searchsorted(s)
    reps = k.nonzero()[0]
    if len(reps) == 0:
        return ids, g
    keep = order[k == 0]
    keep.sort()
    out = g[keep]
    np.add.at(out, keep.searchsorted(order[reps - k[reps]]), g[order[reps]])
    return ids[keep], out


def amsgrad(arr, mom, idx, g, rate):
    """``training._amsgrad`` with each moment and the step one expression."""
    m = BETA1 * mom.m[idx] + (1.0 - BETA1) * g
    v = BETA2 * mom.v[idx] + (1.0 - BETA2) * g * g
    vhat = np.maximum(mom.vhat[idx], v)
    mom.m[idx], mom.v[idx], mom.vhat[idx] = m, v, vhat
    arr[idx] -= (rate * m / (np.sqrt(vhat) + EPS)).astype(arr.dtype)


def project(table, rows):
    """``tensor_ops.project_rows_unit_norm`` through ``np.linalg.norm``, a
    new quotient and ``astype``."""
    block = table[rows].astype(np.float64, copy=False)
    norms = np.linalg.norm(block, axis=1)
    table[rows] = (block / norms[:, None]).astype(table.dtype)


class _Rows:
    """Gradient rows summed one at a time, in the order they are added."""

    def __init__(self):
        self.rows = {}
        self.maps = {}

    def add_row(self, table, row, g):
        cur = self.rows.get((table, row))
        if cur is None:
            self.rows[(table, row)] = g.copy()
        else:
            cur += g

    def add_map(self, name, dW, db):
        cur = self.maps.get(name)
        if cur is None:
            self.maps[name] = (dW.copy(), db.copy())
        else:
            cur_w, cur_b = cur
            cur_w += dW
            cur_b += db

    def result(self, total, n):
        """(mean loss, GradAccum) with every row and map scaled by 1 / n."""
        out = GradAccum()
        for table in dict.fromkeys(table for table, _ in self.rows):
            keys = [key for key in self.rows if key[0] == table]
            out.add_rows(table, [row for _, row in keys],
                         np.array([self.rows[key] for key in keys]))
        for name, pair in self.maps.items():
            for block, g in zip(map_blocks(name), pair):
                out.add_rows(block, ..., g)
        return total / n, out.scale(1.0 / n)


def _unit_or_zero(diff):
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        return np.zeros_like(diff), 0.0
    return diff / norm, norm


def intra_hinge_loss(kind, batch, margin, params, view):
    node_table, edge_table = VIEW_TABLES[view]
    nodes = params.table(node_table)
    edges = params.table(edge_table)
    grads = _Rows()
    total = 0.0
    for pos, neg in zip(batch.pos, batch.neg):
        pos, neg = Triple(*pos), Triple(*neg)       # the positives may be array rows
        s_pos = score(kind, nodes[pos.head], edges[pos.relation], nodes[pos.tail])
        s_neg = score(kind, nodes[neg.head], edges[neg.relation], nodes[neg.tail])
        bracket = margin + s_neg - s_pos
        if bracket <= 0.0:
            continue
        total += bracket
        for sign, t in ((-1.0, pos), (1.0, neg)):
            gh, gr, gt = score_grads(kind, nodes[t.head], edges[t.relation],
                                     nodes[t.tail])
            grads.add_row(node_table, t.head, sign * gh)
            grads.add_row(edge_table, t.relation, sign * gr)
            grads.add_row(node_table, t.tail, sign * gt)
    return grads.result(total, len(batch))


def cg_loss(batch, margin, params):
    grads = _Rows()
    total = 0.0
    for i, (e, c) in enumerate(batch.pos):
        ev = params.entities[e]
        u_pos, d_pos = _unit_or_zero(params.concepts[c] - ev)
        if batch.neg_second is not None:
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
    return grads.result(total, len(batch))


def _transform_hinge(batch, margin, params, map_name, anchor_table, target_table):
    m = params.map(map_name)
    anchors = params.table(anchor_table)
    targets = params.table(target_table)
    grads = _Rows()
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
        dz = (-u_pos + u_neg) * (1.0 - proj * proj)
        grads.add_map(map_name, np.outer(dz, av), dz)
        grads.add_row(anchor_table, a, m.W.T @ dz)
    return grads.result(total, len(batch))


def ct_loss(batch, margin, params):
    return _transform_hinge(batch, margin, params, "ct", "entities", "concepts")


def ha_loss(batch, margin, params):
    return _transform_hinge(batch, margin, params, "ha", "concepts", "concepts")

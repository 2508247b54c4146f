"""Triple plausibility scorers and their analytic gradients.

Three interchangeable score functions over (head, relation, tail) embedding
vectors, higher meaning more plausible.  ``score`` and ``score_grads`` take
(b, d) row blocks, 1-D vectors being the b = 1 case:

* translational:   -||h + r - t||_2
* multiplicative:  (h o t) . r        (Hadamard product)
* correlational:   (h * t) . r        (circular correlation)

``score_all_tails`` and ``score_all_heads`` score a block of b queries, given
as (b, d) anchor and relation rows, against every row of an (n, d)
candidate table with one matmul and return (b, n); 1-D anchor and relation
vectors are the b = 1 case and return (n,).  They compute in the table's
dtype and differ from ``score`` by rounding:

* translational: -sqrt(max(0, |q|^2 + |t|^2 - 2 q.t)) with q = h + r for
  tails and q = t - r for heads.  The three length-d sums and two additions
  put the squared distance within E = gamma_{d+2} (|q| + max|t|)^2 of
  |q - t|^2, so the distance is off by at most min(sqrt(E), E / distance)
  before the final rounding: up to about 1e-2 in float32 at d = 300 where
  q ~ t, and below 1e-4 at the distances of random unit rows;
* multiplicative: one rounded product per element and a d-term dot product,
  within gamma_{d+1} sum_k |h_k r_k t_k| of the exact value;
* correlational: h convolved with r (tails) or r correlated with t (heads)
  as a (b, d) block, then a d-term dot product with each candidate in the
  matmul; no bound is used (HolE ranks are read off these scores).  Each
  circular product, here and in ``score``, is one d-term ``np.einsum`` sum
  per element, so a row's ``score`` does not depend on its block.

gamma_m = m u / (1 - m u) with u the unit roundoff.  ``evaluation._slack``
turns these bounds into the window in which ranks are re-scored exactly.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import TwoViewError
from .tensor_ops import circ_convolution, circ_correlation, unit_rows


class ScorerKind(str, Enum):
    TRANSLATIONAL = "translational"
    MULTIPLICATIVE = "multiplicative"
    CORRELATIONAL = "correlational"


def _rows(h, r, t):
    h, r, t = np.asarray(h), np.asarray(r), np.asarray(t)
    if not (h.shape == r.shape == t.shape) or h.ndim not in (1, 2):
        raise TwoViewError(f"score expects equal-shape vectors or (b, d) blocks, "
                           f"got {h.shape}/{r.shape}/{t.shape}")
    return h, r, t


def score(kind: ScorerKind, h: np.ndarray, r: np.ndarray, t: np.ndarray):
    """Scores of (b, d) row blocks h, r, t as (b,), or of vectors (the b = 1
    case) as a float.  Each row's dot product is one ``np.vecdot``, so its
    score does not depend on the block it is computed in."""
    h, r, t = _rows(h, r, t)
    if kind is ScorerKind.TRANSLATIONAL:
        x = h + r - t
        out = -np.sqrt(np.vecdot(x, x))
    elif kind is ScorerKind.MULTIPLICATIVE:
        out = np.vecdot(h * t, r)
    else:
        out = np.vecdot(circ_correlation(h, t), r)
    return float(out) if h.ndim == 1 else out


def score_grads(kind: ScorerKind, h: np.ndarray, r: np.ndarray,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(df/dh, df/dr, df/dt) for the given scorer, in the arguments' shape.

    The translational gradient at an exact translation (h + r = t) uses the
    zero subgradient.
    """
    h, r, t = _rows(h, r, t)
    if kind is ScorerKind.TRANSLATIONAL:
        u, _ = unit_rows(h + r - t)
        return -u, -u, u
    if kind is ScorerKind.MULTIPLICATIVE:
        return t * r, h * t, h * r
    # correlational: f = sum_{k,i} r_k h_i t_{(k+i)%d}
    return circ_correlation(r, t), circ_correlation(h, t), circ_convolution(h, r)


def _neg_distances(q: np.ndarray, table: np.ndarray) -> np.ndarray:
    """-||q_i - t_j|| for every query row i and table row j, through the
    expansion |q|^2 + |t|^2 - 2 q.t, clamped at zero."""
    out = q @ table.T
    out *= -2
    out += np.einsum("ij,ij->i", q, q)[:, None]
    out += np.einsum("ij,ij->i", table, table)[None, :]
    np.maximum(out, 0, out=out)
    np.sqrt(out, out=out)
    return np.negative(out, out=out)


def score_all_tails(kind: ScorerKind, h: np.ndarray, r: np.ndarray,
                    tails: np.ndarray) -> np.ndarray:
    """Scores of (h_i, r_i, t~) for every query row i and every row t~ of
    ``tails``."""
    single = np.ndim(h) == 1
    h, r = np.atleast_2d(h), np.atleast_2d(r)
    if kind is ScorerKind.TRANSLATIONAL:
        out = _neg_distances(h + r, tails)
    elif kind is ScorerKind.MULTIPLICATIVE:
        out = (h * r) @ tails.T
    else:
        # (h * t) . r = t . (h circularly convolved with r)
        out = circ_convolution(h, r) @ tails.T
    return out[0] if single else out


def score_all_heads(kind: ScorerKind, heads: np.ndarray, r: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
    """Scores of (h~, r_i, t_i) for every query row i and every row h~ of
    ``heads``."""
    single = np.ndim(t) == 1
    r, t = np.atleast_2d(r), np.atleast_2d(t)
    if kind is ScorerKind.TRANSLATIONAL:
        out = _neg_distances(t - r, heads)
    elif kind is ScorerKind.MULTIPLICATIVE:
        out = (t * r) @ heads.T
    else:
        # (h * t) . r = h . (r star t)
        out = circ_correlation(r, t) @ heads.T
    return out[0] if single else out

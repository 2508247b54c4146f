"""Triple plausibility scorers and their analytic gradients.

Three interchangeable score functions over (head, relation, tail) embedding
vectors, higher meaning more plausible.  ``score`` and ``score_grads`` take
(b, d) row blocks, 1-D vectors being the b = 1 case:

* translational:   -||h + r - t||_2
* multiplicative:  (h o t) . r        (Hadamard product)
* correlational:   (h * t) . r        (circular correlation)

``score_all_tails`` and ``score_all_heads`` score a block of b queries, given
as (b, d) anchor and relation rows, against every row of an (n, d)
candidate table and return (b, n); 1-D anchor and relation vectors are the
b = 1 case and return (n,).  Both form one query row per query
(``_query_rows``: h + r or t - r, anchor o r, h convolved with r or r
correlated with t) and score it against the table with one matmul, in the
table's dtype.  They differ from ``score`` by rounding, which
``rank_slack`` bounds from the same query rows.  Each circular product,
here and in ``score``, is one d-term ``np.einsum`` sum per element, so a
row's ``score`` does not depend on its block.
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


def _query_rows(kind: ScorerKind, anchor: np.ndarray, r: np.ndarray,
                heads: bool) -> np.ndarray:
    """The (b, d) query rows q of queries fixing ``anchor`` (the head, or the
    tail if ``heads``) and ``r``: each candidate x scores -||q - x|| under
    the translational scorer and q . x under the others, as ``score`` does
    up to rounding."""
    if kind is ScorerKind.TRANSLATIONAL:
        return anchor - r if heads else anchor + r
    if kind is ScorerKind.MULTIPLICATIVE:
        return anchor * r
    # (h * t) . r = t . (h convolved with r) = h . (r correlated with t)
    return circ_correlation(r, anchor) if heads else circ_convolution(anchor, r)


def _score_all(kind: ScorerKind, anchor, r, table: np.ndarray, heads: bool):
    single = np.ndim(anchor) == 1
    q = _query_rows(kind, np.atleast_2d(anchor), np.atleast_2d(r), heads)
    out = _neg_distances(q, table) if kind is ScorerKind.TRANSLATIONAL else q @ table.T
    return out[0] if single else out


def score_all_tails(kind: ScorerKind, h: np.ndarray, r: np.ndarray,
                    tails: np.ndarray) -> np.ndarray:
    """Scores of (h_i, r_i, t~) for every query row i and every row t~ of
    ``tails``."""
    return _score_all(kind, h, r, tails, False)


def score_all_heads(kind: ScorerKind, heads: np.ndarray, r: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
    """Scores of (h~, r_i, t_i) for every query row i and every row h~ of
    ``heads``."""
    return _score_all(kind, t, r, heads, True)


def rank_slack(kind: ScorerKind, anchor: np.ndarray, r: np.ndarray, heads: bool,
               max_norm: float, gold_fast: np.ndarray) -> np.ndarray | None:
    """Rank window half-width for each query row fixing ``anchor[i]`` (the
    head, or the tail if ``heads``) and ``r[i]``, whose gold answer has the
    batched score ``gold_fast[i]``; ``max_norm`` bounds every candidate
    row's norm.  A candidate whose batched score is farther than the width
    from the gold's is ordered against the gold as by ``score``.
    Correlational scores have no bound (None); their ranks are read off the
    batched scores.

    With d the dimension, u the unit roundoff and gamma_m = m u / (1 - m u),
    a sum of m terms each rounded once is off by at most gamma_m times the
    sum of |terms|.  e(c) bounds |fast(c) - score(c)| for a candidate c, and
    q = ``_query_rows(kind, anchor, r, heads)`` in the table's dtype.
    * Multiplicative: both paths round one product per element and sum d
      terms, so e(c) <= 2 gamma_{d+1} sum_k |a_k r_k t_k|, which by
      Cauchy-Schwarz is at most 2 gamma_{d+1} ||anchor o r|| max_norm = A
      for every c, and the window is 2 A.  gamma_{d+3} / (1 - gamma_{d+3})
      stands for gamma_{d+1}: the spare terms cover the rounding of
      max_norm and of the bound itself.  ||q|| stands for ||anchor o r||.
    * Translational: q = fl(h + r) for tails, fl(t - r) for heads; delta =
      ||q - x_c|| for the candidate row x_c, sigma = sqrt(max(0, s2)) with
      s2 the computed |q|^2 + |x_c|^2 - 2 q.x_c, and s = -fast(c) =
      fl(sigma).  The three length-d sums and two additions give |s2 -
      delta^2| <= gamma_{d+2} (||q|| + max_norm)^2 = E, and then |sigma -
      delta| = |s2 - delta^2| / (sigma + delta) <= min(sqrt(E), E / sigma)
      (clamping at 0 only narrows the gap), which is at most P(s) =
      min(sqrt(E), E (1 + u) / s): up to about 1e-2 in float32 at d = 300
      where q ~ x_c.  The final square root adds u sigma.
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
    float64, the one rounding of each element of a multiplicative q (so
    ||anchor o r|| <= ||q|| / (1 - u)), and gradual underflow, whose
    absolute error (d + 2) times the smallest subnormal is far below E for
    rows of any usable norm.
    """
    if kind is ScorerKind.CORRELATIONAL:
        return None
    u = np.finfo(anchor.dtype).eps / 2
    d = anchor.shape[1]
    spare = 1 + 2.0 ** -10

    def gamma(m):
        return m * u / (1 - m * u)

    q = _query_rows(kind, anchor, r, heads).astype(np.float64)
    q_norm = np.linalg.norm(q, axis=1)
    if kind is ScorerKind.MULTIPLICATIVE:
        rel = 2 * gamma(d + 3) / (1 - gamma(d + 3))
        return 2 * rel * q_norm * max_norm * spare
    e2 = gamma(d + 2) * (q_norm + max_norm) ** 2
    root = np.sqrt(e2)
    k = gamma(d + 5) / (1 - u)
    b = gamma(d + 5) * root
    if heads:
        b += gamma(2) * (q_norm + np.linalg.norm(anchor.astype(np.float64), axis=1))

    def p(s):
        over = np.divide(e2 * (1 + u), s, out=np.full_like(s, np.inf), where=s > 0)
        return np.minimum(root, over)

    s = -gold_fast.astype(np.float64)
    c = spare / (1 - k)
    e_g = p(s) + k * s + b
    w0 = c * (e_g + k * s + b + root)
    return c * (e_g + k * s + b + p(np.maximum(s - w0, 0.0)))

"""Self-check suite: finite-difference validation of every analytic
gradient, the unit-norm audit, and the correlation fast-path comparison.

The gradient checks run in 64-bit at small dimensions; the norm audit runs
``train()`` itself, in float32.  A loss check compares the public loss's
gradient, through ``GradAccum``, with central differences over every
coordinate of the flat parameter vector.  The differences take the loss's
value path, ``objectives.loss_value``: the gather and value kernel that give
the public loss its value, without its gradient and scatter, on tables that
view one shifted vector.  Probe batches are resampled until they sit safely
away from the hinge and norm kinks, where the losses are differentiable and
central differences are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import prepare_splits
from .errors import ConfigError
from .kb import SplitSpec, Triple
from .model import ModelConfig, ModelParams
from .objectives import (GradAccum, PairBatch, TripleBatch, cg_loss, ct_loss,
                         ha_loss, intra_hinge_loss, loss_value)
from .scoring import ScorerKind, score, score_grads
from .synth import SUBCLASS, planted_kb
from .tensor_ops import (AffineMap, affine_tanh, circ_correlation,
                         circ_correlation_fft, finite_diff_check)
from .training import TrainConfig, train

GRADIENT_GATE = 1e-4
# Losses are checked at unit parameter scale; the step balances the eps^2
# truncation error of central differences against the 1-ulp/eps noise on
# structurally-zero coordinates.  Probes are resampled until every hinge
# bracket and distance is at least _KINK_TOL away from its kink, far beyond
# what one finite-difference step can move.
_KINK_TOL = 3e-2
_LOSS_EPS = 3.5e-4
# Coordinates whose analytic gradient nearly (but not exactly) cancels are
# dominated by finite-difference truncation under a relative error metric;
# probes containing them are resampled rather than weakening the gate.
_TINY_COORD = 1e-4


def _well_conditioned(gvec: np.ndarray) -> bool:
    mag = np.abs(gvec)
    return not np.any((mag > 0.0) & (mag < _TINY_COORD))


# --------------------------------------------------------------------------
# Flattening model parameters for the finite-difference checker

def params_to_vector(params: ModelParams) -> np.ndarray:
    """Every parameter in ``params.blocks()`` order, flat, in 64-bit."""
    return np.concatenate([a.ravel() for _, a in params.blocks()]).astype(np.float64)


def vector_to_params(vec: np.ndarray, template: ModelParams) -> ModelParams:
    """``template``'s parameters as views of the blocks of ``vec``."""
    views, pos = [], 0
    for name, a in template.blocks():
        views.append((name, vec[pos:pos + a.size].reshape(a.shape)))
        pos += a.size
    return ModelParams.from_blocks(views)


def grads_to_vector(grads: GradAccum, template: ModelParams) -> np.ndarray:
    parts = []
    for name, a in template.blocks():
        dense = np.zeros(a.shape)
        if name in grads.blocks:
            idx, g = grads.blocks[name]
            dense[idx] = g
        parts.append(dense.ravel())
    return np.concatenate(parts)


def _random_params(rng: np.random.Generator, n_e=6, n_r=4, n_c=6, n_m=4,
                   d_e=8, d_c=8, with_ct=False, with_ha=False) -> ModelParams:
    """Unit-scale random parameters: keeps losses O(1) so the floating-point
    noise floor of the finite-difference quotient stays far below the gate."""

    def rows(n, d):
        block = rng.normal(size=(n, d))
        return block / np.linalg.norm(block, axis=1, keepdims=True)

    ct_map = None
    if with_ct:
        ct_map = AffineMap(rng.normal(size=(d_c, d_e)) / np.sqrt(d_e),
                           rng.normal(size=d_c) * 0.1)
    ha_map = None
    if with_ha:
        ha_map = AffineMap(rng.normal(size=(d_c, d_c)) / np.sqrt(d_c),
                           rng.normal(size=d_c) * 0.1)
    return ModelParams(entities=rows(n_e, d_e), relations=rows(n_r, d_e),
                       concepts=rows(n_c, d_c), meta_relations=rows(n_m, d_c),
                       ct_map=ct_map, ha_map=ha_map)


# --------------------------------------------------------------------------
# Probe construction (resample until away from kinks)

def _scorer_probe(kind: ScorerKind, rng, d=8):
    while True:
        h, r, t = (rng.normal(size=d) for _ in range(3))
        if kind is not ScorerKind.TRANSLATIONAL or \
                np.linalg.norm(h + r - t) > _KINK_TOL:
            return h, r, t


def check_scorer_gradients(kind: ScorerKind, n_probes: int = 100, d: int = 8,
                           seed: int = 0) -> float:
    """Max finite-difference error of score_grads over random probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        h, r, t = _scorer_probe(kind, rng, d)
        point = np.concatenate([h, r, t])

        def loss(vec, kind=kind, d=d):
            return score(kind, vec[:d], vec[d:2 * d], vec[2 * d:])

        grads = np.concatenate(score_grads(kind, h, r, t))
        worst = max(worst, finite_diff_check(loss, grads, point))
    return worst


def _intra_probe(kind: ScorerKind, params: ModelParams, rng, batch_size=3):
    """A triple batch whose brackets are all away from the hinge kink."""
    n_nodes = params.entities.shape[0]
    n_edges = params.relations.shape[0]
    while True:
        pos = [Triple(int(rng.integers(n_nodes)), int(rng.integers(n_edges)),
                      int(rng.integers(n_nodes))) for _ in range(batch_size)]
        neg = [Triple(int(rng.integers(n_nodes)), t.relation,
                      int(rng.integers(n_nodes))) for t in pos]
        sp, sn = (score(kind, params.entities[h], params.relations[r],
                        params.entities[t])
                  for h, r, t in (np.array(pos).T, np.array(neg).T))
        near = np.abs(0.5 + sn - sp) < _KINK_TOL
        if kind is ScorerKind.TRANSLATIONAL:
            near |= (np.abs(sp) < _KINK_TOL) | (np.abs(sn) < _KINK_TOL)
        if not near.any():
            return TripleBatch(pos, neg)


def _gradient_check(probe, n_probes: int, seed: int) -> float:
    """Max finite-difference error of a public loss over ``n_probes``
    probes; ``probe(rng)`` gives (params, loss, args), with ``args(p)`` the
    loss's arguments at parameters p."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        for _attempt in range(50):
            params, loss, args = probe(rng)
            gvec = grads_to_vector(loss(*args(params))[1], params)
            if _well_conditioned(gvec):
                break
        point = params_to_vector(params)
        shifted = point.copy()      # the arguments at ``shifted`` view its blocks
        at_shifted = args(vector_to_params(shifted, params))

        def value(vec, shifted=shifted, loss=loss, at_shifted=at_shifted):
            shifted[:] = vec
            return loss_value(loss, *at_shifted)

        worst = max(worst, finite_diff_check(value, gvec, point, eps=_LOSS_EPS))
    return worst


def check_intra_gradients(kind: ScorerKind, n_probes: int = 50, seed: int = 0) -> float:
    """Finite-difference gate for the intra-view hinge loss."""
    def probe(rng):
        params = _random_params(rng)
        batch = _intra_probe(kind, params, rng)
        return params, intra_hinge_loss, lambda p: (kind, batch, 0.5, p, "instance")

    return _gradient_check(probe, n_probes, seed)


def _pair_probe(params: ModelParams, rng, mode: str, margin=0.5, batch_size=3):
    """Link/hierarchy batches away from hinge and zero-distance kinks; the
    negatives drawn for "cg-plain" are left out of its batch."""
    n_e = params.entities.shape[0]
    n_c = params.concepts.shape[0]
    n_anchors = n_c if mode == "ha" else n_e
    while True:
        pos = [(int(rng.integers(n_anchors)), int(rng.integers(n_c)))
               for _ in range(batch_size)]
        neg = [int(rng.integers(n_c)) for _ in range(batch_size)]
        (a, p), n = np.array(pos).T, np.array(neg)
        if mode == "ha":
            base = affine_tanh(params.ha_map, params.concepts[a])
        elif mode == "ct":
            base = affine_tanh(params.ct_map, params.entities[a])
        else:
            base = params.entities[a]
        d_pos, d_neg = (np.linalg.norm(params.concepts[c] - base, axis=1)
                        for c in (p, n))
        if mode == "cg-plain":
            near = np.abs(d_pos - margin) < _KINK_TOL
        else:
            near = (d_neg < _KINK_TOL) | (np.abs(margin + d_pos - d_neg) < _KINK_TOL)
        if not (near | (d_pos < _KINK_TOL)).any():
            return PairBatch(pos, None if mode == "cg-plain" else neg)


def check_cross_gradients(mode: str, n_probes: int = 50, seed: int = 0) -> float:
    """Finite-difference gate for the CG (both modes), CT and HA losses."""
    if mode not in ("cg-plain", "cg-sampled", "ct", "ha"):
        raise ValueError(f"unknown mode {mode!r}")

    def probe(rng):
        params = _random_params(rng, with_ct=(mode == "ct"), with_ha=(mode == "ha"))
        batch = _pair_probe(params, rng, mode)
        loss = {"ct": ct_loss, "ha": ha_loss}.get(mode, cg_loss)
        return params, loss, lambda p: (batch, 0.5, p)

    return _gradient_check(probe, n_probes, seed)


# --------------------------------------------------------------------------
# Norm audit and correlation comparison

def norm_drift(params: ModelParams) -> float:
    """Max |norm - 1| over entity and concept rows."""
    worst = 0.0
    for table in (params.entities, params.concepts):
        norms = np.linalg.norm(table.astype(np.float64), axis=1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    return worst


def norm_audit(seed: int = 0) -> float:
    """Norm drift after one epoch of HATransE-CT training on the planted KB.

    The epoch runs ``train()`` itself, so every loss family (instance,
    ontology, hierarchy and CT) takes optimizer steps in the real schedule;
    small batches make those steps many.
    """
    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=seed))
    config = TrainConfig(epochs=1, learning_rate=0.01, batch_instance=4,
                         batch_ontology=4, batch_cross=4, batch_hierarchy=4,
                         seed=seed, hierarchical_relations=(SUBCLASS,))
    params, _ = train(data, ModelConfig.from_variant("HATransE-CT", 16, 8),
                      config)
    return norm_drift(params)


def correlation_comparison(n_pairs: int = 100, dims=(4, 50, 300),
                           seed: int = 0) -> float:
    """Max relative difference between the FFT path and the definition,
    each pair's difference scaled by its own largest exact entry."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in dims:
        a, b = rng.normal(size=(2, n_pairs, d))
        ref = circ_correlation(a, b)
        fast = circ_correlation_fft(a, b)
        denom = np.maximum(1e-12, np.max(np.abs(ref), axis=1))
        worst = max(worst, float(np.max(np.max(np.abs(ref - fast), axis=1) / denom)))
    return worst


# --------------------------------------------------------------------------
# The full suite

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_all(n_probes: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run every diagnostic, in a fixed order."""
    if n_probes < 1:
        raise ConfigError(f"n_probes must be at least 1, got {n_probes}")
    results = []

    exact = circ_correlation(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    ok = np.array_equal(exact, np.array([32.0, 29.0, 29.0]))
    results.append(CheckResult("corr-definition", ok, f"[1,2,3]*[4,5,6] = {exact}"))

    diff = correlation_comparison(seed=seed)
    results.append(CheckResult("corr-fastpath", diff < 1e-4,
                               f"max relative difference {diff:.3g}"))

    for kind in ScorerKind:
        err = check_scorer_gradients(kind, n_probes=n_probes, seed=seed)
        results.append(CheckResult(f"grad-scorer-{kind.value}", err < GRADIENT_GATE,
                                   f"max relative error {err:.3g}"))

    for kind in ScorerKind:
        err = check_intra_gradients(kind, n_probes=max(10, n_probes // 2), seed=seed)
        results.append(CheckResult(f"grad-intra-{kind.value}", err < GRADIENT_GATE,
                                   f"max relative error {err:.3g}"))

    for mode in ("cg-plain", "cg-sampled", "ct", "ha"):
        err = check_cross_gradients(mode, n_probes=max(10, n_probes // 2), seed=seed)
        results.append(CheckResult(f"grad-{mode}", err < GRADIENT_GATE,
                                   f"max relative error {err:.3g}"))

    dev = norm_audit(seed=seed)
    results.append(CheckResult("norm-audit", dev < 1e-5,
                               f"max |norm - 1| = {dev:.3g}"))
    return results

"""AMSGrad optimization with sparse updates, the interleaved epoch schedule,
and the unit-norm constraint on entity/concept rows.

An epoch sweeps the instance, ontology, hierarchy (hierarchy-aware variants)
and cross-view (omega > 0) positives, in that source order, leaving out a
source with none.  Each source draws one ``rng.permutation`` of its
positives, in source order, and splits it into batches.  ``_schedule``
interleaves the batches by proportional round-robin: the next step goes to
the source least far along (batches done / its batch count), ties to the
earlier source.  Intra-view steps use the base learning rate (ontology and
hierarchy gradients scaled by their loss weights); cross-view steps use
omega times it.  A non-finite gradient raises, before anything is written,
``TwoViewError("epoch 2, instance batch 3 of 32: non-finite gradient for
entities row 17")``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TwoViewError
from .evaluation import triple_completion_eval
from .kb import HierarchyStore, SplitDataset, TripleStore, extract_hierarchy
from .model import CrossKind, ModelConfig, ModelParams
from .objectives import (GradAccum, LossWeights, Margins, PairBatch,
                         TripleBatch, cg_loss, combine_intra, combine_total,
                         ct_loss, ha_loss, intra_hinge_loss,
                         sample_negative_concept, sample_negative_triple)
from .tensor_ops import project_rows_unit_norm


@dataclass
class _Moments:
    m: np.ndarray
    v: np.ndarray
    vhat: np.ndarray

    @classmethod
    def like(cls, arr: np.ndarray) -> "_Moments":
        return cls(np.zeros_like(arr), np.zeros_like(arr), np.zeros_like(arr))


# AMSGrad moment decay rates and the denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """AMSGrad accumulators (first/second moment and the running max of the
    second moment) of every parameter block, keyed by its ``blocks()`` name."""

    moments: dict[str, _Moments]
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "OptimizerState":
        return cls({name: _Moments.like(arr) for name, arr in params.blocks()})


# rows of these tables are projected back to the unit sphere after each step
_NORM_CONSTRAINED = ("entities", "concepts")


def amsgrad_step(params: ModelParams, state: OptimizerState, grads: GradAccum,
                 rate: float) -> None:
    """One sparse AMSGrad update followed by unit-norm projection.

    Each gradient block, a table's distinct row ids and summed rows or a
    map's dense W or b, is applied as it is.  Only coordinates with a
    gradient entry are touched: m <- b1*m + (1-b1)*g, v <- b2*v +
    (1-b2)*g^2, vhat <- max(vhat, v), theta <- theta - rate * m /
    (sqrt(vhat) + eps).  Touched entity/concept rows are then projected back
    to unit norm; everything else is left bitwise unchanged.
    """
    arrays = dict(params.blocks())
    steps = [(name, idx, g.astype(arrays[name].dtype, copy=False))
             for name, (idx, g) in grads.blocks.items()]
    for name, idx, g in steps:
        finite = np.isfinite(g).all(axis=-1)
        if not finite.all():
            raise TwoViewError(f"non-finite gradient for {name}" + (
                "" if idx is ... else f" row {idx[np.argmin(finite)]}"))
    for name, idx, g in steps:
        _amsgrad(arrays[name], state.moments[name], idx, g, rate)
        if name in _NORM_CONSTRAINED:
            project_rows_unit_norm(arrays[name], idx)
    state.step += 1


def _amsgrad(arr: np.ndarray, mom: _Moments, idx, g: np.ndarray, rate: float) -> None:
    """AMSGrad on ``arr[idx]`` and its moments for gradient ``g``, in place in
    the order b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g, rate*m / (sqrt(vhat) + eps)."""
    m, v = mom.m[idx], mom.v[idx]                   # views when idx is ...
    m *= BETA1
    m += (1.0 - BETA1) * g
    t = (1.0 - BETA2) * g
    t *= g
    v *= BETA2
    v += t
    vhat = np.maximum(mom.vhat[idx], v)
    mom.m[idx], mom.v[idx], mom.vhat[idx] = m, v, vhat
    step = np.sqrt(vhat, out=vhat)                  # vhat is written back
    step += EPS
    arr[idx] -= np.divide(rate * m, step, out=step)


@dataclass(frozen=True)
class TrainConfig:
    """Everything the trainer needs besides the model variant itself.

    Every step pairs each positive with one sampled negative; setting
    ``weights.omega`` to 0 drops the cross-view steps.
    """

    epochs: int = 120
    batch_instance: int = 512
    batch_ontology: int = 128
    batch_cross: int = 512
    batch_hierarchy: int = 64
    learning_rate: float = 0.001
    margins: Margins = field(default_factory=Margins)
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    cross_negative_sampling: bool = True
    hierarchical_relations: tuple[str, ...] = ()
    checkpoint_interval: int = 0
    early_stop_patience: int | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        for name, low in (("epochs", 1), ("batch_instance", 1), ("batch_ontology", 1),
                          ("batch_cross", 1), ("batch_hierarchy", 1), ("seed", 0),
                          ("checkpoint_interval", 0), ("early_stop_patience", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")


@dataclass
class EpochReport:
    """Average loss per component over one epoch, with positive counts."""

    instance_loss: float = 0.0
    ontology_loss: float = 0.0
    hierarchy_loss: float | None = None
    cross_loss: float = 0.0
    n_instance: int = 0
    n_ontology: int = 0
    n_hierarchy: int = 0
    n_cross: int = 0

    def intra_total(self, weights: LossWeights, ha_mode: bool) -> float:
        return combine_intra(self.instance_loss, self.ontology_loss,
                             self.hierarchy_loss, weights, ha_mode)

    def total(self, weights: LossWeights, ha_mode: bool) -> float:
        return combine_total(self.intra_total(weights, ha_mode),
                             self.cross_loss, weights.omega)


def _schedule(batch_counts) -> np.ndarray:
    """(source, batch) rows in ascending order of the key k / batch_counts[s]
    of batch k of source s, ties to the lower s: the order in which always
    stepping the source least far along (batches done / count) runs them."""
    counts = np.asarray(batch_counts, dtype=np.int64)
    source = np.repeat(np.arange(len(counts)), counts)
    batch = np.arange(len(source)) - np.repeat(np.cumsum(counts) - counts, counts)
    order = np.lexsort((source, batch / counts[source]))
    return np.stack((source[order], batch[order]), axis=1)


def sample_negatives(positives: np.ndarray, store, node_count: int,
                     rng: np.random.Generator, stats: dict | None = None) -> np.ndarray:
    """What ``sample_negative_triple`` ((b, 3) positives; (b, 3) negatives)
    or ``sample_negative_concept`` ((b, 2) pairs; (b,) concepts) return when
    called once per positive, with the same saturation count and final
    ``rng`` state.

    Those calls draw through ``Generator.integers``: for n < 2**32, Lemire's
    method on uint32 draws x, giving (x n) >> 32 unless the low word
    (x n) mod 2**32 is below 2**32 mod n, where it draws again.  A positive
    whose first candidate is kept takes w draws: side (x >> 31) then node
    for a triple, node for a pair.  One block holds the draws of every
    remaining positive; those before the first member of ``store`` or
    redraw are kept as drawn, the state is restored and moved on to that
    positive, which the 1-D sampler takes, and the next block starts after
    it.  A node count below 2 or from 2**32 takes the 1-D loop throughout.
    This depends on how numpy draws; the tests compare it with the loop.
    """
    pos = np.asarray(positives, np.int64)
    triples = pos.shape[1] == 3
    width, bound = 2 if triples else 1, (1 << 32) % max(node_count, 1)
    out = pos.copy() if triples else pos[:, 1].copy()
    i, blocked = 0, 2 <= node_count < 1 << 32
    while i < len(pos):
        if blocked:
            saved = rng.bit_generator.state
            x = rng.integers(0, 1 << 32, size=width * (len(pos) - i),
                             dtype=np.uint32).reshape(-1, width)
            m = x[:, -1] * np.uint64(node_count)
            cand = pos[i:].copy()
            column = np.where(x[:, 0] >> 31 == 1, 0, 2) if triples else 1
            cand[np.arange(len(cand)), column] = m >> 32
            bad = ((m & 0xFFFFFFFF) < bound) | store.contains_rows(cand)
            j = int(bad.argmax()) if bad.any() else len(bad)
            out[i:i + j] = cand[:j] if triples else cand[:j, 1]
            if j == len(bad):
                break
            rng.bit_generator.state = saved
            rng.integers(0, 1 << 32, size=width * j, dtype=np.uint32)
            i += j
        # looked up here at call time, so a wrapper installed on the module sees it
        out[i] = (sample_negative_triple(pos[i].tolist(), store, node_count, rng, stats)
                  if triples else sample_negative_concept(
                      *pos[i].tolist(), store, node_count, rng, stats))
        i += 1
    return out


def train_epoch(params: ModelParams, state: OptimizerState, data: SplitDataset,
                model_config: ModelConfig, config: TrainConfig,
                rng: np.random.Generator,
                ontology_store: TripleStore | None = None,
                hierarchy: HierarchyStore | None = None,
                stats: dict | None = None) -> EpochReport:
    """One pass over all training stores with interleaved optimizer steps.
    ``ontology_store`` is the store swept for the ontology intra loss (the
    residual store in hierarchy-aware mode; by default the train split)."""
    if ontology_store is None:
        ontology_store = data.ontology_train
    ha = model_config.hierarchy_aware
    if ha and (hierarchy is None or len(hierarchy) == 0):
        raise ConfigError("hierarchy-aware training requires extracted hierarchy pairs")

    kind, margins, weights = model_config.intra, config.margins, config.weights
    eta, omega = config.learning_rate, weights.omega
    n_e, n_c = len(data.entities), len(data.concepts)
    links = data.links_train

    # each step maps a batch of positives to (loss, gradients, rate)
    def instance(pos):
        negs = sample_negatives(pos, data.instance_train, n_e, rng, stats)
        loss, grads = intra_hinge_loss(kind, TripleBatch(pos, negs),
                                       margins.instance, params, "instance")
        return loss, grads, eta

    def ontology(pos):
        negs = sample_negatives(pos, ontology_store, n_c, rng, stats)
        loss, grads = intra_hinge_loss(kind, TripleBatch(pos, negs),
                                       margins.ontology, params, "ontology")
        return loss, grads.scale(weights.alpha1), eta

    def hierarchy_step(pos):
        negs = sample_negatives(pos, hierarchy, n_c, rng, stats)
        loss, grads = ha_loss(PairBatch(pos, negs), margins.hierarchy, params)
        return loss, grads.scale(weights.alpha2), eta

    def cross(pos):     # without negatives, the CG pull-only form
        batch = PairBatch(pos, sample_negatives(pos, links, n_c, rng, stats)
                          if config.cross_negative_sampling else None)
        loss = ct_loss if model_config.cross == CrossKind.TRANSFORMATION else cg_loss
        return *loss(batch, margins.cross, params), omega * eta

    sources = [src for src in (
        ("instance", data.instance_train.rows, config.batch_instance, instance),
        ("ontology", ontology_store.rows, config.batch_ontology, ontology),
        ("hierarchy", hierarchy.rows if ha else (), config.batch_hierarchy,
         hierarchy_step),
        ("cross", links.rows if omega > 0 else (), config.batch_cross, cross),
    ) if len(src[1])]
    orders = [rng.permutation(len(items)) for _, items, _, _ in sources]
    n_batches = [-(-len(items) // size) for _, items, size, _ in sources]
    sums = dict.fromkeys(("instance", "ontology", "hierarchy", "cross"), 0.0)
    counts = dict.fromkeys(sums, 0)
    for s, k in _schedule(n_batches).tolist():
        name, rows, size, step = sources[s]
        positives = rows[orders[s][k * size:(k + 1) * size]]
        try:
            loss, grads, rate = step(positives)
            amsgrad_step(params, state, grads, rate)
        except TwoViewError as exc:
            exc.args = (f"{name} batch {k + 1} of {n_batches[s]}: {exc}",)
            raise
        sums[name] += loss * len(positives)
        counts[name] += len(positives)

    means = {name: sums[name] / counts[name] if counts[name] else 0.0
             for name in sums}
    return EpochReport(means["instance"], means["ontology"],
                       means["hierarchy"] if ha else None, means["cross"],
                       *counts.values())


def check_variant(model_config: ModelConfig, config: TrainConfig) -> None:
    """Refuse a training config the variant cannot train with: a
    hierarchy-aware variant needs hierarchical relation names, and the CT
    loss is defined with cross-view negatives."""
    if model_config.hierarchy_aware and not config.hierarchical_relations:
        raise ConfigError("hierarchy-aware variants need hierarchical relation "
                          "names (dataset.hierarchical_relations)")
    if model_config.cross == CrossKind.TRANSFORMATION and not config.cross_negative_sampling:
        raise ConfigError("the cross-view negative-sampling toggle applies only to CG; "
                          "the CT loss is defined with negatives")


def train(data: SplitDataset, model_config: ModelConfig, config: TrainConfig,
          epoch_callback=None) -> tuple[ModelParams, list[EpochReport]]:
    """Train a variant from fresh initialization.

    Parameters are float32.  Entity/concept/relation vectors start uniformly
    on the unit sphere, affine-map weights random orthogonal with zero
    biases.  Returns the final parameters and the per-epoch loss history.
    When ``early_stop_patience`` is set and a validation split is present,
    training stops after that many epochs without filtered-MRR improvement
    on the instance validation triples, and the parameters of the epoch
    with the best validation MRR are returned instead.
    """
    check_variant(model_config, config)
    ontology_store, hierarchy = data.ontology_train, None
    if model_config.hierarchy_aware:
        hierarchy, ontology_store = extract_hierarchy(
            data.ontology_train, list(config.hierarchical_relations),
            data.meta_relations, data.concepts)
        if len(hierarchy) == 0:
            raise ConfigError(
                "hierarchy-aware training found no hierarchy triples in the "
                "ontology train split")

    rng = np.random.default_rng(config.seed)
    params = ModelParams.init(model_config, len(data.entities), len(data.relations),
                              len(data.concepts), len(data.meta_relations), rng)
    state = OptimizerState.init(params)
    history: list[EpochReport] = []
    stats: dict = {}

    early_stop = config.early_stop_patience and len(data.instance_valid)
    best_mrr, best_params, stale = -1.0, None, 0
    for epoch in range(config.epochs):
        try:
            report = train_epoch(params, state, data, model_config, config, rng,
                                 ontology_store=ontology_store,
                                 hierarchy=hierarchy, stats=stats)
        except TwoViewError as exc:
            exc.args = (f"epoch {epoch + 1}, {exc}",)
            raise
        history.append(report)
        if epoch_callback is not None:
            epoch_callback(epoch, params, report)
        if early_stop:
            rep = triple_completion_eval(params, model_config.intra,
                                         data.instance_valid, [data.instance_train])
            if best_params is None or rep.mrr > best_params[0]:
                best_params = (rep.mrr, params.copy())
            if rep.mrr > best_mrr + 1e-4:
                best_mrr = rep.mrr
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break
    if stats.get("negative_saturation"):
        logging.getLogger(__name__).warning(
            "negative sampling saturated %d time(s); the graph may be too "
            "dense for valid negatives", stats["negative_saturation"])
    if best_params is not None:
        params = best_params[1]
    return params, history

"""AMSGrad optimization with sparse updates, the alternating epoch schedule,
and the unit-norm constraint on entity/concept rows.

Within an epoch, batches from the instance graph, the ontology graph, the
hierarchy pairs (when enabled) and the cross-view links are interleaved by a
proportional round-robin, so every store is swept about once per epoch.
Intra-view steps use the base learning rate (with the ontology and hierarchy
gradients scaled by their loss weights); cross-view steps use omega times the
base rate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TwoViewError
from .kb import (CrossLinkStore, HierarchyStore, TripleStore, Vocab,
                 extract_hierarchy)
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
    """Per-parameter AMSGrad accumulators (first/second moment and the
    running max of the second moment)."""

    tables: dict[str, _Moments]
    maps: dict[str, tuple[_Moments, _Moments]]
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "OptimizerState":
        tables = {name: _Moments.like(params.table(name))
                  for name in ModelParams.TABLES}
        maps = {}
        for name in ("ct", "ha"):
            m = params.ct_map if name == "ct" else params.ha_map
            if m is not None:
                maps[name] = (_Moments.like(m.W), _Moments.like(m.b))
        return cls(tables=tables, maps=maps)


# rows of these tables are projected back to the unit sphere after each step
_NORM_CONSTRAINED = ("entities", "concepts")


def amsgrad_step(params: ModelParams, state: OptimizerState, grads: GradAccum,
                 rate: float) -> None:
    """One sparse AMSGrad update followed by unit-norm projection.

    Only coordinates with a gradient entry are touched: m <- b1*m + (1-b1)*g,
    v <- b2*v + (1-b2)*g^2, vhat <- max(vhat, v), theta <- theta -
    rate * m / (sqrt(vhat) + eps).  Touched entity/concept rows are then
    projected back to unit norm; everything else is left bitwise unchanged.
    """
    for (table, row), g in grads.rows.items():
        if not np.all(np.isfinite(g)):
            raise TwoViewError(f"non-finite gradient for {table} row {row}")
    for name, (dW, db) in grads.maps.items():
        if not (np.all(np.isfinite(dW)) and np.all(np.isfinite(db))):
            raise TwoViewError(f"non-finite gradient for affine map {name!r}")

    by_table: dict[str, tuple[list[int], list[np.ndarray]]] = {}
    for (table, row), g in grads.rows.items():
        ids, gs = by_table.setdefault(table, ([], []))
        ids.append(row)
        gs.append(g)

    b1, b2, eps = BETA1, BETA2, EPS
    for table, (ids, gs) in by_table.items():
        arr = params.table(table)
        mom = state.tables[table]
        idx = np.asarray(ids, dtype=np.intp)
        g = np.asarray(gs, dtype=arr.dtype)
        m_new = b1 * mom.m[idx] + (1.0 - b1) * g
        v_new = b2 * mom.v[idx] + (1.0 - b2) * g * g
        vhat_new = np.maximum(mom.vhat[idx], v_new)
        mom.m[idx] = m_new
        mom.v[idx] = v_new
        mom.vhat[idx] = vhat_new
        arr[idx] -= (rate * m_new / (np.sqrt(vhat_new) + eps)).astype(arr.dtype)
        if table in _NORM_CONSTRAINED:
            project_rows_unit_norm(arr, idx)

    for name, (dW, db) in grads.maps.items():
        amap = params.map(name)
        mom_w, mom_b = state.maps[name]
        for mom, arr, g in ((mom_w, amap.W, dW), (mom_b, amap.b, db)):
            g = g.astype(arr.dtype, copy=False)
            mom.m = b1 * mom.m + (1.0 - b1) * g
            mom.v = b2 * mom.v + (1.0 - b2) * g * g
            mom.vhat = np.maximum(mom.vhat, mom.v)
            arr -= (rate * mom.m / (np.sqrt(mom.vhat) + eps)).astype(arr.dtype)

    state.step += 1


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
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        for name in ("batch_instance", "batch_ontology", "batch_cross",
                     "batch_hierarchy"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass
class SplitDataset:
    """Train/valid/test material plus the vocabularies they are encoded in."""

    entities: Vocab
    relations: Vocab
    concepts: Vocab
    meta_relations: Vocab
    instance_train: TripleStore
    instance_valid: TripleStore
    instance_test: TripleStore
    ontology_train: TripleStore
    ontology_valid: TripleStore
    ontology_test: TripleStore
    links_train: CrossLinkStore
    links_test: CrossLinkStore


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


class _Sweep:
    """One shuffled pass over a list of positives, yielded in batches."""

    def __init__(self, items: list, batch_size: int, rng: np.random.Generator):
        self.items = items
        self.order = rng.permutation(len(items))
        self.batch_size = batch_size
        self.pos = 0
        self.n_batches = max(1, -(-len(items) // batch_size)) if items else 0

    @property
    def batches_done(self) -> int:
        return -(-self.pos // self.batch_size) if self.pos else 0

    def next_batch(self) -> list:
        chunk = self.order[self.pos:self.pos + self.batch_size]
        self.pos += len(chunk)
        return [self.items[i] for i in chunk]

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def train_epoch(params: ModelParams, state: OptimizerState, data: SplitDataset,
                model_config: ModelConfig, config: TrainConfig,
                rng: np.random.Generator,
                ontology_store: TripleStore | None = None,
                hierarchy: HierarchyStore | None = None,
                stats: dict | None = None) -> EpochReport:
    """One pass over all training stores with interleaved optimizer steps.

    ``ontology_store`` is the store actually swept for the ontology intra
    loss (the residual store in hierarchy-aware mode); it defaults to the
    full ontology train split.
    """
    if ontology_store is None:
        ontology_store = data.ontology_train
    ha = model_config.hierarchy_aware
    if ha and (hierarchy is None or len(hierarchy) == 0):
        raise ConfigError("hierarchy-aware training requires extracted hierarchy pairs")

    eta = config.learning_rate
    omega = config.weights.omega
    n_e = len(data.entities)
    n_c = len(data.concepts)

    sweeps = {"instance": _Sweep(list(data.instance_train), config.batch_instance, rng)}
    if len(ontology_store):
        sweeps["ontology"] = _Sweep(list(ontology_store), config.batch_ontology, rng)
    if ha:
        sweeps["hierarchy"] = _Sweep(list(hierarchy), config.batch_hierarchy, rng)
    if omega > 0 and len(data.links_train):
        sweeps["cross"] = _Sweep(list(data.links_train), config.batch_cross, rng)

    sums = {name: 0.0 for name in sweeps}
    counts = {name: 0 for name in sweeps}
    order = [k for k in ("instance", "ontology", "hierarchy", "cross") if k in sweeps]

    while any(not s.exhausted() for s in sweeps.values()):
        # proportional round-robin: step the source that is least far along
        name = min((k for k in order if not sweeps[k].exhausted()),
                   key=lambda k: sweeps[k].batches_done / sweeps[k].n_batches)
        positives = sweeps[name].next_batch()

        if name == "instance":
            negs = [sample_negative_triple(p, data.instance_train, n_e, rng, stats)
                    for p in positives]
            loss, grads = intra_hinge_loss(
                model_config.intra, TripleBatch(positives, negs),
                config.margins.instance, params, "instance")
            amsgrad_step(params, state, grads, eta)
        elif name == "ontology":
            negs = [sample_negative_triple(p, ontology_store, n_c, rng, stats)
                    for p in positives]
            loss, grads = intra_hinge_loss(
                model_config.intra, TripleBatch(positives, negs),
                config.margins.ontology, params, "ontology")
            amsgrad_step(params, state, grads.scale(config.weights.alpha1), eta)
        elif name == "hierarchy":
            negs = [sample_negative_concept(lo, hi, hierarchy, n_c, rng, stats)
                    for lo, hi in positives]
            loss, grads = ha_loss(PairBatch(positives, negs),
                                  config.margins.hierarchy, params)
            amsgrad_step(params, state, grads.scale(config.weights.alpha2), eta)
        else:  # cross
            if model_config.cross == CrossKind.TRANSFORMATION:
                negs = [sample_negative_concept(e, c, data.links_train, n_c, rng, stats)
                        for e, c in positives]
                loss, grads = ct_loss(PairBatch(positives, negs),
                                      config.margins.cross, params)
            else:
                if config.cross_negative_sampling:
                    negs = [sample_negative_concept(e, c, data.links_train, n_c,
                                                    rng, stats)
                            for e, c in positives]
                    loss, grads = cg_loss(PairBatch(positives, negs),
                                          config.margins.cross, True, params)
                else:
                    loss, grads = cg_loss(PairBatch(positives),
                                          config.margins.cross, False, params)
            amsgrad_step(params, state, grads, omega * eta)

        sums[name] += loss * len(positives)
        counts[name] += len(positives)

    def mean(name):
        return sums[name] / counts[name] if counts.get(name) else 0.0

    return EpochReport(
        instance_loss=mean("instance"),
        ontology_loss=mean("ontology"),
        hierarchy_loss=mean("hierarchy") if ha else None,
        cross_loss=mean("cross"),
        n_instance=counts.get("instance", 0),
        n_ontology=counts.get("ontology", 0),
        n_hierarchy=counts.get("hierarchy", 0),
        n_cross=counts.get("cross", 0),
    )


def train(data: SplitDataset, model_config: ModelConfig, config: TrainConfig,
          epoch_callback=None) -> tuple[ModelParams, list[EpochReport]]:
    """Train a variant from fresh initialization.

    Parameters are float32.  Entity/concept/relation vectors start uniformly
    on the unit sphere,
    affine-map weights start random orthogonal with zero biases.  Returns
    the final parameters and the per-epoch loss history.  When
    ``early_stop_patience`` is set and a validation split is present,
    training stops after that many epochs without filtered-MRR improvement
    on the instance validation triples, and the parameters of the epoch
    with the best validation MRR are returned instead.
    """
    if model_config.cross == CrossKind.GROUPING and model_config.d_e != model_config.d_c:
        raise ConfigError("CG requires d_e == d_c")

    ontology_store = data.ontology_train
    hierarchy = None
    if model_config.hierarchy_aware:
        if not config.hierarchical_relations:
            raise ConfigError(
                "hierarchy-aware training requires hierarchical relation names")
        hierarchy, ontology_store = extract_hierarchy(
            data.ontology_train, list(config.hierarchical_relations),
            data.meta_relations)
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
    log = logging.getLogger(__name__)

    best_mrr = -1.0
    best_params = None
    stale = 0
    for epoch in range(config.epochs):
        report = train_epoch(params, state, data, model_config, config, rng,
                             ontology_store=ontology_store, hierarchy=hierarchy,
                             stats=stats)
        history.append(report)
        if epoch_callback is not None:
            epoch_callback(epoch, params, report)
        if config.early_stop_patience and len(data.instance_valid):
            from .evaluation import triple_completion_eval
            rep = triple_completion_eval(params, model_config.intra,
                                         data.instance_valid,
                                         [data.instance_train], view="instance")
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
        log.warning("negative sampling saturated %d time(s); the graph may be "
                    "too dense for valid negatives", stats["negative_saturation"])
    if best_params is not None:
        params = best_params[1]
    return params, history

"""The benchmark's traced run (perfbench/) wraps package functions by name,
on the module that looks them up at call time.  A target that is renamed,
moved or no longer called with the arguments its hook expects is marked
missing, and its per-layer metrics turn null.  This guard installs the same
probe over one small training epoch per traced variant, one eval pass per
traced task and one ``typing_scores`` query."""

import sys
from pathlib import Path

from twoview.dataio import prepare_splits
from twoview.evaluation import (entity_typing_eval, triple_completion_eval,
                                typing_scores)
from twoview.kb import SplitSpec
from twoview.model import ModelConfig
from twoview.objectives import Margins
from twoview.synth import planted_kb
from twoview.training import TrainConfig, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_is_found():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=5))
    tracer = tracing.Tracer()
    probe = tracing.Probe(tracer, workloads.targets())
    probe.install()
    try:
        trained = {}
        for variant in ("TransE-CT", "HAHolE-CT"):
            model = ModelConfig.from_variant(variant, 16, 8)
            config = TrainConfig(
                epochs=1, seed=1, margins=Margins.defaults_for(model.intra),
                hierarchical_relations=("subclass_of",) if model.hierarchy_aware
                else ())
            trained[variant] = model, train(data, model, config)[0]
        model, params = trained["TransE-CT"]
        triple_completion_eval(params, model.intra, data.instance_test,
                               [data.instance_train], direction="both")
        entity_typing_eval(params, model, data.links_test, data.links_train)
        typing_scores(params, model, 0)     # the CLI's `predict type`
    finally:
        probe.uninstall()
    assert tracer.missing == set()
    for name in ("intra_loss", "ct_loss", "ha_loss", "score_all",
                 "concept_distances", "circ.d16"):
        assert tracer.agg(name).count > 0, name
    # a call site that binds a wrapped function before the probe is
    # installed would leave its metric at 0 instead of marking it missing
    for name in ("sample", "amsgrad", "project", "contains", "score",
                 "score_grads", "affine_tanh"):
        assert tracer.total(name).count > 0, name


def test_traced_training_gives_untraced_bytes():
    """The probe's gradient hooks read ``grads.rows`` before the training
    loop scales the ontology and hierarchy gradients; the bytes must not
    depend on whether anything read them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=5))
    model = ModelConfig.from_variant("HATransE-CT", 16, 8)
    config = TrainConfig(epochs=2, seed=3, batch_instance=64, batch_ontology=8,
                         batch_hierarchy=4, batch_cross=32,
                         hierarchical_relations=("subclass_of",))
    plain = train(data, model, config)[0]
    probe = tracing.Probe(tracing.Tracer(), workloads.targets())
    probe.install()
    try:
        traced = train(data, model, config)[0]
    finally:
        probe.uninstall()
    for name in plain.TABLES:
        assert plain.table(name).tobytes() == traced.table(name).tobytes(), name
    for name in ("ct", "ha"):
        assert plain.map(name).W.tobytes() == traced.map(name).W.tobytes()
        assert plain.map(name).b.tobytes() == traced.map(name).b.tobytes()

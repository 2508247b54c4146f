"""The benchmark's workloads: what each one runs, times and checks.

Every workload is a single-process batch job, one caller in a closed loop.
It receives a prepared split directory (and, for eval, a parameter file it
wrote itself) and talks to the program only through the public functions of
``twoview.dataio``, ``training``, ``evaluation`` and ``checkpoint``.

A run repeats one fixed unit of work (a two-epoch training from fresh
parameters, or one eval pass) until its time budget is spent.  With
``trace=False`` nothing is wrapped and the end-to-end numbers are measured.
With ``trace=True`` units alternate between untraced and traced; the
per-layer numbers come from the traced ones, normalized per traced epoch or
pass, and the ratio of traced to untraced wall time gives
``trace.overhead_frac``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Probe, Target, Tracer

SETUP_MIN_REPS = 3        # set-up is timed before and again after the
SETUP_MIN_S = 1.0         # measured work, each time in at least 3 rounds and
SETUP_MAX_REPS = 20       # until 1 s is spent (at most 20); median reported
MIN_UNITS = 1             # training repetitions or eval passes per run, at least
TRAIN_EPOCHS = 2          # a training repetition: fresh parameters, two epochs
MIN_TRACE_PASSES = 5      # untraced, then traced and untraced in turn
TRIPLE_QUERIES = 500      # sampled test triples per pass, ranked both ways
ORACLE_QUERIES = 12       # per eval workload, half planted with exact ties
NORM_TOL = 1e-5
TAIL_BEYOND = 10          # a tail quantile is reported with 10 samples beyond it


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "train", "triples" or "typing"
    variant: str
    d_e: int
    d_c: int
    scale: float
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("train_transe_ct", "train", "TransE-CT", 300, 50, 0.25,
             "large-store negative sampling, d=300 translational loss, sparse "
             "AMSGrad and norm projection on a 7.8 MB table; no HolE, no eval"),
    Workload("train_hahole_ct", "train", "HAHolE-CT", 100, 50, 0.02,
             "circular correlation dominates the epoch with HA and CT losses; "
             "store membership and row updates are small"),
    Workload("eval_transe_ct", "triples", "TransE-CT", 300, 50, 0.25,
             "filtered triple completion, both directions, one query against "
             "all entities; reads whole tables, no training"),
    Workload("typing_transe_ct", "typing", "TransE-CT", 300, 50, 0.25,
             "entity typing over all test links through the CT map; "
             "concept distances, no training"),
)}


@dataclass
class RunResult:
    end_to_end: dict = field(default_factory=dict)   # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)       # {"name", "ok", "detail"}
    detail: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def budget_spent(times: list[float], seconds: float) -> bool:
    """True once enough units ran and the next one would end more than half
    a unit past the budget."""
    if len(times) < MIN_UNITS:
        return False
    return sum(times) + 0.5 * sum(times) / len(times) >= seconds


def overhead_frac(times: list[float], traced: list[bool]) -> float:
    """Mean traced unit time over mean untraced unit time, minus 1."""
    on = [t for t, f in zip(times, traced) if f]
    off = [t for t, f in zip(times, traced) if not f]
    if not on or not off:
        return 0.0
    return (sum(on) / len(on)) / (sum(off) / len(off)) - 1.0


def rate(units: list[float], times: list[float], traced: list[bool]) -> float:
    """Units per wall second over every untraced repetition or pass."""
    plain = [(u, t) for u, t, f in zip(units, times, traced) if not f]
    return sum(u for u, _ in plain) / sum(t for _, t in plain) if plain else 0.0


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("error rate needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def summarize(values: list[float]) -> dict:
    """Sample count, median, and the highest whole-percent quantile with
    TAIL_BEYOND samples above it, when there are enough samples for one."""
    n = len(values)
    out = {"n": n, "median": float(np.median(values)) if n else None}
    if n > TAIL_BEYOND:
        pct = 100 * (n - TAIL_BEYOND) // n
        out[f"q{pct}"] = float(np.quantile(values, pct / 100))
    return out


def repeat_setup(step):
    """Run ``step() -> (result, {part: seconds})`` SETUP_MIN_REPS times and
    then until SETUP_MIN_S of set-up has been timed; the previous round's
    objects are dropped and collected before each round, outside the timing.
    Returns the last result and every round's parts."""
    rounds, spent, result = [], 0.0, None
    while len(rounds) < SETUP_MIN_REPS or (spent < SETUP_MIN_S
                                           and len(rounds) < SETUP_MAX_REPS):
        result = None
        gc.collect()
        result, parts = step()
        rounds.append(parts)
        spent += sum(parts.values())
    return result, rounds


def setup_medians(rounds: list[dict]) -> tuple[float, dict]:
    """Median of the whole set-up and of each part over the rounds."""
    return (float(np.median([sum(r.values()) for r in rounds])),
            {k: float(np.median([r[k] for r in rounds])) for k in rounds[0]})


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vocabs(data) -> dict:
    return {name: getattr(data, name)
            for name in ("entities", "relations", "concepts", "meta_relations")}


def _vocab_hashes(data) -> dict:
    from twoview.checkpoint import vocab_hash
    return {name: vocab_hash(v) for name, v in _vocabs(data).items()}


# --------------------------------------------------------------------------
# probes

def _dim(i):
    return lambda args: f"d{args[i].shape[-1]}"


def _sampled_triple(tr: Tracer, args, result):
    with tr.silenced():
        tr.count("neg_saturations", result in args[1])


def _sampled_concept(tr: Tracer, args, result):
    with tr.silenced():
        tr.count("neg_saturations", (args[0], result) in args[2])


def _grad_rows(tr: Tracer, args, result):
    tr.count("grad_rows", len(result[1].rows))


def _row_widths(args) -> list[int]:
    """Width of the table of every row an ``amsgrad_step`` updates."""
    params, grads = args[0], args[2]
    widths = {name: params.table(name).shape[1] for name, _ in grads.rows}
    return [widths[name] for name, _ in grads.rows]


def _amsgrad_key(args) -> str:
    """``d<width>`` for a step whose rows all have one width, else ``mixed``
    (a cross step updates entity and concept rows together)."""
    widths = set(_row_widths(args))
    return f"d{widths.pop()}" if len(widths) == 1 else "mixed"


def _rows_updated(tr: Tracer, args, result):
    widths = _row_widths(args)
    tr.count("rows_updated", len(widths))
    for w in set(widths):
        tr.count(f"rows_updated.d{w}", widths.count(w))
    tr.count(f"amsgrad_rows.{_amsgrad_key(args)}", len(widths))


def _projected(tr: Tracer, args, result):
    tr.count("project_rows", np.size(args[1]))


def targets() -> list[Target]:
    """Public functions wrapped in traced epochs and passes, on the module
    (or class) that looks them up at call time."""
    import twoview.evaluation as ev
    import twoview.kb as kb
    import twoview.objectives as ob
    import twoview.scoring as sc
    import twoview.training as tr

    T = Target
    out = [
        T(tr, "sample_negative_triple", "sample", "kb.sample", hook=_sampled_triple),
        T(tr, "sample_negative_concept", "sample", "kb.sample", hook=_sampled_concept),
        T(tr, "intra_hinge_loss", "intra_loss", "objectives.intra", span=True,
          hook=_grad_rows),
        T(tr, "ct_loss", "ct_loss", "objectives.ct", span=True, hook=_grad_rows),
        T(tr, "ha_loss", "ha_loss", "objectives.ha", span=True, hook=_grad_rows),
        T(tr, "amsgrad_step", "amsgrad", "training.amsgrad", span=True,
          key=_amsgrad_key, hook=_rows_updated),
        T(tr, "project_rows_unit_norm", "project", "tensor_ops.project",
          key=_dim(0), hook=_projected),
        T(ob, "score", "score", "scoring.score", key=_dim(1)),
        T(ob, "score_grads", "score_grads", "scoring.score_grads", key=_dim(1)),
        T(ob, "affine_tanh", "affine_tanh", "tensor_ops.affine_tanh"),
        T(sc, "circ_correlation", "circ", "tensor_ops.circ", key=_dim(0)),
        T(sc, "circ_convolution", "circ", "tensor_ops.circ", key=_dim(0)),
        T(ev, "score_all_tails", "score_all", "scoring.score_all"),
        T(ev, "score_all_heads", "score_all", "scoring.score_all"),
        T(ev, "concept_distances", "concept_distances",
          "evaluation.concept_distances"),
        T(ev, "affine_tanh", "affine_tanh", "tensor_ops.affine_tanh"),
    ]
    out += [T(cls, "__contains__", "contains", "kb.contains")
            for cls in (kb.TripleStore, kb.CrossLinkStore, kb.HierarchyStore)]
    return out


# name -> unit; the order is the order of the report
PER_LAYER_UNITS = {
    "kb.contains_calls": "count",
    "kb.contains_us": "us",
    "kb.neg_accept_ratio": "ratio",
    "kb.neg_saturations": "count",
    "objectives.sample_s": "s",
    "objectives.intra_loss_s": "s",
    "objectives.intra_loss_calls": "count",
    "objectives.ct_loss_s": "s",
    "objectives.ha_loss_s": "s",
    "objectives.grad_rows": "count",
    "scoring.score_calls": "count",
    "scoring.score_us.d300": "us",
    "scoring.score_us.d100": "us",
    "scoring.score_us.d50": "us",
    "scoring.score_grads_calls": "count",
    "scoring.score_grads_us.d300": "us",
    "scoring.score_grads_us.d100": "us",
    "scoring.score_grads_us.d50": "us",
    "scoring.score_all_s": "s",
    "scoring.score_all_calls": "count",
    "scoring.score_all_us": "us",
    "tensor_ops.circ_s": "s",
    "tensor_ops.circ_calls": "count",
    "tensor_ops.circ_us.d100": "us",
    "tensor_ops.circ_us.d50": "us",
    "tensor_ops.project_s": "s",
    "tensor_ops.project_rows": "count",
    "tensor_ops.project_us.d300": "us",
    "tensor_ops.project_us.d100": "us",
    "tensor_ops.project_us.d50": "us",
    "tensor_ops.affine_tanh_s": "s",
    "tensor_ops.affine_tanh_calls": "count",
    "training.amsgrad_s": "s",
    "training.amsgrad_calls": "count",
    "training.rows_updated": "count",
    "training.rows_updated.d300": "count",
    "training.rows_updated.d100": "count",
    "training.rows_updated.d50": "count",
    "training.amsgrad_us_per_row.d300": "us",
    "training.amsgrad_us_per_row.d100": "us",
    "training.amsgrad_us_per_row.d50": "us",
    "training.schedule_self_s": "s",
    "evaluation.triples_self_s": "s",
    "evaluation.typing_self_s": "s",
    "evaluation.concept_distances_s": "s",
    "dataio.load_split_dir_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.units": "count",
    "error_rate": "ratio",
}


def _per_call_us(agg) -> float:
    return agg.total_s / agg.count * 1e6 if agg.count else 0.0


def layer_metrics(tr: Tracer, units: int, overhead: float, io: dict,
                  err: float) -> dict:
    """Per-layer values per traced epoch (training) or pass (eval).

    A metric whose wrapped function no longer exists, or no longer has the
    signature its hook reads, is reported missing (value None), never 0.
    Rates at a vector length the workload does not use are 0.
    """
    n = max(units, 1)
    a = tr.agg
    t = tr.total
    c = tr.counters.get
    contains = t("contains")
    samples = t("sample").count
    sat = c("neg_saturations", 0)
    score_all = t("score_all")
    values = {
        "kb.contains_calls": (contains.count / n, ("kb.contains",)),
        "kb.contains_us": (_per_call_us(contains), ("kb.contains",)),
        "kb.neg_accept_ratio": ((samples - sat) / contains.count
                                if contains.count else 0.0,
                                ("kb.contains", "kb.sample")),
        "kb.neg_saturations": (sat / n, ("kb.sample",)),
        "objectives.sample_s": (t("sample").total_s / n, ("kb.sample",)),
        "objectives.intra_loss_s": (a("intra_loss").total_s / n, ("objectives.intra",)),
        "objectives.intra_loss_calls": (a("intra_loss").count / n, ("objectives.intra",)),
        "objectives.ct_loss_s": (a("ct_loss").total_s / n, ("objectives.ct",)),
        "objectives.ha_loss_s": (a("ha_loss").total_s / n, ("objectives.ha",)),
        "objectives.grad_rows": (c("grad_rows", 0) / n,
                                 ("objectives.intra", "objectives.ct", "objectives.ha")),
        "scoring.score_calls": (t("score").count / n, ("scoring.score",)),
        "scoring.score_grads_calls": (t("score_grads").count / n,
                                      ("scoring.score_grads",)),
        "scoring.score_all_s": (score_all.total_s / n, ("scoring.score_all",)),
        "scoring.score_all_calls": (score_all.count / n, ("scoring.score_all",)),
        "scoring.score_all_us": (_per_call_us(score_all), ("scoring.score_all",)),
        "tensor_ops.circ_s": (t("circ").total_s / n, ("tensor_ops.circ",)),
        "tensor_ops.circ_calls": (t("circ").count / n, ("tensor_ops.circ",)),
        "tensor_ops.project_s": (t("project").total_s / n, ("tensor_ops.project",)),
        "tensor_ops.project_rows": (c("project_rows", 0) / n, ("tensor_ops.project",)),
        "tensor_ops.affine_tanh_s": (a("affine_tanh").total_s / n,
                                     ("tensor_ops.affine_tanh",)),
        "tensor_ops.affine_tanh_calls": (a("affine_tanh").count / n,
                                         ("tensor_ops.affine_tanh",)),
        "training.amsgrad_s": (t("amsgrad").total_s / n, ("training.amsgrad",)),
        "training.amsgrad_calls": (t("amsgrad").count / n, ("training.amsgrad",)),
        "training.rows_updated": (c("rows_updated", 0) / n, ("training.amsgrad",)),
        "training.schedule_self_s": (a("epoch").self_s / n, ()),
        "evaluation.triples_self_s": (a("triples_pass").self_s / n,
                                      ("scoring.score_all",)),
        "evaluation.typing_self_s": (a("typing_pass").self_s / n,
                                     ("evaluation.concept_distances",)),
        "evaluation.concept_distances_s": (a("concept_distances").total_s / n,
                                           ("evaluation.concept_distances",)),
        "trace.overhead_frac": (overhead, ()),
        "trace.units": (units, ()),
        "error_rate": (err, ()),
    }
    for d in ("d300", "d100", "d50"):
        values[f"scoring.score_us.{d}"] = (_per_call_us(a(f"score.{d}")),
                                           ("scoring.score",))
        values[f"scoring.score_grads_us.{d}"] = (
            _per_call_us(a(f"score_grads.{d}")), ("scoring.score_grads",))
        values[f"tensor_ops.project_us.{d}"] = (_per_call_us(a(f"project.{d}")),
                                                ("tensor_ops.project",))
        values[f"training.rows_updated.{d}"] = (c(f"rows_updated.{d}", 0) / n,
                                                ("training.amsgrad",))
        # steps whose rows all have this width; mixed-width steps are left out
        rows = c(f"amsgrad_rows.{d}", 0)
        values[f"training.amsgrad_us_per_row.{d}"] = (
            a(f"amsgrad.{d}").total_s / rows * 1e6 if rows else 0.0,
            ("training.amsgrad",))
    for d in ("d100", "d50"):
        values[f"tensor_ops.circ_us.{d}"] = (_per_call_us(a(f"circ.{d}")),
                                             ("tensor_ops.circ",))
    for name in ("dataio.load_split_dir_s", "checkpoint.load_s",
                 "checkpoint.save_s", "checkpoint.bytes"):
        values[name] = (io.get(name, 0.0), ())
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        value, groups = values[name]
        out[name] = (None if tr.missing.intersection(groups) else value, unit)
    return out


# --------------------------------------------------------------------------
# training

def _positives(report) -> int:
    return (report.n_instance + report.n_ontology + report.n_hierarchy
            + report.n_cross)


def _losses_finite(report) -> bool:
    parts = [report.instance_loss, report.ontology_loss, report.cross_loss]
    if report.hierarchy_loss is not None:
        parts.append(report.hierarchy_loss)
    return all(math.isfinite(x) for x in parts)


def _max_norm_drift(params) -> float:
    drift = 0.0
    for table in (params.entities, params.concepts):
        norms = np.linalg.norm(table.astype(np.float64), axis=1)
        drift = max(drift, float(np.max(np.abs(norms - 1.0))))
    return drift


def run_train(w: Workload, split_dir: Path, work: Path, seed: int,
              seconds: float, trace: bool) -> RunResult:
    """Repeat one fixed piece of work: train fresh parameters for
    TRAIN_EPOCHS epochs with the workload seed.  Every repetition does the
    same work and must end in the same parameter bytes."""
    from twoview.checkpoint import save_checkpoint
    from twoview.dataio import load_split_dir
    from twoview.model import ModelConfig
    from twoview.objectives import Margins
    from twoview.training import TrainConfig, train

    res = RunResult()
    clock = time.perf_counter

    def load():
        t0 = clock()
        data = load_split_dir(split_dir)
        return data, {"dataio.load_split_dir_s": clock() - t0}

    data, setup_rounds = repeat_setup(load)
    hashes = _vocab_hashes(data)
    model = ModelConfig.from_variant(w.variant, w.d_e, w.d_c)
    config = TrainConfig(
        epochs=TRAIN_EPOCHS, seed=seed, margins=Margins.defaults_for(model.intra),
        hierarchical_relations=("subclass_of",) if model.hierarchy_aware else ())
    weights, ha = config.weights, model.hierarchy_aware

    tracer = Tracer()
    probe = Probe(tracer, targets())
    reps, save_times = [], []
    path = work / "params.ckpt"

    def on_epoch(epoch, params, report):
        if tracer.depth:            # a traced repetition: one frame per epoch
            tracer.close()
            if epoch + 1 < TRAIN_EPOCHS:
                tracer.open("epoch", span=True)

    while True:
        on = trace and len(reps) % 2 == 1
        gc.collect()
        if on:
            probe.install()
            tracer.open("epoch", span=True)
        t0 = clock()
        try:
            params, history = train(data, model, config, epoch_callback=on_epoch)
        except Exception as exc:  # a failed repetition is counted, not fatal
            res.check(f"repetition {len(reps)}", False, f"{type(exc).__name__}: {exc}")
            break
        finally:
            if on:
                probe.uninstall()
        dt = clock() - t0
        t1 = clock()
        save_checkpoint(path, params, model, hashes, seed, TRAIN_EPOCHS)
        save_times.append(clock() - t1)
        losses = [r.total(weights, ha) for r in history]
        reps.append({"seconds": dt, "traced": on,
                     "positives": sum(_positives(r) for r in history),
                     "losses": losses,
                     "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})
        i = len(reps) - 1
        res.check(f"repetition {i} losses finite", all(map(_losses_finite, history)),
                  f"losses={losses}")
        res.check(f"repetition {i} last epoch loss below first",
                  len(losses) >= 2 and losses[-1] < losses[0], f"losses={losses}")
        drift = _max_norm_drift(params)
        res.check(f"repetition {i} unit norms", drift <= NORM_TOL,
                  f"max |norm-1| = {drift:.3g}")
        if i >= 1:
            res.check(f"repetition {i} parameters equal repetition 0",
                      reps[i]["sha256"] == reps[0]["sha256"], reps[i]["sha256"])
        params = history = None
        if len(reps) >= 2 if trace else \
                budget_spent([r["seconds"] for r in reps], seconds):
            break

    times = [r["seconds"] for r in reps]
    traced = [r["traced"] for r in reps]
    data = None
    setup_rounds += repeat_setup(load)[1]
    setup_s, io = setup_medians(setup_rounds)
    io["checkpoint.save_s"] = float(np.median(save_times)) if save_times else 0.0
    io["checkpoint.bytes"] = path.stat().st_size if reps else 0
    res.end_to_end = {
        "throughput_per_s": (rate([r["positives"] for r in reps], times, traced), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    if trace:
        res.per_layer = layer_metrics(tracer, TRAIN_EPOCHS * sum(traced),
                                      overhead_frac(times, traced), io,
                                      error_rate(res.failed, res.attempted))
        res.detail["spans"] = tracer
    res.detail.update({
        "repetitions": reps,
        "untraced_repetition_s": summarize([t for t, f in zip(times, traced) if not f]),
        "setup_rounds_s": setup_rounds,
        "param_sha256": reps[0]["sha256"] if reps else None,
    })
    return res


# --------------------------------------------------------------------------
# evaluation

def _filters(train_store) -> tuple[dict, dict]:
    """(head, relation) -> tails and (relation, tail) -> heads of the train split."""
    by_hr, by_rt = {}, {}
    for h, r, t in train_store:
        by_hr.setdefault((h, r), set()).add(t)
        by_rt.setdefault((r, t), set()).add(h)
    return by_hr, by_rt


def _plant_ties(params, data, filters, rng: np.random.Generator):
    """Seeded oracle queries; the first half of each list gets an exact tie.

    For a planted triple query the gold tail (even index) or head (odd
    index) row is copied onto an entity that the query does not filter; for
    a planted typing query the gold concept row is copied onto a concept the
    entity is not linked to.  The copy scores exactly like the gold answer,
    so the mid-rank rule decides the rank.
    """
    by_hr, by_rt = filters
    half = ORACLE_QUERIES // 2
    test = list(data.instance_test)
    triples = [test[i] for i in rng.choice(len(test), ORACLE_QUERIES, replace=False)]
    used = {x for h, _, t in triples for x in (h, t)}
    free = [e for e in rng.permutation(len(data.entities)).tolist() if e not in used]
    for i, (h, r, t) in enumerate(triples[:half]):
        gold, filt = (t, by_hr.get((h, r), ())) if i % 2 == 0 else \
            (h, by_rt.get((r, t), ()))
        twin = next(x for x in free if x not in filt)
        free.remove(twin)
        params.entities[twin] = params.entities[gold]

    links = list(data.links_test)
    picked = [links[i] for i in rng.choice(len(links), ORACLE_QUERIES, replace=False)]
    used = {c for _, c in picked}
    free = [c for c in rng.permutation(len(data.concepts)).tolist() if c not in used]
    for e, c in picked[:half]:
        linked = data.links_train.by_entity.get(e, ())
        twin = next(x for x in free if x not in linked)
        free.remove(twin)
        params.concepts[twin] = params.concepts[c]
    return triples, picked


def _oracle(scores: dict, gold: int, filt: set) -> tuple[int, int]:
    """(rank_candidates rank, number of unfiltered candidates tied with gold)."""
    from twoview.evaluation import rank_candidates

    ties = sum(1 for c, v in scores.items()
               if v == scores[gold] and c != gold and c not in filt)
    return rank_candidates(scores, gold, filt), ties


def _triple_oracle(params, kind, triples, filters) -> list[tuple[int, int]]:
    """Brute force over ``score``, one candidate at a time (tail, then head)."""
    from twoview.scoring import score

    by_hr, by_rt = filters
    nodes, edges = params.entities, params.relations
    out = []
    for h, r, t in triples:
        s = {c: score(kind, nodes[h], edges[r], nodes[c]) for c in range(len(nodes))}
        out.append(_oracle(s, t, by_hr.get((h, r), set()) - {t}))
        s = {c: score(kind, nodes[c], edges[r], nodes[t]) for c in range(len(nodes))}
        out.append(_oracle(s, h, by_rt.get((r, t), set()) - {h}))
    return out


def _typing_oracle(params, links, train_links) -> list[tuple[int, int]]:
    """Brute force over concept distances from the CT image of the entity."""
    from twoview.tensor_ops import affine_tanh

    out = []
    for e, c in links:
        point = affine_tanh(params.ct_map, params.entities[e])
        s = {i: -float(np.linalg.norm(params.concepts[i] - point))
             for i in range(len(params.concepts))}
        out.append(_oracle(s, c, set(train_links.by_entity.get(e, ())) - {c}))
    return out


def prepare_eval(w: Workload, split_dir: Path, work: Path, seed: int) -> dict:
    """Write seeded parameters to ``work/params.ckpt`` and compute the oracle.

    The parameters are not trained by the code under test, so both commits
    rank identical inputs.  Runs in the preparation process, so neither the
    oracle's filter sets nor this copy of the data count toward the
    measured process's peak RSS.
    """
    from twoview.checkpoint import save_checkpoint
    from twoview.dataio import load_split_dir
    from twoview.model import ModelConfig, ModelParams

    rng = np.random.default_rng(seed)
    model = ModelConfig.from_variant(w.variant, w.d_e, w.d_c)
    data = load_split_dir(split_dir)
    filters = _filters(data.instance_train)
    params = ModelParams.init(model, len(data.entities), len(data.relations),
                              len(data.concepts), len(data.meta_relations), rng)
    oracle_triples, oracle_links = _plant_ties(params, data, filters, rng)
    ckpt = work / "params.ckpt"
    t0 = time.perf_counter()
    save_checkpoint(ckpt, params, model, _vocab_hashes(data), seed, 0)
    save_s = time.perf_counter() - t0
    test = list(data.instance_test)
    sample = [test[i] for i in rng.choice(len(test), min(TRIPLE_QUERIES, len(test)),
                                          replace=False)]
    half = ORACLE_QUERIES // 2
    if w.kind == "triples":
        oracle = _triple_oracle(params, model.intra, oracle_triples, filters)
        planted = [2 * i + i % 2 for i in range(half)]
    else:
        oracle = _typing_oracle(params, oracle_links, data.links_train)
        planted = list(range(half))
    return {
        "checkpoint.save_s": save_s,
        "checkpoint.bytes": ckpt.stat().st_size,
        "sample": [list(t) for t in sample],
        "oracle_triples": [list(t) for t in oracle_triples],
        "oracle_links": [list(p) for p in oracle_links],
        "oracle": oracle,
        "planted": planted,
    }


def run_eval(w: Workload, split_dir: Path, work: Path, seed: int,
             seconds: float, trace: bool, prep: dict) -> RunResult:
    from twoview.checkpoint import check_vocab_hashes, load_checkpoint
    from twoview.dataio import load_split_dir
    from twoview.evaluation import entity_typing_eval, triple_completion_eval
    from twoview.kb import CrossLinkStore, Triple, TripleStore
    from twoview.model import ModelConfig

    res = RunResult()
    clock = time.perf_counter
    model = ModelConfig.from_variant(w.variant, w.d_e, w.d_c)
    ckpt = work / "params.ckpt"

    def load():
        t0 = clock()
        data = load_split_dir(split_dir)
        t1 = clock()
        params, loaded_model, header = load_checkpoint(ckpt)
        check_vocab_hashes(header, _vocabs(data))
        return (data, params, loaded_model), {"dataio.load_split_dir_s": t1 - t0,
                                              "checkpoint.load_s": clock() - t1}

    (data, params, loaded_model), setup_rounds = repeat_setup(load)
    res.check("checkpoint variant", loaded_model == model, loaded_model.variant)

    if w.kind == "triples":
        queries = TripleStore(Triple(*t) for t in prep["sample"])
        frame = "triples_pass"

        def run_pass():
            return triple_completion_eval(params, model.intra, queries,
                                          [data.instance_train], view="instance",
                                          direction="both")
        expected_queries = 2 * len(queries)
        got = triple_completion_eval(
            params, model.intra, TripleStore(Triple(*t) for t in prep["oracle_triples"]),
            [data.instance_train], view="instance", direction="both").ranks
    else:
        frame = "typing_pass"

        def run_pass():
            return entity_typing_eval(params, model, data.links_test, data.links_train)
        expected_queries = len(data.links_test)
        got = entity_typing_eval(params, model, CrossLinkStore(map(tuple, prep["oracle_links"])),
                                 data.links_train).ranks
    want, planted = prep["oracle"], prep["planted"]
    res.check("oracle query count", len(got) == len(want),
              f"{len(got)} ranked, {len(want)} in the oracle")
    for i, (g, (o, ties)) in enumerate(zip(got, want)):
        res.check(f"oracle query {i}", g == o, f"rank {g}, oracle {o}, {ties} tied")
    res.check("planted ties seen", all(want[i][1] >= 1 for i in planted),
              f"ties at planted queries: {[want[i][1] for i in planted]}")

    tracer = Tracer()
    probe = Probe(tracer, targets())
    times, traced = [], []
    first_ranks = None
    while True:
        on = trace and len(times) % 2 == 1
        if on:
            probe.install()
            tracer.open(frame, span=True)
        t0 = clock()
        try:
            report = run_pass()
        except Exception as exc:  # a failed pass is counted, not fatal
            report = None
            res.check("pass", False, f"{type(exc).__name__}: {exc}")
        dt = clock() - t0
        if on:
            tracer.close()
            probe.uninstall()
        if report is None:
            break
        times.append(dt)
        traced.append(on)
        if first_ranks is None:
            first_ranks = report.ranks
        res.check(f"pass {len(times) - 1}",
                  report.n_queries == expected_queries and report.ranks == first_ranks,
                  f"{report.n_queries} queries")
        if budget_spent(times, seconds) and (
                not trace or len(times) >= MIN_TRACE_PASSES and len(times) % 2 == 1):
            break

    data = params = None
    setup_rounds += repeat_setup(load)[1]
    setup_s, io = setup_medians(setup_rounds)
    io.update({name: prep[name] for name in ("checkpoint.save_s", "checkpoint.bytes")})
    res.end_to_end = {
        "throughput_per_s": (rate([expected_queries] * len(times), times, traced),
                             "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    if trace:
        res.per_layer = layer_metrics(tracer, sum(traced), overhead_frac(times, traced),
                                      io, error_rate(res.failed, res.attempted))
        res.detail["spans"] = tracer
    res.detail.update({
        "passes": [{"seconds": t, "queries": expected_queries, "traced": f}
                   for t, f in zip(times, traced)],
        "untraced_pass_s": summarize([t for t, f in zip(times, traced) if not f]),
        "setup_rounds_s": setup_rounds,
        "oracle": [{"rank": r, "ties": t} for r, t in want],
    })
    return res


def run(w: Workload, work: Path, seed: int, seconds: float, trace: bool,
        prep: dict) -> RunResult:
    if w.kind == "train":
        return run_train(w, work / "splits", work, seed, seconds, trace)
    return run_eval(w, work / "splits", work, seed, seconds, trace, prep["eval"])

"""Tests of the benchmark harness itself: its arithmetic, its tracer and
the generator's determinism.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kbgen  # noqa: E402
import workloads  # noqa: E402
from tracing import Probe, Target, Tracer  # noqa: E402
from workloads import error_rate, summarize  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# --------------------------------------------------------------------------
# arithmetic

def test_summarize_reports_tail_only_with_enough_samples():
    # the tail is the highest whole percent with ten samples beyond it
    assert summarize([]) == {"n": 0, "median": None}
    assert set(summarize([1.0] * 10)) == {"n", "median"}
    for n, key in ((11, "q9"), (20, "q50"), (100, "q90"), (1000, "q99")):
        assert set(summarize([float(i) for i in range(n)])) == {"n", "median", key}


def test_error_rate():
    assert error_rate(0, 7) == 0.0
    assert error_rate(1, 4) == 0.25
    for failed, attempted in ((0, 0), (5, 4), (-1, 3)):
        with pytest.raises(ValueError):
            error_rate(failed, attempted)


def test_budget_rate_and_overhead_arithmetic():
    assert not workloads.budget_spent([], 5.0)           # too few units
    assert workloads.budget_spent([10.0], 5.0)
    assert not workloads.budget_spent([4.0, 4.0], 11.0)  # 8 + 2 < 11
    assert workloads.budget_spent([4.0, 4.0], 10.0)      # 8 + 2 >= 10
    times = [1.0, 2.0, 2.0, 4.0, 3.0]
    traced = [False, True, False, True, False]
    # mean traced (2 + 4) / 2 over mean untraced (1 + 2 + 3) / 3
    assert workloads.overhead_frac(times, traced) == pytest.approx(0.5)
    assert workloads.overhead_frac(times[:1], traced[:1]) == 0.0
    assert workloads.rate([10, 10, 10, 10, 10], times, traced) == pytest.approx(30 / 6)
    assert workloads.rate([1], [1.0], [True]) == 0.0


# --------------------------------------------------------------------------
# tracer

def test_self_time_is_duration_minus_children():
    # epoch 0..10 holds a step 1..6, which holds leaves 2..3 and 4..4.5
    tr = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 6.0, 10.0))
    tr.open("epoch", span=True)
    tr.open("step", span=True)
    for _ in range(2):
        tr.open("leaf", span=False)
        tr.close()
    tr.close()
    assert tr.depth == 1
    tr.close()
    assert tr.agg("leaf").count == 2
    assert tr.agg("leaf").total_s == pytest.approx(1.5)
    assert tr.agg("step").self_s == pytest.approx(5.0 - 1.5)
    assert tr.agg("epoch").self_s == pytest.approx(10.0 - 5.0)
    epoch, step = tr.spans                    # leaves are not kept as spans
    assert (epoch.name, epoch.parent) == ("epoch", None)
    assert (step.name, step.parent, step.start, step.end) == ("step", 0, 1.0, 6.0)


def test_write_spans(tmp_path):
    tr = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0))
    tr.open("a", span=True)
    tr.open("b", span=True)
    tr.close()
    tr.close()
    tr.write_spans(tmp_path / "s.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "s.jsonl").read_text().splitlines()]
    assert [(r["name"], r["parent"]) for r in rows] == [("a", None), ("b", 0)]
    assert rows[0]["self_s"] == pytest.approx(2.0)


def test_probe_wraps_and_restores():
    def double(x):
        return 2 * x

    class Store:
        def __contains__(self, x):
            return x == 1

    mod = types.SimpleNamespace(double=double)
    contains = Store.__dict__["__contains__"]
    tr = Tracer()
    hits = []
    probe = Probe(tr, [
        Target(mod, "double", "double", "g.double", key=lambda a: f"d{a[0]}",
               hook=lambda t, a, r: hits.append(r)),
        Target(Store, "__contains__", "contains", "g.contains",
               hook=lambda t, a, r: t.count("misses", not r)),
        Target(mod, "gone", "gone", "g.gone"),
    ])
    probe.install()
    assert mod.double(3) == 6 and hits == [6]
    assert 1 in Store() and 2 not in Store()
    with tr.silenced():
        assert 2 not in Store()
    probe.uninstall()
    assert mod.double is double and Store.__dict__["__contains__"] is contains
    assert tr.agg("double.d3").count == 1
    assert tr.agg("contains").count == 2 and tr.counters["misses"] == 1
    assert tr.missing == {"g.gone"}


def test_amsgrad_rate_is_per_width_and_skips_mixed_steps():
    tables = {"entities": np.zeros((4, 300)), "concepts": np.zeros((4, 50))}
    params = types.SimpleNamespace(table=tables.__getitem__)
    mod = types.SimpleNamespace(amsgrad_step=lambda params, state, grads, rate: None)
    # a d300-only step from 0 to 1 s, then a mixed step from 2 to 5 s
    tr = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 5.0))
    probe = Probe(tr, [Target(mod, "amsgrad_step", "amsgrad", "training.amsgrad",
                              span=True, key=workloads._amsgrad_key,
                              hook=workloads._rows_updated)])
    probe.install()
    mod.amsgrad_step(params, None, types.SimpleNamespace(
        rows={("entities", 0): 0, ("entities", 1): 0}), 0.1)
    mod.amsgrad_step(params, None, types.SimpleNamespace(
        rows={("entities", 2): 0, ("concepts", 0): 0}), 0.1)
    probe.uninstall()
    out = workloads.layer_metrics(tr, 1, 0.0, {}, 0.0)
    assert out["training.amsgrad_s"] == (4.0, "s")
    assert out["training.amsgrad_calls"] == (2, "count")
    assert out["training.rows_updated"] == (4, "count")
    assert out["training.rows_updated.d300"] == (3, "count")
    assert out["training.rows_updated.d50"] == (1, "count")
    assert out["training.amsgrad_us_per_row.d300"][0] == pytest.approx(0.5e6)
    assert out["training.amsgrad_us_per_row.d50"] == (0.0, "us")


def test_missing_layer_is_reported_as_missing_not_zero():
    tr = Tracer()
    tr.missing.add("tensor_ops.circ")
    out = workloads.layer_metrics(tr, 2, 0.1, {}, 0.0)
    assert list(out) == list(workloads.PER_LAYER_UNITS)
    assert out["tensor_ops.circ_calls"] == (None, "count")
    assert out["tensor_ops.circ_us.d100"] == (None, "us")
    assert out["scoring.score_calls"] == (0.0, "count")


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_per_s", "setup_s", "peak_rss_mib"}


# --------------------------------------------------------------------------
# generator

def _arrays(kb):
    return (kb.instance, kb.ontology, kb.links)


def test_generator_is_deterministic_per_seed():
    a, b, c = (kbgen.generate(s, 0.02) for s in (5, 5, 6))
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    assert not np.array_equal(a.instance, c.instance)


def test_generator_hits_headline_counts_without_duplicates():
    kb = kbgen.generate(1, 1.0)
    counts = kb.counts
    for key, want in kbgen.YAGO26K_906.items():
        assert counts[key] == want, key
    for rows in _arrays(kb):
        assert len(np.unique(rows, axis=0)) == len(rows)
    for rows in (kb.instance, kb.ontology):
        assert not np.any(rows[:, 0] == rows[:, 2])
    used = np.unique(np.concatenate([kb.instance[:, 0], kb.instance[:, 2]]))
    assert len(used) == kb.n_entities


def test_hierarchy_is_a_tree_and_scale_leaves_ontology_alone():
    small, tiny = kbgen.generate(2, 0.25), kbgen.generate(2, 0.02)
    for key in ("concepts", "meta_relations", "ontology_triples", "hierarchy_pairs"):
        assert small.counts[key] == tiny.counts[key], key
    assert small.counts["instance_triples"] == round(390_738 * 0.25)
    assert small.counts["links"] == round(9_962 * 0.25)
    tree = small.ontology[small.ontology[:, 1] == small.n_meta - 1]
    children = tree[:, 0]
    assert len(tree) == small.n_concepts - 1
    assert sorted(children.tolist()) == list(range(1, small.n_concepts))
    assert np.all(tree[:, 2] < tree[:, 0])   # parent precedes child: no cycles


def test_duplicate_share():
    ids = np.array([[0, 1], [0, 2], [3, 3], [4, 5]])
    rng = np.random.default_rng(0)
    assert kbgen.duplicate_share(ids, 4, rng) == pytest.approx(1 - 6 / 8)
    assert kbgen.duplicate_share(ids, 1, rng) == pytest.approx(0.5 / 4)


def test_entity_degrees_are_heavy_tailed():
    kb = kbgen.generate(3, 0.25)
    deg = np.bincount(np.concatenate([kb.instance[:, 0], kb.instance[:, 2]]))
    top = np.sort(deg)[::-1]
    assert top[0] > 20 * np.median(deg)

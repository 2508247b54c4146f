import json
import re
from pathlib import Path

import pytest

from twoview.cli import main
from twoview.config import load_config
from twoview.errors import ConfigError
from twoview.synth import planted_kb, write_kb_files


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Raw synthetic KB files plus a config for a quick TransE-CT run."""
    root = tmp_path_factory.mktemp("cli")
    kb, schema = planted_kb()
    raw = write_kb_files(kb, root / "raw")
    config = {
        "dataset": {
            "instance_triples": raw["instance"],
            "ontology_triples": raw["ontology"],
            "links": raw["links"],
            "split_dir": str(root / "splits"),
            "hierarchical_relations": ["subclass_of"],
        },
        "split": {"train": 0.85, "valid": 0.05, "test": 0.10,
                  "link_train_ratio": 0.6, "seed": 5},
        "model": {"variant": "TransE-CT", "d_e": 32, "d_c": 16},
        "train": {"epochs": 3, "learning_rate": 0.01, "batch_instance": 64,
                  "batch_ontology": 8, "batch_cross": 16, "batch_hierarchy": 8,
                  "seed": 2},
        "eval": {"ks": [1, 3, 10]},
        "output_dir": str(root / "out"),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    return root, cfg_path, config, schema


def test_prepare_writes_splits_and_stats(workspace, capsys):
    root, cfg_path, config, _ = workspace
    assert main(["prepare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    stats = json.loads(out[:out.rindex("}") + 1])
    assert stats["entities"] == 200
    assert stats["concepts"] == 20
    assert stats["instance_triples"] == 2000
    split_dir = Path(config["dataset"]["split_dir"])
    for fname in ("entities.txt", "instance_train.tsv", "links_test.tsv",
                  "hierarchy.tsv", "stats.json"):
        assert (split_dir / fname).exists()


def test_prepare_deterministic_bytes(workspace, tmp_path):
    root, cfg_path, config, _ = workspace
    alt = json.loads(Path(cfg_path).read_text())
    alt["dataset"]["split_dir"] = str(tmp_path / "splits2")
    alt_path = tmp_path / "config2.json"
    alt_path.write_text(json.dumps(alt))
    assert main(["prepare", "--config", str(alt_path)]) == 0
    original = Path(config["dataset"]["split_dir"])
    rerun = Path(alt["dataset"]["split_dir"])
    for f in sorted(original.iterdir()):
        assert (rerun / f.name).read_bytes() == f.read_bytes()


def test_train_eval_predict_export_check(workspace, capsys):
    root, cfg_path, config, schema = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    assert ckpt.exists()
    history = Path(config["output_dir"]) / "history.csv"
    lines = history.read_text().strip().splitlines()
    assert len(lines) == 1 + config["train"]["epochs"]
    assert lines[0].startswith("epoch,")

    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--task", "typing"]) == 0
    report = json.loads((Path(config["output_dir"]) / "report_typing.json")
                        .read_text())
    assert report["task"] == "entity_typing"
    assert report["variant"] == "TransE-CT"
    assert set(report["hits"]) == {"1", "3", "10"}
    assert 0.0 <= report["mrr"] <= 1.0

    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--task", "triples"]) == 0
    for view in ("instance", "ontology"):
        assert (Path(config["output_dir"]) / f"report_triples_{view}.json").exists()

    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                 str(ckpt), "type", "e00_0", "-k", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert out[0].split("\t")[1].startswith("concept")

    assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                 str(ckpt), "tail", "e00_0", "r0", "-k", "5"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5

    assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                 str(ckpt), "meta", "concept00", "m0", "-k", "2"]) == 0
    capsys.readouterr()

    assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                 str(ckpt), "relquery", "concept00", "concept01", "-k",
                 "10"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 10

    # unknown name produces hints and a nonzero exit
    assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                 str(ckpt), "type", "e00_X"]) == 2
    err = capsys.readouterr().err
    assert "e00_" in err

    # export round-trips
    assert main(["export", "--config", str(cfg_path), "--checkpoint",
                 str(ckpt), "--what", "concepts"]) == 0
    capsys.readouterr()
    export = Path(config["output_dir"]) / "export_concepts.tsv"
    rows = export.read_text().strip().splitlines()
    assert len(rows) == 20
    import numpy as np
    from twoview.checkpoint import load_checkpoint
    params, _, _ = load_checkpoint(ckpt)
    for i, row in enumerate(rows):
        fields = row.split("\t")
        values = np.array([float(x) for x in fields[1:]], dtype=np.float32)
        assert np.array_equal(values, params.concepts[i])


def test_eval_dump_and_determinism(workspace, tmp_path, capsys):
    root, cfg_path, config, _ = workspace
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--task", "typing", "--dump-ranks"]) == 0
    capsys.readouterr()
    report_path = Path(config["output_dir"]) / "report_typing.json"
    first = report_path.read_bytes()
    dump = Path(config["output_dir"]) / "ranks_typing.tsv"
    lines = dump.read_text().strip().splitlines()
    report = json.loads(first)
    assert len(lines) == report["n_queries"]
    query, gold, rank = lines[0].split("\t")
    assert query.startswith("e") and gold.startswith("concept")
    assert rank.isdigit()
    # identical config + seed + data produce an identical report
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--task", "typing"]) == 0
    capsys.readouterr()
    assert report_path.read_bytes() == first


def test_dump_ranks_labels_each_query(workspace, tmp_path, capsys):
    root, cfg_path, config, _ = workspace
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["eval"].update(direction="both", longtail_threshold=30)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(cfg))
    for task in ("triples", "longtail"):
        assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                     "--task", task, "--dump-ranks"]) == 0
    capsys.readouterr()
    out = Path(cfg["output_dir"])
    lines = [line.split("\t") for line in
             (out / "ranks_triples_instance.tsv").read_text().splitlines()]
    test = (Path(cfg["dataset"]["split_dir"]) / "instance_test.tsv").read_text()
    h, r, t = test.splitlines()[0].split("\t")
    assert lines[:2] == [[f"({h},{r},?)", t, lines[0][2]],
                         [f"(?,{r},{t})", h, lines[1][2]]]
    assert len(lines) == json.loads(
        (out / "report_triples_instance.json").read_text())["n_queries"]
    lines = (out / "ranks_longtail.tsv").read_text().splitlines()
    report = json.loads((out / "report_longtail.json").read_text())
    assert len(lines) == report["n_queries"] == report["slice"]["n_queries"]
    entities = {line.split("\t")[0] for line in lines}
    assert len(entities) == report["slice"]["n_entities"]


def test_typing_filter_mode_is_the_filter_applied(workspace, tmp_path, capsys):
    """Typing and long-tail reports name the filter their ranks used: none
    filters nothing, train the train links, strict the train and test links
    (never the gold), so ranks can only fall from one mode to the next.
    Each entity gets two more concepts, so that every mode filters some."""
    root, cfg_path, config, _ = workspace
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    links = Path(config["dataset"]["links"]).read_text().splitlines()
    extra = [f"{line.split()[0]}\tconcept{(i + j) % 20:02d}"
             for i, line in enumerate(links) for j in (3, 7)]
    base = json.loads(Path(cfg_path).read_text())
    base["dataset"]["links"] = str(tmp_path / "links.tsv")
    base["dataset"]["split_dir"] = str(tmp_path / "splits")
    Path(base["dataset"]["links"]).write_text("\n".join(links + extra) + "\n")
    (tmp_path / "base.json").write_text(json.dumps(base))
    assert main(["prepare", "--config", str(tmp_path / "base.json")]) == 0
    ranks = {}
    for mode in ("none", "train", "strict"):
        cfg = json.loads(json.dumps(base))
        cfg["eval"].update(filter_mode=mode, longtail_threshold=30)
        cfg["output_dir"] = str(tmp_path / mode)
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(cfg))
        for task in ("typing", "longtail"):
            assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                         "--task", task, "--dump-ranks"]) == 0
            out = tmp_path / mode
            report = json.loads((out / f"report_{task}.json").read_text())
            assert report["filter_mode"] == mode
            ranks[mode, task] = [int(line.split("\t")[2]) for line in
                                 (out / f"ranks_{task}.tsv").read_text().splitlines()]
    capsys.readouterr()
    for task in ("typing", "longtail"):
        none, train, strict = (ranks[mode, task] for mode in ("none", "train", "strict"))
        assert len(none) == len(train) == len(strict)
        assert all(a >= b >= c for a, b, c in zip(none, train, strict))
        assert none != train and train != strict


def test_triples_filter_mode_is_the_filter_applied(workspace, tmp_path, capsys):
    """Triple reports name the filter their ranks used; strict filters the
    train, valid and test triples, so no rank is worse than with none."""
    root, cfg_path, config, _ = workspace
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    ranks = {}
    for mode in ("none", "strict"):
        cfg = json.loads(Path(cfg_path).read_text())
        cfg["eval"].update(filter_mode=mode, direction="both")
        cfg["output_dir"] = str(tmp_path / mode)
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(cfg))
        assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                     "--task", "triples", "--dump-ranks"]) == 0
        for view in ("instance", "ontology"):
            out = tmp_path / mode
            report = json.loads((out / f"report_triples_{view}.json").read_text())
            assert report["filter_mode"] == mode
            ranks[mode, view] = [int(line.split("\t")[2]) for line in
                                 (out / f"ranks_triples_{view}.tsv").read_text().splitlines()]
    capsys.readouterr()
    for view in ("instance", "ontology"):
        none, strict = ranks["none", view], ranks["strict", view]
        assert len(none) == len(strict)
        assert all(a >= b for a, b in zip(none, strict))
    assert ranks["none", "instance"] != ranks["strict", "instance"]


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("query", [["type", "e00_0"], ["tail", "e00_0", "r0"],
                                   ["meta", "concept00", "m0"],
                                   ["relquery", "concept00", "concept01"]],
                         ids=lambda q: q[0])
def test_predict_k_below_one_is_a_usage_error(tmp_path, capsys, query, k):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--config", str(tmp_path / "c.json"), "--checkpoint",
              str(tmp_path / "c.ckpt"), *query, "-k", k])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument -k: must be at least 1, got {k}" in err
    assert "Traceback" not in err


def test_eval_refuses_wrong_dataset(workspace, tmp_path, capsys):
    root, cfg_path, config, _ = workspace
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    other = json.loads(Path(cfg_path).read_text())
    # re-prepare with a different seed: same names, different split files are
    # fine (same vocab hash), so instead drop one raw entity to change vocab
    raw_dir = tmp_path / "raw2"
    raw_dir.mkdir()
    for key in ("instance_triples", "ontology_triples", "links"):
        src = Path(config["dataset"][key])
        text = src.read_text().replace("e00_0", "e00_RENAMED")
        (raw_dir / src.name).write_text(text)
        other["dataset"][key] = str(raw_dir / src.name)
    other["dataset"]["split_dir"] = str(tmp_path / "splits3")
    other_path = tmp_path / "config3.json"
    other_path.write_text(json.dumps(other))
    assert main(["prepare", "--config", str(other_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(other_path), "--checkpoint",
                 str(ckpt), "--task", "typing"]) == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_variant_string_parsing():
    from twoview.model import ModelConfig
    from twoview.scoring import ScorerKind
    cfg = ModelConfig.from_variant("TransE-CT", 8, 4)
    assert cfg.intra is ScorerKind.TRANSLATIONAL and not cfg.hierarchy_aware
    cfg = ModelConfig.from_variant("HATransE-CT", 8, 4)
    assert cfg.hierarchy_aware
    with pytest.raises(ConfigError):
        ModelConfig.from_variant("TransE-CG", 300, 50)
    with pytest.raises(ConfigError):
        ModelConfig.from_variant("HAMult-CG", 8, 8)
    with pytest.raises(ConfigError):
        ModelConfig.from_variant("Nonsense-CT", 8, 4)


def test_config_validation(tmp_path):
    bad = {"model": {"variant": "HATransE-CT", "d_e": 8, "d_c": 4},
           "dataset": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_config(path)
    # CT without cross-view negative sampling is undefined
    bad2 = {"model": {"variant": "TransE-CT", "d_e": 8, "d_c": 4},
            "train": {"cross_negative_sampling": False}}
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps(bad2))
    with pytest.raises(ConfigError):
        load_config(path2)


def test_removed_deterministic_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"deterministic": True}}))
    with pytest.raises(ConfigError, match="deterministic") as exc:
        load_config(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("block,key", [
    ("train", "negative_ratio"), ("train", "intra_enabled"),
    ("train", "cross_enabled"), ("eval", "tasks"), ("split", "sed"),
    (None, "modle"),
])
def test_removed_or_misspelt_key_rejected(tmp_path, block, key):
    """Removed settings and typos fail loudly in every block instead of
    falling back to a default."""
    cfg = {key: 1} if block is None else {block: {key: 1}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(path) in str(exc.value) and key in str(exc.value)


@pytest.mark.parametrize("cfg,key", [
    pytest.param({"split": {"train": 0.5}}, None, id="cfg0"),
    pytest.param({"model": {"variant": "TransE-CT", "d_e": 0, "d_c": 4}}, "d_e",
                 id="cfg1"),
    pytest.param({"train": {"epochs": 0}}, "epochs", id="cfg2"),
    pytest.param({"train": {"margins": {"instance": -1.0}}}, "instance", id="cfg3"),
    pytest.param({"eval": {"direction": "sideways"}}, "direction", id="cfg4"),
    pytest.param({"train": "fast"}, "train", id="cfg5"),
    # wrong-typed values, and values outside their range
    ({"dataset": {"hierarchical_relations": "subclass_of"}},
     "hierarchical_relations"),
    ({"dataset": {"hierarchical_relations": ["subclass_of", 3]}},
     "hierarchical_relations"),
    ({"model": {"variant": "TransE-CT", "d_e": 8.5, "d_c": 4}}, "d_e"),
    ({"model": {"variant": 5}}, "variant"),
    ({"train": {"epochs": 2.5}}, "epochs"),
    ({"train": {"seed": 1.5}}, "seed"),
    ({"train": {"learning_rate": True}}, "learning_rate"),
    ({"train": {"batch_instance": True}}, "batch_instance"),
    ({"train": {"omega": "1"}}, "omega"),
    ({"train": {"cross_negative_sampling": "no"}}, "cross_negative_sampling"),
    ({"train": {"checkpoint_interval": -1}}, "checkpoint_interval"),
    ({"train": {"seed": -1}}, "seed"),
    ({"train": {"early_stop_patience": -1}}, "early_stop_patience"),
    ({"split": {"seed": "x"}}, "seed"),
    ({"eval": {"ks": [0, -1]}}, "ks"),
    ({"eval": {"ks": 10}}, "ks"),
    ({"eval": {"longtail_threshold": 0}}, "longtail_threshold"),
    ({"output_dir": 7}, "output_dir"),
    ({"train": {"early_stop_patience": 0}}, "early_stop_patience"),
])
def test_invalid_value_error_names_file(tmp_path, cfg, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=re.escape(str(path))) as exc:
        load_config(path)
    assert key is None or key in str(exc.value)


def test_ints_stand_for_floats_and_null_for_no_patience(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"learning_rate": 1, "omega": 0,
                                          "early_stop_patience": None}}))
    cfg = load_config(path)
    assert cfg.train.learning_rate == 1 and cfg.train.weights.omega == 0
    assert cfg.train.early_stop_patience is None


def test_readme_config_example_loads(tmp_path):
    """The README's config example passes the typed key table as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(example)
    raw = json.loads(example)
    cfg = load_config(path)
    assert cfg.model.variant == raw["model"]["variant"]
    assert cfg.train.hierarchical_relations == tuple(
        raw["dataset"]["hierarchical_relations"])
    for key, value in raw["train"].items():
        got = getattr(cfg.train.weights if key in ("alpha1", "alpha2", "omega")
                      else cfg.train, key)
        assert got == value, key
    assert cfg.eval.ks == tuple(raw["eval"]["ks"])


def test_config_margin_defaults(tmp_path):
    cfg = {"model": {"variant": "HolE-CT", "d_e": 8, "d_c": 4}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(path)
    assert loaded.train.margins.instance == 1.0
    cfg["model"]["variant"] = "TransE-CT"
    path.write_text(json.dumps(cfg))
    assert load_config(path).train.margins.instance == 0.5


def test_seed_override(tmp_path):
    cfg = {"split": {"seed": 1}, "train": {"seed": 1}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(path, seed_override=99)
    assert loaded.train.seed == 99
    assert loaded.split.seed == 99


def test_check_command_passes(capsys):
    assert main(["check", "--probes", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "FAIL" not in out


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_check_without_probes_is_a_usage_error(capsys, probes):
    """A check that probes nothing cannot pass."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "--probes", probes])
    assert exc.value.code == 2
    assert f"argument --probes: must be at least 1, got {probes}" in capsys.readouterr().err
    from twoview import diagnostics
    with pytest.raises(ConfigError, match="n_probes must be at least 1"):
        diagnostics.run_all(n_probes=int(probes))


def test_check_command_audits_checkpoint(workspace, capsys):
    root, cfg_path, config, _ = workspace
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    assert main(["check", "--probes", "3", "--seed", "0", "--config",
                 str(cfg_path), "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] checkpoint-norms" in out


def test_check_command_catches_injected_fault(monkeypatch, capsys):
    """A doubled analytic gradient in the CT check (the only gradient check
    whose parameters hold a CT map) fails that check, and only it."""
    from twoview import diagnostics
    real = diagnostics.grads_to_vector

    def doubled_for_ct(grads, template):
        return real(grads, template) * (2.0 if template.ct_map is not None else 1.0)
    monkeypatch.setattr(diagnostics, "grads_to_vector", doubled_for_ct)
    assert main(["check", "--probes", "3", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert re.findall(r"\[FAIL\] (\S+):", out) == ["grad-ct"]


def test_unreadable_checkpoint_or_config_is_an_error(tmp_path, capsys):
    """A missing checkpoint, a config path that is a directory and a config
    that is not UTF-8 each end in `error: ...` naming the file, exit 2."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"output_dir": "caf\xe9"}')
    missing = tmp_path / "missing.ckpt"
    for argv, path in [(["check", "--checkpoint", str(missing)], missing),
                       (["check", "--config", str(tmp_path)], tmp_path),
                       (["train", "--config", str(latin1)], latin1)]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, err


def test_ha_train_refuses_a_different_hierarchy_file(workspace, tmp_path, capsys):
    """`hierarchy.tsv` holds the pairs prepare extracted; an HA run whose
    hierarchical relations extract other pairs stops with an error naming
    the file instead of training on pairs the split directory does not hold."""
    _, cfg_path, _, _ = workspace
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["dataset"]["split_dir"] = str(tmp_path / "splits")
    cfg["model"]["variant"] = "HATransE-CT"
    cfg["train"]["epochs"] = 1
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "ha.json"
    path.write_text(json.dumps(cfg))
    assert main(["prepare", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path)]) == 0
    cfg["dataset"]["hierarchical_relations"] += [f"m{i}" for i in range(10)]
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "splits" / "hierarchy.tsv") in err


def test_train_checkpoint_interval(workspace, tmp_path):
    root, cfg_path, config, _ = workspace
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["train"]["checkpoint_interval"] = 1
    cfg["train"]["epochs"] = 2
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 0
    out = Path(cfg["output_dir"])
    assert (out / "checkpoint_epoch0001.ckpt").exists()
    assert (out / "checkpoint_epoch0002.ckpt").exists()
    assert (out / "checkpoint.ckpt").exists()


def test_nonfinite_gradient_names_epoch_source_batch(workspace, tmp_path,
                                                     monkeypatch, capsys):
    """A NaN gradient row in epoch 2 stops `train` with exit code 2 and an
    error naming the epoch, the source and the batch; the checkpoint saved
    after epoch 1 is left intact."""
    import numpy as np

    from twoview import training
    from twoview.checkpoint import load_checkpoint
    _, cfg_path, _, _ = workspace
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["dataset"]["split_dir"] = str(tmp_path / "splits")
    cfg["train"].update(checkpoint_interval=1, epochs=3)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert main(["prepare", "--config", str(path)]) == 0

    epochs = []
    real_epoch, real_loss = training.train_epoch, training.intra_hinge_loss

    def counted_epoch(*args, **kwargs):
        epochs.append(1)
        return real_epoch(*args, **kwargs)

    def nan_loss(*args):
        loss, grads = real_loss(*args)
        if len(epochs) == 2:
            next(iter(grads.rows.values()))[:] = np.nan
        return loss, grads
    monkeypatch.setattr(training, "train_epoch", counted_epoch)
    monkeypatch.setattr(training, "intra_hinge_loss", nan_loss)
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"epoch 2, instance batch 1 of \d+: non-finite gradient "
                     r"for entities row \d+", err), err
    out = Path(cfg["output_dir"])
    params, _, header = load_checkpoint(out / "checkpoint_epoch0001.ckpt")
    assert header["epoch"] == 1 and np.isfinite(params.entities).all()
    assert not (out / "checkpoint_epoch0002.ckpt").exists()
    assert not (out / "checkpoint.ckpt").exists()


@pytest.fixture(scope="module")
def trained(workspace):
    """The workspace's config and checkpoint, prepared and trained here
    unless an earlier test did so."""
    root, cfg_path, config, _ = workspace
    ckpt = Path(config["output_dir"]) / "checkpoint.ckpt"
    if not ckpt.exists():
        assert main(["prepare", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, ckpt


def _variant(workspace, tmp_path, edit) -> Path:
    """A copy of the workspace config with its own split directory, changed
    by ``edit(config)``."""
    cfg = json.loads(Path(workspace[1]).read_text())
    cfg["dataset"]["split_dir"] = str(tmp_path / "splits")
    cfg["output_dir"] = str(tmp_path / "out")
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("query, message", [
    (["typo", "e00_0"], "unknown query kind 'typo'"),
    (["type"], "query 'type' takes 1 name(s)"),
    (["type", "e00_0", "e00_1"], "query 'type' takes 1 name(s)"),
    (["tail", "e00_0"], "query 'tail' takes 2 name(s)"),
    (["tail", "e00_0", "r0", "e00_1"], "query 'tail' takes 2 name(s)"),
    (["meta", "concept00"], "query 'meta' takes 2 name(s)"),
    (["meta", "concept00", "m0", "concept01"], "query 'meta' takes 2 name(s)"),
    (["relquery", "concept00"], "query 'relquery' takes 2 name(s)"),
    (["relquery", "concept00", "concept01", "concept02"],
     "query 'relquery' takes 2 name(s)"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_predict_rejects_unknown_kind_and_wrong_name_count(trained, capsys, query,
                                                          message):
    cfg_path, ckpt = trained
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 *query]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("query, answers", [
    (["meta", "concept00", "m0"], "concepts.txt"),
    (["relquery", "concept00", "concept01"], "relations.txt"),
    (["tail", "e00_0", "r0"], "entities.txt"),
    (["type", "e00_0"], "concepts.txt"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_predict_answers_name_the_answer_vocabulary(trained, workspace, capsys,
                                                   query, answers):
    cfg_path, ckpt = trained
    names = (Path(workspace[2]["dataset"]["split_dir"]) / answers).read_text().split()
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 *query, "-k", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    assert all(next(iter(row.values())) in names for row in rows)


@pytest.mark.parametrize("what, table, rows", [
    ("entities", "entities", 200), ("relations", "relations", 10),
    ("concepts", "concepts", 20), ("meta", "meta_relations", 11)])
def test_export_writes_every_row_under_its_vocabulary(trained, workspace, tmp_path,
                                                     capsys, what, table, rows):
    import numpy as np
    from twoview.checkpoint import load_checkpoint

    cfg_path, ckpt = trained
    names = (Path(workspace[2]["dataset"]["split_dir"]) / f"{table}.txt"
             ).read_text().splitlines()
    out = tmp_path / f"{what}.tsv"
    assert main(["export", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--what", what, "--file", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {rows} rows to {out}\n"
    lines = [line.split("\t") for line in out.read_text().splitlines()]
    values = load_checkpoint(ckpt)[0].table(table)
    assert [line[0] for line in lines] == names and len(names) == rows
    assert np.array_equal(np.array([line[1:] for line in lines], np.float32), values)


@pytest.mark.parametrize("key", ["instance_triples", "ontology_triples"])
def test_empty_triple_file_is_named(workspace, tmp_path, capsys, key):
    """An empty raw triple file used to fail as 'cannot split an empty triple
    store', naming neither the file nor the store."""
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    path = _variant(workspace, tmp_path,
                    lambda cfg: cfg["dataset"].update({key: str(empty)}))
    assert main(["prepare", "--config", str(path)]) == 2
    view = key.split("_")[0]
    assert capsys.readouterr().err == f"error: {empty} holds no {view} triples\n"


def test_self_paired_raw_hierarchy_triple_is_named(workspace, tmp_path, capsys):
    """A hierarchy triple from a concept to itself in the ontology train
    split used to be reported as 'identical concepts (id 3)'."""
    onto = tmp_path / "ontology.tsv"
    onto.write_text(Path(workspace[2]["dataset"]["ontology_triples"]).read_text()
                    + "concept03\tsubclass_of\tconcept03\n")

    def edit(cfg):
        cfg["dataset"]["ontology_triples"] = str(onto)
        cfg["split"]["seed"] = 7        # puts the triple in the train split
    assert main(["prepare", "--config", str(_variant(workspace, tmp_path, edit))]) == 2
    err = capsys.readouterr().err
    assert "identical concepts" in err
    assert "'concept03'" in err and "'subclass_of'" in err and "id 3" not in err


@pytest.mark.parametrize("seed", range(8))
def test_self_paired_raw_hierarchy_triple_fails_at_every_seed(workspace, tmp_path,
                                                              capsys, seed):
    """Every ontology triple is checked, not only the train split's, and
    before any file is written: at split seed 5 the triple used to land in
    valid or test and prepare passed, at the other seeds it failed after
    writing every TSV."""
    onto = tmp_path / "ontology.tsv"
    onto.write_text(Path(workspace[2]["dataset"]["ontology_triples"]).read_text()
                    + "concept03\tsubclass_of\tconcept03\n")

    def edit(cfg):
        cfg["dataset"]["ontology_triples"] = str(onto)
        cfg["split"]["seed"] = seed
    path = _variant(workspace, tmp_path, edit)
    (tmp_path / "splits").mkdir()
    assert main(["prepare", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: ontology triple 'subclass_of' from concept 'concept03' to itself: "
        "a hierarchy pair with identical concepts\n")
    assert list((tmp_path / "splits").iterdir()) == []


def test_self_paired_hierarchy_file_is_named(workspace, tmp_path, capsys):
    """A pair of one concept with itself in a split directory's
    hierarchy.tsv fails hierarchy-aware training naming the file, the line
    and the concept."""
    def edit(cfg):
        cfg["model"]["variant"] = "HATransE-CT"
        cfg["train"]["epochs"] = 1
    path = _variant(workspace, tmp_path, edit)
    assert main(["prepare", "--config", str(path)]) == 0
    hierarchy = tmp_path / "splits" / "hierarchy.tsv"
    lines = hierarchy.read_text().splitlines()
    hierarchy.write_text("\n".join(lines[:2] + ["", "concept05\tconcept05"] + lines[2:])
                         + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {hierarchy}:4: hierarchy pair with identical concepts ('concept05')\n")
    assert not (tmp_path / "out" / "checkpoint.ckpt").exists()

import pytest

from twoview.config import EvalSettings
from twoview.dataio import load_split_dir, prepare_splits, write_split_dir
from twoview.errors import ConfigError, TwoViewError
from twoview.kb import SplitSpec
from twoview.synth import planted_kb


def test_split_dir_roundtrip(tmp_path):
    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=7))
    write_split_dir(data, tmp_path, kb, ["subclass_of"])
    loaded = load_split_dir(tmp_path)
    assert loaded.entities.names == kb.entities.names
    assert loaded.concepts.names == kb.concepts.names
    for part in ("instance_train", "instance_valid", "instance_test",
                 "ontology_train", "ontology_valid", "ontology_test"):
        assert getattr(loaded, part).triples == getattr(data, part).triples
    for part in ("links_train", "links_test"):
        assert getattr(loaded, part).links == getattr(data, part).links


def test_prepare_union_and_disjointness():
    kb, _ = planted_kb()
    data = prepare_splits(kb, SplitSpec(seed=1))
    union = set(data.instance_train) | set(data.instance_valid) \
        | set(data.instance_test)
    assert union == set(kb.instance)
    assert len(data.instance_train) + len(data.instance_valid) \
        + len(data.instance_test) == len(kb.instance)
    assert set(data.links_train.links) | set(data.links_test.links) \
        == set(kb.links.links)


def test_load_missing_dir_rejected(tmp_path):
    with pytest.raises(TwoViewError):
        load_split_dir(tmp_path / "missing")


@pytest.mark.parametrize("fname, damage", [
    ("links_test.tsv", "delete"), ("instance_train.tsv", "0xff"),
    ("entities.txt", "0xff"), ("concepts.txt", "delete"), ("relations.txt", 3),
    ("instance_valid.tsv", 3)])
def test_unreadable_split_file_named(tmp_path, fname, damage):
    """A missing or non-UTF-8 file is named; a 0xff byte put at the end of
    line ``damage`` (an int) is reported on that line."""
    kb, _ = planted_kb()
    write_split_dir(prepare_splits(kb, SplitSpec(seed=7)), tmp_path, kb)
    path = tmp_path / fname
    if damage == "delete":
        path.unlink()
    elif damage == "0xff":
        raw = path.read_bytes()
        path.write_bytes(raw[:40] + b"\xff" + raw[40:])
    else:
        lines = path.read_bytes().split(b"\n")
        lines[damage - 1] += b"\xff"
        path.write_bytes(b"\n".join(lines))
    with pytest.raises(TwoViewError) as exc:
        load_split_dir(tmp_path)
    assert str(path) in str(exc.value)
    if isinstance(damage, int):
        assert f"line {damage} is not UTF-8" in str(exc.value)


def test_eval_settings_validation():
    with pytest.raises(ConfigError):
        EvalSettings(filter_mode="loose")
    with pytest.raises(ConfigError):
        EvalSettings(direction="sideways")
    ok = EvalSettings(filter_mode="strict", direction="both")
    assert ok.ks == (1, 3, 10)


@pytest.mark.parametrize("fname, edit, line, what", [
    ("relations.txt", lambda names: names[:2] + [""] + names[2:], 3, "blank"),
    ("entities.txt", lambda names: names[:5] + [names[1]] + names[5:], 6, "repeated"),
    ("concepts.txt", lambda names: names + [""], len(planted_kb()[0].concepts) + 1,
     "blank")])
def test_blank_or_repeated_vocabulary_name_named(tmp_path, fname, edit, line, what):
    """A blank or repeated name would shift every later id, so it is an
    error naming the file and line rather than a silently different split."""
    kb, _ = planted_kb()
    write_split_dir(prepare_splits(kb, SplitSpec(seed=7)), tmp_path, kb)
    path = tmp_path / fname
    names = path.read_text(encoding="utf-8").split("\n")[:-1]
    path.write_text("".join(f"{n}\n" for n in edit(names)), encoding="utf-8")
    with pytest.raises(TwoViewError, match=f"{what} name") as exc:
        load_split_dir(tmp_path)
    assert f"{path}:{line}:" in str(exc.value)

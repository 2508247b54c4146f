import hashlib

import pytest

from twoview.config import EvalSettings
from twoview.dataio import load_split_dir, prepare_splits, write_split_dir
from twoview.errors import ConfigError, TwoViewError
from twoview.kb import SplitSpec
from twoview.synth import planted_kb, write_kb_files


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


# SHA-256 of every file written for ``planted_kb()``: its raw TSVs, and the
# split directory of ``SplitSpec(seed=7)`` with ``["subclass_of"]``.  A
# change that reorders a column, a row or a file fails here, where
# comparing two runs of the same code would pass.
RAW_SHA256 = {
    "instance_triples.tsv":
        "384f4cf4e146e62f5a04112e5b5673905c01dcb163b80a1cc9eac931bee7efdd",
    "links.tsv":
        "2c9c034157dd029672e98cc4322a08c0f76d9b10c884408a4aef1082189e489f",
    "ontology_triples.tsv":
        "1f6954277ad35ada9f8fc5fa9df56048f3cdb909ab53891437b33089dc689c2d",
}
SPLIT_SHA256 = {
    "concepts.txt":
        "767aa351f8783ba6b769065be575c1fa5d0da909682be3b68deb45b129854c3d",
    "entities.txt":
        "a0b3d9820f218fec821d1dfd5b6b53d3dd03bb9d9f793b55e7aae25d9d4f36c6",
    "hierarchy.tsv":
        "bbda58f6c77fcde660aa10e19cf2f625663962ad807a07ccfd5f433dd1eaa87b",
    "instance_test.tsv":
        "cfd7838c76e3ee3cf87dd70df5406b8fc03202c040fd2b5c9e08ab78314d0505",
    "instance_train.tsv":
        "a0fbbc2eef3079a05d7dffd66876748e864050d209acaa1d3efe2fa410153926",
    "instance_valid.tsv":
        "1bfd4f7ceff378649a1c200f33fcca26c477b3e682d27d4628f766761ff2378a",
    "links_test.tsv":
        "36711cf99b3dce74fecc8416eb631ac1e808c500fd6ecefa6885e368a7acecb2",
    "links_train.tsv":
        "7d0b252f069368b2f5b004bb5fc45e7bfe06ad2176352d55c53a2a712a776e1b",
    "meta_relations.txt":
        "dd2f8670f609228db1fc2e045a4f3c2c2439190f4459e534c810caab5f773c23",
    "ontology_test.tsv":
        "f1a555c5a8a0a1e7cdd0be097c1b9b8bc03b51f51ab010c9a14ef175139fbed1",
    "ontology_train.tsv":
        "62cab05f484bfffa15f81920a5457c1902e77af522102654ba8b61aaab048d96",
    "ontology_valid.tsv":
        "87e366c49a4c68bd718c8b27bbf32e6fec4edb48728c531dde6265129d4ba7c1",
    "relations.txt":
        "09b21740b7d6538cffd99582b9e8b0b69070150cf23399e4427b5d7048867c91",
    "stats.json":
        "334f6cf839ace3d25a1a7268ac3ee04cb6c2de512ceecc673a6998c565637f31",
}


def test_prepared_bytes_pinned(tmp_path):
    kb, _ = planted_kb()
    write_kb_files(kb, tmp_path / "raw")
    write_split_dir(prepare_splits(kb, SplitSpec(seed=7)), tmp_path / "split", kb,
                    ["subclass_of"])
    for sub, want in (("raw", RAW_SHA256), ("split", SPLIT_SHA256)):
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / sub).iterdir()}
        assert got == want
    vocab_files = {"entities.txt", "relations.txt", "concepts.txt", "meta_relations.txt"}
    split_files = {f"{kind}_{part}.tsv" for kind in ("instance", "ontology")
                   for part in ("train", "valid", "test")}
    split_files |= {"links_train.tsv", "links_test.tsv"}
    assert set(SPLIT_SHA256) == vocab_files | split_files | {"hierarchy.tsv", "stats.json"}
    assert set(RAW_SHA256) == {"instance_triples.tsv", "ontology_triples.tsv", "links.tsv"}

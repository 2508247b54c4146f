import hashlib
import math

import pytest

from twoview.errors import ParseError, TwoViewError, UnknownSymbolError
from twoview.kb import (CrossLinkStore, SplitSpec, Triple, TripleStore, Vocab,
                        dataset_stats, entity_frequency, extract_hierarchy,
                        long_tail_slice, parse_links, parse_triples,
                        split_links, split_triples)
from twoview.prng import SplitMix64, fisher_yates
from twoview.synth import planted_kb, random_kb


def test_vocab_roundtrip():
    v = Vocab(["a", "b", "c"])
    assert len(v) == 3
    for i in range(3):
        assert v.id(v.name(i)) == i
    assert v.add("b") == 1  # idempotent
    with pytest.raises(UnknownSymbolError):
        v.id("missing")


def test_splitmix64_reference_values():
    # published reference sequence for seed 1234567
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_fisher_yates_deterministic():
    a = list(range(10))
    b = list(range(10))
    fisher_yates(a, SplitMix64(42))
    fisher_yates(b, SplitMix64(42))
    assert a == b
    assert sorted(a) == list(range(10))


def test_parse_triples_grow(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr1\tb\nb\tr1\tc\n", encoding="utf-8")
    ents, rels = Vocab(), Vocab()
    store = parse_triples(p, ents, rels, ents, grow=True)
    assert len(store) == 2
    assert len(ents) == 3
    assert len(rels) == 1
    assert Triple(0, 0, 1) in store


def test_parse_triples_duplicates_warn(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\na\tr\tb\n", encoding="utf-8")
    ents, rels = Vocab(), Vocab()
    store = parse_triples(p, ents, rels, ents, grow=True)
    assert len(store) == 1
    assert store.duplicates_dropped == 1


def test_parse_triples_malformed(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\nbad line without tabs\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_triples(p, Vocab(), Vocab(), Vocab(), grow=True)
    assert exc.value.line_no == 2


def test_parse_triples_unknown_symbol(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\n", encoding="utf-8")
    with pytest.raises(UnknownSymbolError):
        parse_triples(p, Vocab(["a"]), Vocab(["r"]), Vocab(["a"]), grow=False)


def test_parse_links(tmp_path):
    p = tmp_path / "l.tsv"
    p.write_text("a\tx\nb\tx\nc\ty\n", encoding="utf-8")
    store = parse_links(p, Vocab(["a", "b", "c"]), Vocab(["x", "y"]))
    assert len(store) == 3
    assert (0, 0) in store


def test_parse_links_skips_unknown(tmp_path):
    p = tmp_path / "l.tsv"
    p.write_text("a\tx\nnobody\tx\n", encoding="utf-8")
    store = parse_links(p, Vocab(["a"]), Vocab(["x"]))
    assert len(store) == 1
    assert store.skipped_unknown == 1


def test_split_triples_sizes_and_partition():
    store = TripleStore(Triple(i, 0, (i + 1) % 100) for i in range(100))
    spec = SplitSpec(0.85, 0.05, 0.10, seed=7)
    train, valid, test = split_triples(store, spec)
    assert (len(train), len(valid), len(test)) == (85, 5, 10)
    merged = set(train) | set(valid) | set(test)
    assert merged == set(store)
    assert not set(train) & set(valid)
    assert not set(train) & set(test)
    assert not set(valid) & set(test)


def test_split_triples_deterministic():
    store = TripleStore(Triple(i, 0, (i + 1) % 50) for i in range(50))
    spec = SplitSpec(seed=123)
    a = split_triples(store, spec)
    b = split_triples(store, spec)
    for x, y in zip(a, b):
        assert x.triples == y.triples


def test_split_triples_rounding_rule():
    # independent reference for the stated rule: floor valid, floor test,
    # remainder to train
    def reference_sizes(n, fv, ft):
        return n - math.floor(fv * n) - math.floor(ft * n), \
            math.floor(fv * n), math.floor(ft * n)

    store = TripleStore(Triple(i, 0, (i + 1) % 10) for i in range(10))
    train, valid, test = split_triples(store, SplitSpec(0.85, 0.05, 0.10, seed=1))
    assert (len(train), len(valid), len(test)) == reference_sizes(10, 0.05, 0.10)
    assert (len(train), len(valid), len(test)) == (9, 0, 1)


def test_split_triples_empty_store_rejected():
    with pytest.raises(TwoViewError):
        split_triples(TripleStore(), SplitSpec())


def test_split_spec_validation():
    with pytest.raises(TwoViewError):
        SplitSpec(0.9, 0.05, 0.10)  # sums to 1.05
    with pytest.raises(TwoViewError):
        SplitSpec(0.9, -0.1, 0.2)
    with pytest.raises(TwoViewError):
        SplitSpec(link_train_ratio=1.0)


def test_split_links_sizes():
    store = CrossLinkStore((i, i % 3) for i in range(10))
    train, test = split_links(store, 0.6, seed=5)
    assert (len(train), len(test)) == (6, 4)
    assert set(train.links) | set(test.links) == set(store.links)
    assert not set(train.links) & set(test.links)


def test_split_links_round_half_up():
    # round(0.2 * 9962) = 1992 at the size reported for the larger corpus
    store = CrossLinkStore((i, i % 17) for i in range(9962))
    train, _ = split_links(store, 0.2, seed=0)
    assert len(train) == 1992


def test_split_links_deterministic_and_validated():
    store = CrossLinkStore((i, 0) for i in range(20))
    a, _ = split_links(store, 0.6, seed=9)
    b, _ = split_links(store, 0.6, seed=9)
    assert a.links == b.links
    with pytest.raises(TwoViewError):
        split_links(store, 1.0, seed=0)


def test_extract_hierarchy(tiny_kb):
    pairs, residual = extract_hierarchy(tiny_kb.ontology, ["subclass_of"],
                                        tiny_kb.meta_relations)
    assert len(pairs) == 1
    assert len(residual) == 1
    assert (0, 1) in pairs
    assert len(pairs) + len(residual) == len(tiny_kb.ontology)


def test_extract_hierarchy_empty_list(tiny_kb):
    pairs, residual = extract_hierarchy(tiny_kb.ontology, [],
                                        tiny_kb.meta_relations)
    assert len(pairs) == 0
    assert len(residual) == len(tiny_kb.ontology)


def test_extract_hierarchy_unknown_relation(tiny_kb):
    with pytest.raises(UnknownSymbolError) as exc:
        extract_hierarchy(tiny_kb.ontology, ["no_such"], tiny_kb.meta_relations)
    assert "no_such" in str(exc.value)


def test_entity_frequency():
    store = TripleStore([Triple(0, 0, 1)])
    assert entity_frequency(store) == {0: 1, 1: 1}
    store = TripleStore([Triple(0, 0, 0)])
    assert entity_frequency(store) == {0: 2}
    store = TripleStore([Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 1)])
    assert entity_frequency(store) == {0: 1, 1: 3, 2: 2}


def test_entity_frequency_total_is_twice_triples(rng):
    store = TripleStore(Triple(int(rng.integers(20)), int(rng.integers(3)),
                               int(rng.integers(20))) for _ in range(200))
    freq = entity_frequency(store)
    assert sum(freq.values()) == 2 * len(store)


def test_long_tail_slice():
    assert long_tail_slice({0: 1, 1: 9}, 8) == {0}
    assert long_tail_slice({0: 1, 1: 9}, 1) == set()
    assert long_tail_slice({0: 1, 1: 2, 2: 3}, 3) == {0, 1}
    with pytest.raises(TwoViewError):
        long_tail_slice({0: 1}, 0)


def test_dataset_stats(tiny_kb):
    stats = dataset_stats(tiny_kb)
    assert stats.n_entities == 3
    assert stats.n_relations == 2
    assert stats.n_instance_triples == 3
    assert stats.n_concepts == 2
    assert stats.n_meta_relations == 2
    assert stats.n_ontology_triples == 2
    assert stats.n_links == 3
    d = stats.to_dict()
    assert d["entities"] == 3 and d["links"] == 3


def test_dataset_stats_empty():
    from twoview.kb import KnowledgeBase
    stats = dataset_stats(KnowledgeBase())
    assert all(v == 0 for v in stats.to_dict().values())


def _kb_sha256(kb) -> str:
    """SHA-256 over the four vocabularies' names in id order, then each
    store's little-endian int64 rows and its duplicate count."""
    h = hashlib.sha256()
    for vocab in (kb.entities, kb.relations, kb.concepts, kb.meta_relations):
        h.update("\n".join(vocab.names).encode() + b"\0")
    for store in (kb.instance, kb.ontology, kb.links):
        h.update(store.rows.astype("<i8").tobytes() + b"%d\0" % store.duplicates_dropped)
    return h.hexdigest()


# The synthetic KBs every end-to-end test trains on, pinned byte for byte:
# a change to their names, row order or deduplication fails here first.
SYNTH_SHA256 = {
    "planted_kb()": (lambda: planted_kb()[0],
                     "7d4b05ee7499940b3c5a01858c074cbf2165714d9a81773a806c0803b9193199"),
    "planted_kb(30, 5, 10, 5)": (lambda: planted_kb(30, 5, 10, 5)[0],
                                 "88958ff9b3ccefa4366bf656f1f11ebc603a3d943f7efd2fc5b4c4984b3c04a7"),
    "random_kb(0)": (lambda: random_kb(0),
                     "98f03c61359ba0d3c3759e69945ab453b7ec146a32370d5447c0d109edfd9d74"),
    "random_kb(7)": (lambda: random_kb(7),
                     "6e622eabf3ecfb4f71e788fa1d5340baa7d1191d1545b65133c29a9d55626bd5"),
    "random_kb(8)": (lambda: random_kb(8),
                     "8a37b5633a905f919d227bfeb15f6be5bc028222d76086bc2db119babfec7fc1"),
    "random_kb(9)": (lambda: random_kb(9),
                     "c760ea390ec2b9676da8b22e497ca4631c1247948226fffec611b9e9d492ff5e"),
}


@pytest.mark.parametrize("call", SYNTH_SHA256)
def test_synth_kbs_are_pinned(call):
    build, digest = SYNTH_SHA256[call]
    assert _kb_sha256(build()) == digest

"""Prepared split directories: deterministic splitting plus flat-file IO.

A split directory contains the four vocabularies (one name per line, in id
order), the six triple split files, the two link split files, the hierarchy
pairs extracted from the ontology train split, and a stats JSON.  Loading a
directory reconstructs the exact id assignment of the prepare run, which is
what the checkpoint vocabulary hashes are computed over.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import TwoViewError
from .kb import (KnowledgeBase, SplitSpec, TripleStore, Vocab, dataset_stats,
                 extract_hierarchy, parse_links, parse_triples, split_links,
                 split_triples)
from .training import SplitDataset

VOCAB_FILES = {
    "entities": "entities.txt",
    "relations": "relations.txt",
    "concepts": "concepts.txt",
    "meta_relations": "meta_relations.txt",
}


def prepare_splits(kb: KnowledgeBase, spec: SplitSpec) -> SplitDataset:
    """Split both triple stores and the links of a KB deterministically.

    Each store gets its own SplitMix64 stream derived from the configured
    seed so the three shuffles are independent but fully reproducible.
    """
    i_train, i_valid, i_test = split_triples(kb.instance, spec)
    onto_spec = SplitSpec(spec.train_frac, spec.valid_frac, spec.test_frac,
                          spec.link_train_ratio, seed=spec.seed + 1)
    o_train, o_valid, o_test = split_triples(kb.ontology, onto_spec)
    l_train, l_test = split_links(kb.links, spec.link_train_ratio, spec.seed + 2)
    return SplitDataset(
        entities=kb.entities, relations=kb.relations, concepts=kb.concepts,
        meta_relations=kb.meta_relations,
        instance_train=i_train, instance_valid=i_valid, instance_test=i_test,
        ontology_train=o_train, ontology_valid=o_valid, ontology_test=o_test,
        links_train=l_train, links_test=l_test,
    )


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _triple_lines(store: TripleStore, head_vocab: Vocab, rel_vocab: Vocab,
                  tail_vocab: Vocab):
    for h, r, t in store:
        yield f"{head_vocab.name(h)}\t{rel_vocab.name(r)}\t{tail_vocab.name(t)}"


def write_split_dir(data: SplitDataset, out_dir, kb: KnowledgeBase,
                    hierarchical_relations: list[str] | None = None) -> None:
    """Write a prepared split directory (byte-identical across reruns)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for attr, fname in VOCAB_FILES.items():
        _write_lines(out / fname, getattr(data, attr).names)
    for view, vocabs in (("instance", (data.entities, data.relations, data.entities)),
                         ("ontology", (data.concepts, data.meta_relations,
                                       data.concepts))):
        for part in ("train", "valid", "test"):
            store = getattr(data, f"{view}_{part}")
            _write_lines(out / f"{view}_{part}.tsv",
                         _triple_lines(store, *vocabs))
    for part in ("train", "test"):
        store = getattr(data, f"links_{part}")
        _write_lines(out / f"links_{part}.tsv",
                     (f"{data.entities.name(e)}\t{data.concepts.name(c)}"
                      for e, c in store))
    pairs = []
    if hierarchical_relations:
        hier, _ = extract_hierarchy(data.ontology_train, hierarchical_relations,
                                    data.meta_relations)
        pairs = hier.pairs
    _write_lines(out / "hierarchy.tsv",
                 (f"{data.concepts.name(lo)}\t{data.concepts.name(hi)}"
                  for lo, hi in pairs))
    stats = dataset_stats(kb).to_dict()
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_split_dir(split_dir) -> SplitDataset:
    """Load a prepared split directory back into memory."""
    root = Path(split_dir)
    if not root.is_dir():
        raise TwoViewError(f"split directory {root} does not exist")
    vocabs = {}
    for attr, fname in VOCAB_FILES.items():
        path = root / fname
        try:
            names = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise TwoViewError(f"cannot read vocabulary file {path}: {exc}") from None
        vocabs[attr] = Vocab(n for n in names if n)

    def triples(name, head, rel, tail):
        return parse_triples(root / name, head, rel, tail, grow=False)

    e, r = vocabs["entities"], vocabs["relations"]
    c, m = vocabs["concepts"], vocabs["meta_relations"]
    return SplitDataset(
        entities=e, relations=r, concepts=c, meta_relations=m,
        instance_train=triples("instance_train.tsv", e, r, e),
        instance_valid=triples("instance_valid.tsv", e, r, e),
        instance_test=triples("instance_test.tsv", e, r, e),
        ontology_train=triples("ontology_train.tsv", c, m, c),
        ontology_valid=triples("ontology_valid.tsv", c, m, c),
        ontology_test=triples("ontology_test.tsv", c, m, c),
        links_train=parse_links(root / "links_train.tsv", e, c),
        links_test=parse_links(root / "links_test.tsv", e, c),
    )

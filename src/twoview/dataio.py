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
from .kb import (HierarchyStore, KnowledgeBase, SplitSpec, Vocab, dataset_stats,
                 extract_hierarchy, parse_links, parse_triples, split_links,
                 split_triples, write_tsv)
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


def write_split_dir(data: SplitDataset, out_dir, kb: KnowledgeBase,
                    hierarchical_relations: list[str] | None = None) -> None:
    """Write a prepared split directory (byte-identical across reruns)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for attr, fname in VOCAB_FILES.items():
        (out / fname).write_text("".join(f"{n}\n" for n in getattr(data, attr).names),
                                 encoding="utf-8")
    e, r, c, m = data.entities, data.relations, data.concepts, data.meta_relations
    for view, vocabs in (("instance", (e, r, e)), ("ontology", (c, m, c)),
                         ("links", (e, c))):
        for part in ("train", "valid", "test"):
            if hasattr(data, f"{view}_{part}"):
                write_tsv(out / f"{view}_{part}.tsv", getattr(data, f"{view}_{part}"),
                          vocabs)
    hierarchy = HierarchyStore()
    if hierarchical_relations:
        hierarchy, _ = extract_hierarchy(data.ontology_train, hierarchical_relations, m)
    write_tsv(out / "hierarchy.tsv", hierarchy, (c, c))
    stats = dataset_stats(kb).to_dict()
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_vocab(path: Path) -> Vocab:
    """One name per line, in id order.  A blank or repeated name is an
    error: it would shift the id of every later name."""
    try:
        names = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise TwoViewError(f"cannot read vocabulary file {path}: {exc}") from None
    if names[-1] == "":
        names.pop()
    vocab = Vocab(names)
    if len(vocab) < len(names) or "" in vocab:
        line, name = next((i, n) for i, n in enumerate(names, 1)
                          if not n or vocab.index[n] != i - 1)
        raise TwoViewError(f"{path}:{line}: {'repeated' if name else 'blank'} "
                           f"name {name!r} in a vocabulary file")
    return vocab


def load_split_dir(split_dir) -> SplitDataset:
    """Load a prepared split directory back into memory."""
    root = Path(split_dir)
    if not root.is_dir():
        raise TwoViewError(f"split directory {root} does not exist")
    e, r, c, m = (_read_vocab(root / fname) for fname in VOCAB_FILES.values())

    def triples(name, head, rel, tail):
        return parse_triples(root / name, head, rel, tail, grow=False)

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

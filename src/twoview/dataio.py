"""Prepared split directories: deterministic splitting plus flat-file IO.

A split directory holds ``<name>.txt`` per vocabulary of ``kb.VOCABS`` (one
name per line, in id order), ``<kind>_<part>.tsv`` per store split of
``PARTS`` in the vocabularies ``kb.COLUMNS`` gives its kind, the hierarchy
pairs extracted from the ontology train split with prepare's hierarchical
relations (``hierarchy.tsv``, which hierarchy-aware training checks against
its own extraction), and ``stats.json``.  Loading a directory reconstructs
the exact id assignment of the prepare run, which is what the checkpoint
vocabulary hashes are computed over.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, TwoViewError
from .kb import (VOCABS, KnowledgeBase, SplitDataset, SplitSpec, Vocab,
                 _bad_byte_line, dataset_stats, extract_hierarchy, read_store,
                 split_links, split_triples, write_tsv)

# The parts each store kind is split into; part p of kind k is the
# ``SplitDataset`` field ``k_p``, written to ``k_p.tsv``.
PARTS = {
    "instance": ("train", "valid", "test"),
    "ontology": ("train", "valid", "test"),
    "links": ("train", "test"),
}
# (kind, field name) of every split store, in ``PARTS`` order
_FIELDS = [(kind, f"{kind}_{part}") for kind, parts in PARTS.items() for part in parts]


def prepare_splits(kb: KnowledgeBase, spec: SplitSpec) -> SplitDataset:
    """Split both triple stores and the links of a KB deterministically.

    Each store gets its own SplitMix64 stream derived from the configured
    seed so the three shuffles are independent but fully reproducible.
    """
    splits = {
        "instance": split_triples(kb.instance, spec),
        "ontology": split_triples(kb.ontology, replace(spec, seed=spec.seed + 1)),
        "links": split_links(kb.links, spec.link_train_ratio, spec.seed + 2),
    }
    return SplitDataset(**{name: getattr(kb, name) for name in VOCABS},
                        **{f"{kind}_{part}": store for kind, parts in PARTS.items()
                           for part, store in zip(parts, splits[kind])})


def write_split_dir(data: SplitDataset, out_dir, kb: KnowledgeBase,
                    hierarchical_relations: list[str] | None = None) -> None:
    """Write a prepared split directory (byte-identical across reruns).
    Every ontology triple of ``kb`` is checked before anything is written,
    so a hierarchical-relation triple from a concept to itself fails
    whichever split it falls in."""
    extract_hierarchy(kb.ontology, hierarchical_relations or [], kb.meta_relations,
                      kb.concepts)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in VOCABS:
        (out / f"{name}.txt").write_text(
            "".join(f"{n}\n" for n in getattr(data, name).names), encoding="utf-8")
    for kind, name in _FIELDS:
        write_tsv(out / f"{name}.tsv", getattr(data, name), data, kind)
    hierarchy, _ = extract_hierarchy(data.ontology_train, hierarchical_relations or [],
                                     data.meta_relations, data.concepts)
    write_tsv(out / "hierarchy.tsv", hierarchy, data, "hierarchy")
    stats = dataset_stats(kb).to_dict()
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_hierarchy_file(split_dir, data: SplitDataset,
                         hierarchical_relations) -> None:
    """Raise ``ConfigError`` unless the split directory's ``hierarchy.tsv``,
    the pairs prepare extracted, holds the pairs, in order, that
    ``hierarchical_relations`` extract from its ontology train split: the
    pairs hierarchy-aware training uses."""
    path = Path(split_dir) / "hierarchy.tsv"
    written = read_store(path, data, "hierarchy")
    names = list(hierarchical_relations)
    wanted, _ = extract_hierarchy(data.ontology_train, names, data.meta_relations,
                                  data.concepts)
    if not np.array_equal(written.rows, wanted.rows):
        raise ConfigError(
            f"{path} does not hold the {len(wanted)} hierarchy pairs that {names} "
            f"extract from the ontology train split (it holds {len(written)}); "
            "prepare the split again with the same hierarchical_relations")


def _read_vocab(path: Path) -> Vocab:
    """One name per line, in id order.  A blank or repeated name is an
    error: it would shift the id of every later name."""
    try:
        names = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = _bad_byte_line(path)
        raise TwoViewError(f"cannot read vocabulary file {path}: line {line} "
                           f"is not UTF-8 ({exc.reason})") from None
    except OSError as exc:
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
    held = SimpleNamespace(**{name: _read_vocab(root / f"{name}.txt") for name in VOCABS})
    return SplitDataset(**vars(held), **{name: read_store(root / f"{name}.tsv", held, kind)
                                         for kind, name in _FIELDS})

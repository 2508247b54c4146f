"""Two-view knowledge base: vocabularies, triple/link stores, ingestion, splits.

A knowledge base holds an instance-view graph (entities and relations) and an
ontology-view graph (concepts and meta-relations), bridged by entity->concept
links and, optionally, a set of fine->coarse concept hierarchy pairs.  All
four vocabularies are kept separate so the two views can never share ids.

File formats are TAB-separated UTF-8: triples as ``head\\trelation\\ttail``
and links / hierarchy pairs as two columns.  Names may contain spaces but not
tabs.  Blank lines are ignored; any other line with the wrong field count is
a parse error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import ParseError, TwoViewError, UnknownSymbolError
from .prng import SplitMix64, fisher_yates

log = logging.getLogger(__name__)


class Vocab:
    """Ordered bijection between names and dense 0-based ids."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Intern ``name``, returning its id (existing or newly assigned)."""
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self.index[name] = idx
        return idx

    def id(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown name: {name!r}") from None

    def name(self, idx: int) -> str:
        return self.names[idx]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class TripleStore:
    """Deduplicated list of triples with O(1) membership."""

    __slots__ = ("triples", "_members", "duplicates_dropped")

    def __init__(self, triples: Iterable[Triple] = ()):
        self.triples: list[Triple] = []
        self._members: set[Triple] = set()
        self.duplicates_dropped = 0
        for t in triples:
            self.add(t)

    def add(self, t: Triple) -> bool:
        """Insert ``t``; returns False (and counts a warning) on duplicates."""
        t = Triple(*t)
        if t in self._members:
            self.duplicates_dropped += 1
            return False
        self._members.add(t)
        self.triples.append(t)
        return True

    def __contains__(self, t) -> bool:
        return Triple(*t) in self._members

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)


class CrossLinkStore:
    """Deduplicated (entity, concept) links with per-entity concept lists."""

    __slots__ = ("links", "_members", "by_entity", "duplicates_dropped",
                 "skipped_unknown")

    def __init__(self, links: Iterable[tuple[int, int]] = ()):
        self.links: list[tuple[int, int]] = []
        self._members: set[tuple[int, int]] = set()
        self.by_entity: dict[int, list[int]] = {}
        self.duplicates_dropped = 0
        self.skipped_unknown = 0
        for e, c in links:
            self.add(e, c)

    def add(self, entity: int, concept: int) -> bool:
        pair = (entity, concept)
        if pair in self._members:
            self.duplicates_dropped += 1
            return False
        self._members.add(pair)
        self.links.append(pair)
        self.by_entity.setdefault(entity, []).append(concept)
        return True

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self._members

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self):
        return iter(self.links)


class HierarchyStore:
    """Deduplicated (finer concept, coarser concept) pairs."""

    __slots__ = ("pairs", "_members")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        self.pairs: list[tuple[int, int]] = []
        self._members: set[tuple[int, int]] = set()
        for lo, hi in pairs:
            self.add(lo, hi)

    def add(self, finer: int, coarser: int) -> bool:
        if finer == coarser:
            raise TwoViewError(
                f"hierarchy pair with identical concepts (id {finer})")
        pair = (finer, coarser)
        if pair in self._members:
            return False
        self._members.add(pair)
        self.pairs.append(pair)
        return True

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self._members

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass
class KnowledgeBase:
    """All stores and vocabularies of a two-view KB."""

    entities: Vocab = field(default_factory=Vocab)
    relations: Vocab = field(default_factory=Vocab)
    concepts: Vocab = field(default_factory=Vocab)
    meta_relations: Vocab = field(default_factory=Vocab)
    instance: TripleStore = field(default_factory=TripleStore)
    ontology: TripleStore = field(default_factory=TripleStore)
    links: CrossLinkStore = field(default_factory=CrossLinkStore)
    hierarchy: HierarchyStore = field(default_factory=HierarchyStore)


@dataclass(frozen=True)
class SplitSpec:
    """Fractions and seed for deterministic dataset splitting."""

    train_frac: float = 0.85
    valid_frac: float = 0.05
    test_frac: float = 0.10
    link_train_ratio: float = 0.6
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise TwoViewError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise TwoViewError(f"split fractions must sum to 1, got {fracs}")
        if not 0.0 < self.link_train_ratio < 1.0:
            raise TwoViewError(
                f"link train ratio must be in (0, 1), got {self.link_train_ratio}")


# --------------------------------------------------------------------------
# File ingestion


def _iter_fields(path, n_fields: int):
    """Yield (line_no, fields) for every non-blank line of a TSV file.  A
    file that is missing, unreadable or not UTF-8 raises ``TwoViewError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != n_fields:
                    raise ParseError(
                        path, line_no,
                        f"expected {n_fields} TAB-separated fields, got {len(fields)}")
                yield line_no, fields
    except (OSError, UnicodeDecodeError) as exc:
        raise TwoViewError(f"cannot read {path}: {exc}") from None


def parse_triples(path, head_vocab: Vocab, rel_vocab: Vocab,
                  tail_vocab: Vocab, grow: bool = False) -> TripleStore:
    """Read a 3-column TSV triple file into a store.

    With ``grow`` set, unseen names are interned in first-occurrence order
    (head, relation, tail per line); otherwise an unknown name is an error.
    Duplicate lines are collapsed and counted on the returned store.
    """
    store = TripleStore()
    for line_no, (h, r, t) in _iter_fields(path, 3):
        if grow:
            triple = Triple(head_vocab.add(h), rel_vocab.add(r), tail_vocab.add(t))
        else:
            try:
                triple = Triple(head_vocab.id(h), rel_vocab.id(r), tail_vocab.id(t))
            except UnknownSymbolError as exc:
                raise UnknownSymbolError(f"{path}:{line_no}: {exc}") from None
        store.add(triple)
    if store.duplicates_dropped:
        log.warning("%s: dropped %d duplicate triples", path,
                    store.duplicates_dropped)
    return store


def parse_links(path, entity_vocab: Vocab, concept_vocab: Vocab) -> CrossLinkStore:
    """Read a 2-column TSV link file (entity, concept) into a store.

    Links must reference nodes already present in the two views, so lines
    naming unknown entities or concepts are skipped with a counted warning.
    """
    store = CrossLinkStore()
    for line_no, (e, c) in _iter_fields(path, 2):
        if e not in entity_vocab or c not in concept_vocab:
            store.skipped_unknown += 1
            continue
        store.add(entity_vocab.id(e), concept_vocab.id(c))
    if store.skipped_unknown:
        log.warning("%s: skipped %d links naming unknown nodes", path,
                    store.skipped_unknown)
    if store.duplicates_dropped:
        log.warning("%s: dropped %d duplicate links", path,
                    store.duplicates_dropped)
    return store


# --------------------------------------------------------------------------
# Splitting

def split_triples(store: TripleStore,
                  spec: SplitSpec) -> tuple[TripleStore, TripleStore, TripleStore]:
    """Deterministically partition a store into train/valid/test.

    The triples are shuffled by Fisher-Yates under SplitMix64(seed), then the
    first ``n - floor(valid_frac*n) - floor(test_frac*n)`` go to train, the
    next ``floor(valid_frac*n)`` to valid and the rest to test.  Train takes
    the rounding remainder.
    """
    n = len(store)
    if n == 0:
        raise TwoViewError("cannot split an empty triple store")
    order = list(store.triples)
    fisher_yates(order, SplitMix64(spec.seed))
    n_valid = math.floor(spec.valid_frac * n)
    n_test = math.floor(spec.test_frac * n)
    n_train = n - n_valid - n_test
    return (TripleStore(order[:n_train]),
            TripleStore(order[n_train:n_train + n_valid]),
            TripleStore(order[n_train + n_valid:]))


def split_links(store: CrossLinkStore, train_ratio: float,
                seed: int) -> tuple[CrossLinkStore, CrossLinkStore]:
    """Deterministically partition links with |train| = round(ratio * |S|).

    Rounding is half-up (``floor(x + 0.5)``) so the split size is identical
    on every platform.
    """
    if not 0.0 < train_ratio < 1.0:
        raise TwoViewError(f"link train ratio must be in (0, 1), got {train_ratio}")
    order = list(store.links)
    fisher_yates(order, SplitMix64(seed))
    n_train = math.floor(train_ratio * len(order) + 0.5)
    return CrossLinkStore(order[:n_train]), CrossLinkStore(order[n_train:])


def extract_hierarchy(onto: TripleStore, hierarchical_relation_names: list[str],
                      meta_vocab: Vocab) -> tuple[HierarchyStore, TripleStore]:
    """Pull hierarchy triples out of an ontology store.

    Every triple whose meta-relation name appears in the list becomes a
    (finer, coarser) pair — head is the finer concept — and the remaining
    triples form the residual store.  Pair count plus residual count always
    equals the input count.
    """
    unknown = [n for n in hierarchical_relation_names if n not in meta_vocab]
    if unknown:
        raise UnknownSymbolError(
            f"hierarchical relation names not in meta-relation vocabulary: {unknown}")
    hier_ids = {meta_vocab.id(n) for n in hierarchical_relation_names}
    pairs = HierarchyStore()
    residual = TripleStore()
    for t in onto:
        if t.relation in hier_ids:
            pairs.add(t.head, t.tail)
        else:
            residual.add(t)
    return pairs, residual


# --------------------------------------------------------------------------
# Statistics

def entity_frequency(instance: TripleStore) -> dict[int, int]:
    """Occurrence count per entity: head plus tail appearances (self-loops count twice)."""
    freq: dict[int, int] = {}
    for h, _, t in instance:
        freq[h] = freq.get(h, 0) + 1
        freq[t] = freq.get(t, 0) + 1
    return freq


def long_tail_slice(freq: dict[int, int], threshold: int) -> set[int]:
    """Entities whose occurrence count is strictly below ``threshold``."""
    if threshold < 1:
        raise TwoViewError(f"long-tail threshold must be >= 1, got {threshold}")
    return {e for e, n in freq.items() if n < threshold}


@dataclass(frozen=True)
class Stats:
    """Dataset size summary (the seven headline counts plus parser warnings)."""

    n_entities: int
    n_relations: int
    n_instance_triples: int
    n_concepts: int
    n_meta_relations: int
    n_ontology_triples: int
    n_links: int
    duplicate_triples_dropped: int = 0
    duplicate_links_dropped: int = 0
    links_skipped_unknown: int = 0

    def to_dict(self) -> dict:
        return {
            "entities": self.n_entities,
            "relations": self.n_relations,
            "instance_triples": self.n_instance_triples,
            "concepts": self.n_concepts,
            "meta_relations": self.n_meta_relations,
            "ontology_triples": self.n_ontology_triples,
            "links": self.n_links,
            "duplicate_triples_dropped": self.duplicate_triples_dropped,
            "duplicate_links_dropped": self.duplicate_links_dropped,
            "links_skipped_unknown": self.links_skipped_unknown,
        }


def dataset_stats(kb: KnowledgeBase) -> Stats:
    return Stats(
        n_entities=len(kb.entities),
        n_relations=len(kb.relations),
        n_instance_triples=len(kb.instance),
        n_concepts=len(kb.concepts),
        n_meta_relations=len(kb.meta_relations),
        n_ontology_triples=len(kb.ontology),
        n_links=len(kb.links),
        duplicate_triples_dropped=(kb.instance.duplicates_dropped
                                   + kb.ontology.duplicates_dropped),
        duplicate_links_dropped=kb.links.duplicates_dropped,
        links_skipped_unknown=kb.links.skipped_unknown,
    )


def load_kb(instance_path, ontology_path, links_path) -> KnowledgeBase:
    """Parse the three raw dataset files into a fresh KB, growing all vocabs."""
    kb = KnowledgeBase()
    kb.instance = parse_triples(instance_path, kb.entities, kb.relations,
                                kb.entities, grow=True)
    kb.ontology = parse_triples(ontology_path, kb.concepts, kb.meta_relations,
                                kb.concepts, grow=True)
    kb.links = parse_links(links_path, kb.entities, kb.concepts)
    return kb

"""Two-view knowledge base: vocabularies, id-row stores, ingestion, splits.

A knowledge base holds an instance-view graph (entities and relations) and an
ontology-view graph (concepts and meta-relations), bridged by entity->concept
links.  Fine->coarse concept hierarchy pairs are extracted from the ontology
triples of chosen meta-relations.  All four vocabularies are kept separate so
the two views can never share ids.

File formats are TAB-separated UTF-8: triples as ``head\\trelation\\ttail``
and links / hierarchy pairs as two columns.  Names may contain spaces but not
tabs, and may not be empty.  Blank lines are ignored; any other line with the
wrong field count or an empty field is a parse error.  A file is read in
chunks of lines whose checks and vocabulary lookups run in bulk.  A store
is built once, from an array or an iterable of id rows, and holds them as
one read-only int64 id array; its tuples, ``by_entity`` and its one index
of sorted keys (no other module packs ids into keys) are derived from it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ParseError, TwoViewError, UnknownSymbolError
from .prng import SplitMix64, fisher_yates

log = logging.getLogger(__name__)


# The four vocabularies, in the order checkpoints and split directories list them.
VOCABS = ("entities", "relations", "concepts", "meta_relations")

# The vocabulary each column of a store kind's rows is encoded in.
COLUMNS = {
    "instance": ("entities", "relations", "entities"),
    "ontology": ("concepts", "meta_relations", "concepts"),
    "links": ("entities", "concepts"),
    "hierarchy": ("concepts", "concepts"),
}

# Each raw store's key in a config's dataset block; write_kb_files names it <key>.tsv
RAW_FILES = {"instance": "instance_triples", "ontology": "ontology_triples", "links": "links"}


def columns(holder, kind: str) -> tuple["Vocab", ...]:
    """The vocabularies of ``kind``'s columns, as ``holder``'s ``VOCABS`` fields."""
    return tuple(getattr(holder, name) for name in COLUMNS[kind])


class Vocab:
    """Ordered bijection between names and dense 0-based ids."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = list(dict.fromkeys(names))      # first occurrences
        self.index: dict[str, int] = dict(zip(self.names, range(len(self.names))))

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


def _as_rows(items, width: int | None) -> np.ndarray:
    """``items`` (an array, or an iterable of id rows) as an owned, read-only
    int64 (n, width) array of non-negative integer ids; with ``width`` None,
    an iterable of ids as an (n,) array.  Anything else, a float or negative
    id or a row of another length among them, raises ``TwoViewError``."""
    try:
        rows = np.array(items if isinstance(items, np.ndarray) else list(items))
    except (TypeError, ValueError):                 # not iterable, or ragged
        rows = np.array(None)
    shape = () if width is None else (width,)
    rows = np.empty((0, *shape), np.int64) if rows.size == 0 else rows
    if (rows.ndim != len(shape) + 1 or rows.shape[1:] != shape or rows.dtype.kind not in "iu"
            or rows.astype(np.int64, copy=False).min(initial=0) < 0):  # a uint >= 2**63 too
        raise TwoViewError(f"expected {f'rows of {width} ' if width else ''}"
                           f"non-negative integer ids, got {items!r:.80}")
    rows = rows.astype(np.int64, copy=False)
    rows.flags.writeable = False
    return rows


def _field_bits(rows: np.ndarray) -> tuple[int, ...]:
    """Per column, the width of a bit field holding every id of ``rows``."""
    bits = tuple(int(x).bit_length() for x in rows.max(0, initial=0))
    if sum(bits) > 63:
        raise TwoViewError(f"ids too large to pack into one int64 key ({bits} bits)")
    return bits


def _pack(cols, bits: tuple[int, ...]) -> np.ndarray:
    """One int64 key per row of id columns ``cols``, each id in its field."""
    keys = cols[0].copy()
    for col, width in zip(cols[1:], bits[1:]):
        keys <<= width
        keys |= col
    return keys


class _IdRows:
    """Deduplicated int64 (n, k) id rows in first-occurrence order, the body
    of the three stores.  A store is built once, by its constructor, and
    never changes.  Repeated rows are dropped with one ``np.unique`` over
    packed keys and counted.  Its one index is those keys sorted per column
    turn, each on the turn's first query, and kept: turn 0 reads a row as
    (h, r, t) or (e, c), turn 1 as (r, t, h) or (c, e).  ``lookup`` (eval's
    filters) and membership (``contains_rows``; ``in`` is its one-row case
    for a key that ``_as_rows`` accepts) search it.  An id outside its
    column's field [0, 2**bits), or negative, matches nothing."""

    __slots__ = ("rows", "_bits", "_keys", "duplicates_dropped")
    WIDTH, _ROW = 2, tuple

    def __init__(self, rows=()):
        rows = _as_rows(rows, self.WIDTH)
        self._bits = _field_bits(rows)
        first = np.sort(np.unique(_pack(rows.T, self._bits), return_index=True)[1])
        self.rows, self._keys = rows[first], {}         # (n, k) ids, read-only
        self.rows.flags.writeable = False
        self.duplicates_dropped = len(rows) - len(first)

    def _range(self, prefix, turn: int = 0, full: bool = True):
        """Where the keys of ``turn`` (0 or 1) under each (m, j) integer id
        row of ``prefix`` start, how many there are, and the widths of the
        fields past j; j is ``WIDTH`` if ``full``, else 1 to ``WIDTH``."""
        prefix, bits = np.asarray(prefix), self._bits[turn:] + self._bits[:turn]
        if turn not in (0, 1) or prefix.dtype.kind not in "iu" or prefix.ndim != 2 or \
                not (self.WIDTH if full else 1) <= prefix.shape[1] <= self.WIDTH:
            raise TwoViewError(f"expected integer id rows of {'' if full else '1 to '}"
                               f"{self.WIDTH} in turn 0 or 1, got {prefix.dtype} "
                               f"{prefix.shape} in turn {turn!r}")
        if turn not in self._keys:
            self._keys[turn] = keys = _pack([*self.rows.T[turn:], *self.rows.T[:turn]], bits)
            keys.sort()
        j, keys, prefix = prefix.shape[1], self._keys[turn], prefix.astype(np.int64, copy=False)
        low, inside = sum(bits[j:]), (prefix >> bits[:j] == 0).all(axis=1)
        lo = _pack(prefix.T, bits) << low       # ends at lo | ones: lo + 2**low may overflow
        start = np.searchsorted(keys, lo, "left")
        end = (np.searchsorted(keys, lo | (1 << low) - 1, "right") if low or not len(keys)
               else start + (keys.take(start, mode="clip") == lo))  # whole key: at most one
        return start, np.where(inside, end - start, 0), np.array(bits[j:], np.int64)

    def lookup(self, prefix, turn: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(i, v) per stored row whose columns, turned left ``turn`` (0 or 1)
        places, read ``prefix[i]`` ((m, j) integer ids), then the WIDTH - j ``v``."""
        start, count, rest = self._range(prefix, turn, full=False)
        i = np.repeat(np.arange(len(count)), count)
        at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(len(i))
        low = np.cumsum(rest[::-1])[::-1] - rest        # the bits below each field
        return i, self._keys[turn][at, None] >> low & (1 << rest) - 1

    def contains_rows(self, rows) -> np.ndarray:
        """Whether each (m, k) id row of ``rows``, or the one (k,) row, is in
        the store, as an (m,) bool array.  Rows of another dtype than
        integer or of another shape raise ``TwoViewError``."""
        return self._range(np.atleast_2d(rows))[1] > 0

    def _contains(self, row) -> bool:
        """``row in store`` as for a set of id tuples: a key that is not one
        row of ``WIDTH`` non-negative integer ids is not a member."""
        try:
            return bool(self.contains_rows(_as_rows([row], self.WIDTH))[0])
        except TwoViewError:
            return False

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(self._ROW, self.rows.tolist())


class TripleStore(_IdRows):
    """Deduplicated (head, relation, tail) id rows; iterates ``Triple``s."""

    __slots__ = ()
    WIDTH, _ROW = 3, Triple._make
    triples = property(tuple, doc="Every triple in store order (a derived tuple).")
    __contains__ = _IdRows._contains


class CrossLinkStore(_IdRows):
    """Deduplicated (entity, concept) links with per-entity concept lists."""

    __slots__ = ("skipped_unknown", "_by_entity")
    links = property(tuple, doc="Every link in store order (a derived tuple).")
    __contains__ = _IdRows._contains

    def __init__(self, links=()):
        super().__init__(links)
        self.skipped_unknown, self._by_entity = 0, None

    @property
    def by_entity(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only entity -> its concepts in store order, built on first use."""
        if self._by_entity is None:
            groups: dict[int, list[int]] = {}
            for e, c in self.rows.tolist():
                groups.setdefault(e, []).append(c)
            self._by_entity = MappingProxyType({e: tuple(c) for e, c in groups.items()})
        return self._by_entity


class HierarchyStore(_IdRows):
    """Deduplicated (finer concept, coarser concept) pairs; ``parse_hierarchy``
    and ``extract_hierarchy`` reject a pair of one concept with itself."""

    __slots__ = ()
    pairs = property(tuple, doc="Every pair in store order (a derived tuple).")
    __contains__ = _IdRows._contains


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


@dataclass
class SplitDataset:
    """Train/valid/test material plus the vocabularies they are encoded in."""

    entities: Vocab
    relations: Vocab
    concepts: Vocab
    meta_relations: Vocab
    instance_train: TripleStore
    instance_valid: TripleStore
    instance_test: TripleStore
    ontology_train: TripleStore
    ontology_valid: TripleStore
    ontology_test: TripleStore
    links_train: CrossLinkStore
    links_test: CrossLinkStore


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

# A file is read in chunks of whole lines of about this many characters.
CHUNK_CHARS = 1 << 16


def _read_ids(path, vocabs: tuple[Vocab, ...], unknown: str = "error") -> np.ndarray:
    """(n, k) int64 ids of the non-blank lines of a k-column TSV file.

    A name missing from its column's vocabulary is an error (``unknown``
    "error"), is interned in first-occurrence order ("grow"), or reads as
    -1 ("skip").  A file that is missing, unreadable or not UTF-8 raises
    ``TwoViewError``; a non-UTF-8 one names the line of its first bad byte.
    """
    blocks, first = [], 1
    try:
        with open(path, encoding="utf-8") as fh:
            for text in _line_chunks(fh):
                blocks.append(_chunk_ids(path, first, text, vocabs, unknown))
                first += text.count("\n")
    except UnicodeDecodeError as exc:
        raise TwoViewError(f"cannot read {path}: line {_bad_byte_line(path)} "
                           f"is not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise TwoViewError(f"cannot read {path}: {exc}") from None
    return np.concatenate(blocks or [np.empty((0, len(vocabs)), np.int64)])


def _bad_byte_line(path) -> int:
    """The line, counted as the text reader splits lines (at LF, CRLF or CR),
    of the first byte of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        head = fh.read()
    try:
        head.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = head[:exc.start]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _line_chunks(fh):
    """The text of ``fh`` as chunks of whole lines, each ending in a newline."""
    carry = ""
    while chunk := fh.read(CHUNK_CHARS):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        carry = text[cut:]
    if carry:
        yield carry + "\n"


def _chunk_ids(path, first: int, text: str, vocabs: tuple[Vocab, ...],
               unknown: str) -> np.ndarray:
    """``_read_ids`` of the lines of ``text``, the first numbered ``first``.

    One pass over the chunk's bytes finds its TABs and newlines.  When every
    line has k - 1 TABs and no field is empty, one split gives the fields;
    otherwise ``_line_cells`` walks the lines.  Each column's names are
    looked up in one ``np.fromiter``.
    """
    k = len(vocabs)
    b = np.frombuffer(text.encode(), np.uint8)
    at = np.flatnonzero(b - np.uint8(9) <= 1)           # TABs and newlines
    # k - 1 TABs then a newline, over and over, none first and no two
    # adjacent: every line has k fields and no field or line is empty
    if len(at) % k == 0 and at[0] > 0 and (np.diff(at) > 1).all() and \
            (b[at].reshape(-1, k) == [9] * (k - 1) + [10]).all():
        cells = text.replace("\n", "\t").split("\t")[:-1]
        line_no = first + np.arange(len(at) // k)
    else:
        cells, line_no = _line_cells(path, first, text.split("\n")[:-1], vocabs, unknown)
    if unknown == "grow":
        _intern(cells, vocabs)
    ids = np.empty((len(line_no), k), np.int64)
    for j, vocab in enumerate(vocabs):
        ids[:, j] = np.fromiter(map(vocab.index.get, cells[j::k], repeat(-1)),
                                np.int64, len(line_no))
    missing = (ids < 0).any(axis=1)
    if unknown == "error" and missing.any():
        i = int(missing.argmax())
        raise UnknownSymbolError(f"{path}:{line_no[i]}: unknown name: "
                                 f"{cells[i * k + int((ids[i] < 0).argmax())]!r}")
    return ids


def _line_cells(path, first: int, rows: list[str], vocabs: tuple[Vocab, ...],
                unknown: str) -> tuple[list[str], np.ndarray]:
    """The fields and line numbers of the non-blank ``rows``, checked line by
    line: a wrong field count, an empty field, then (``unknown`` "error")
    an unknown name raises, with its line."""
    k, cells, line_no = len(vocabs), [], []
    for i, row in enumerate(rows, first):
        if not row:
            continue
        fields = row.split("\t")
        if len(fields) != k:
            raise ParseError(path, i, f"expected {k} TAB-separated fields, got {len(fields)}")
        if "" in fields:
            raise ParseError(path, i, "empty field")
        for name, vocab in zip(fields, vocabs):
            if unknown == "error" and name not in vocab:
                raise UnknownSymbolError(f"{path}:{i}: unknown name: {name!r}")
        cells += fields
        line_no.append(i)
    return cells, np.array(line_no, np.int64)


def _intern(cells: list[str], vocabs: tuple[Vocab, ...]) -> None:
    """Add the names of ``cells`` (rows of k fields, flattened) to their
    columns' vocabularies in first-occurrence order, left to right per row."""
    k = len(vocabs)
    for vocab in dict.fromkeys(vocabs):
        columns = [cells[j::k] for j in range(k) if vocabs[j] is vocab]
        for name in dict.fromkeys(chain.from_iterable(zip(*columns))):
            vocab.add(name)


def parse_triples(path, head_vocab: Vocab, rel_vocab: Vocab,
                  tail_vocab: Vocab, grow: bool = False) -> TripleStore:
    """Read a 3-column TSV triple file into a store.

    With ``grow`` set, unseen names are interned in first-occurrence order
    (head, relation, tail per line); otherwise an unknown name is an error.
    Duplicate lines are collapsed and counted on the returned store.
    """
    store = TripleStore(_read_ids(path, (head_vocab, rel_vocab, tail_vocab),
                                  "grow" if grow else "error"))
    if store.duplicates_dropped:
        log.warning("%s: dropped %d duplicate triples", path,
                    store.duplicates_dropped)
    return store


def parse_links(path, entity_vocab: Vocab, concept_vocab: Vocab) -> CrossLinkStore:
    """Read a 2-column TSV link file (entity, concept) into a store.

    Links must reference nodes already present in the two views, so lines
    naming unknown entities or concepts are skipped with a counted warning.
    """
    ids = _read_ids(path, (entity_vocab, concept_vocab), "skip")
    known = (ids >= 0).all(axis=1)
    store = CrossLinkStore(ids[known])
    store.skipped_unknown = len(ids) - int(known.sum())
    if store.skipped_unknown:
        log.warning("%s: skipped %d links naming unknown nodes", path,
                    store.skipped_unknown)
    if store.duplicates_dropped:
        log.warning("%s: dropped %d duplicate links", path,
                    store.duplicates_dropped)
    return store


def parse_hierarchy(path, concept_vocab: Vocab) -> HierarchyStore:
    """Read a 2-column TSV hierarchy file (finer, coarser) into a store; an
    unknown concept, or a pair of one concept with itself, is an error."""
    ids = _read_ids(path, (concept_vocab, concept_vocab))
    same = np.flatnonzero(ids[:, 0] == ids[:, 1])
    if len(same):
        with open(path, encoding="utf-8") as fh:    # the line of non-blank row same[0]
            line = next(islice((i for i, text in enumerate(fh, 1) if text != "\n"),
                               int(same[0]), None))
        raise ParseError(path, line, "hierarchy pair with identical concepts "
                         f"({concept_vocab.name(ids[same[0], 0])!r})")
    return HierarchyStore(ids)


def read_store(path, holder, kind: str, grow: bool = False) -> _IdRows:
    """The ``kind`` store of a TSV file, its columns in ``holder``'s
    vocabularies (see ``columns``); ``grow`` interns unseen triple names."""
    vocabs = columns(holder, kind)
    if kind == "links":
        return parse_links(path, *vocabs)
    if kind == "hierarchy":
        return parse_hierarchy(path, vocabs[0])
    return parse_triples(path, *vocabs, grow=grow)


def write_tsv(path, store: _IdRows, holder, kind: str) -> None:
    """Write a ``kind`` store's rows as lines of TAB-separated names."""
    names = [vocab.names for vocab in columns(holder, kind)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(map(list.__getitem__, names, row)) + "\n"
                      for row in store.rows.tolist())


# --------------------------------------------------------------------------
# Splitting

def _shuffled(store: _IdRows, seed: int) -> np.ndarray:
    """The store's rows in the order of a Fisher-Yates shuffle under
    SplitMix64(seed)."""
    order = list(range(len(store)))
    fisher_yates(order, SplitMix64(seed))
    return store.rows[order]


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
    rows = _shuffled(store, spec.seed)
    n_valid = math.floor(spec.valid_frac * n)
    n_test = math.floor(spec.test_frac * n)
    n_train = n - n_valid - n_test
    return (TripleStore(rows[:n_train]),
            TripleStore(rows[n_train:n_train + n_valid]),
            TripleStore(rows[n_train + n_valid:]))


def split_links(store: CrossLinkStore, train_ratio: float,
                seed: int) -> tuple[CrossLinkStore, CrossLinkStore]:
    """Deterministically partition links with |train| = round(ratio * |S|).

    Rounding is half-up (``floor(x + 0.5)``) so the split size is identical
    on every platform.
    """
    if not 0.0 < train_ratio < 1.0:
        raise TwoViewError(f"link train ratio must be in (0, 1), got {train_ratio}")
    rows = _shuffled(store, seed)
    n_train = math.floor(train_ratio * len(rows) + 0.5)
    return CrossLinkStore(rows[:n_train]), CrossLinkStore(rows[n_train:])


def extract_hierarchy(onto: TripleStore, hierarchical_relation_names: list[str],
                      meta_vocab: Vocab, concept_vocab: Vocab | None = None
                      ) -> tuple[HierarchyStore, TripleStore]:
    """Pull hierarchy triples out of an ontology store.

    Every triple whose meta-relation name appears in the list becomes a
    (finer, coarser) pair — head is the finer concept — and the remaining
    triples form the residual store.  Pair count plus residual count always
    equals the input count.  Such a triple from a concept to itself is an
    error; without ``concept_vocab`` it names the concept by its id.
    """
    unknown = [n for n in hierarchical_relation_names if n not in meta_vocab]
    if unknown:
        raise UnknownSymbolError(
            f"hierarchical relation names not in meta-relation vocabulary: {unknown}")
    rows = onto.rows
    hier = np.isin(rows[:, 1], [meta_vocab.id(n) for n in hierarchical_relation_names])
    loops = rows[hier & (rows[:, 0] == rows[:, 2])]
    if len(loops):
        c, m = loops[0, :2].tolist()
        concept = f"id {c}" if concept_vocab is None else repr(concept_vocab.name(c))
        raise TwoViewError(f"ontology triple {meta_vocab.name(m)!r} from concept "
                           f"{concept} to itself: a hierarchy pair with identical concepts")
    return HierarchyStore(rows[hier][:, ::2]), TripleStore(rows[~hier])


# --------------------------------------------------------------------------
# Statistics

def entity_frequency(instance: TripleStore) -> dict[int, int]:
    """Occurrence count per entity: head plus tail appearances (self-loops count twice)."""
    counts = np.bincount(instance.rows[:, ::2].ravel())
    seen = np.flatnonzero(counts)
    return dict(zip(seen.tolist(), counts[seen].tolist()))


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
        """Every count keyed by its field name without the ``n_`` prefix."""
        return {f.name.removeprefix("n_"): getattr(self, f.name) for f in fields(self)}


def dataset_stats(kb: KnowledgeBase) -> Stats:
    return Stats(
        **{f"n_{name}": len(getattr(kb, name)) for name in VOCABS},
        n_instance_triples=len(kb.instance),
        n_ontology_triples=len(kb.ontology),
        n_links=len(kb.links),
        duplicate_triples_dropped=(kb.instance.duplicates_dropped
                                   + kb.ontology.duplicates_dropped),
        duplicate_links_dropped=kb.links.duplicates_dropped,
        links_skipped_unknown=kb.links.skipped_unknown,
    )


def load_kb(instance_path, ontology_path, links_path) -> KnowledgeBase:
    """Parse the three raw dataset files into a fresh KB, growing all vocabs.
    A triple file without triples, which cannot be split, is an error."""
    kb = KnowledgeBase()
    for kind, path in zip(RAW_FILES, (instance_path, ontology_path, links_path)):
        setattr(kb, kind, read_store(path, kb, kind, grow=True))
        if kind != "links" and not len(getattr(kb, kind)):
            raise TwoViewError(f"{path} holds no {kind} triples")
    return kb

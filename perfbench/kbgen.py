"""Seeded synthetic two-view KB shaped like YAGO26K-906.

At ``scale=1`` the generator aims at the dataset's headline counts: 26,078
entities, 34 relations, 390,738 instance triples, 906 concepts, 30
meta-relations, 8,962 ontology triples and 9,962 entity->concept links.
``scale`` shrinks only the instance view (entities and triples) and the
links; the ontology is always generated in full.

* Entity degrees are Zipf-like: heads and tails are drawn with probability
  proportional to ``1 / rank**ZIPF_S`` over a seeded ranking of the entities,
  after every entity has been given one triple so that none is dropped from
  the vocabulary.  Relations, ontology concepts, meta-relations and link
  targets are drawn the same way.  ``ZIPF_S = 0.8`` is an unverified
  assumption: the dataset is published with its counts only, not with its
  degree distribution.  The skew sets how often a batch repeats a row and
  how large eval's filter sets are, so ``traffic`` measures both on the
  prepared splits and every run records them.
* The concept hierarchy is a random recursive tree: every non-root concept
  gets exactly one ``subclass_of`` parent among the concepts before it.
* Triples and links are deduplicated and self-loops are discarded, so the
  stores are topped up until they reach their target size; ``counts`` of the
  result records what was actually produced.

``prepare`` writes the raw TSV files with ``twoview.synth.write_kb_files``
and turns them into the split directory the program receives, through
``twoview.kb.load_kb`` and ``twoview.dataio.prepare_splits``/``write_split_dir``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

YAGO26K_906 = {
    "entities": 26_078,
    "relations": 34,
    "instance_triples": 390_738,
    "concepts": 906,
    "meta_relations": 30,
    "ontology_triples": 8_962,
    "links": 9_962,
}
HIERARCHY_RELATION = "subclass_of"
ZIPF_S = 0.8   # assumed, see the module docstring


@dataclass
class GeneratedKB:
    """Integer-coded stores; names are ``e<i>``, ``r<i>``, ``c<i>``, ``m<i>``
    with the last meta-relation named ``subclass_of``."""

    n_entities: int
    n_relations: int
    n_concepts: int
    n_meta: int
    instance: np.ndarray   # (n, 3) int64 head, relation, tail
    ontology: np.ndarray   # (n, 3) int64; meta id n_meta - 1 is subclass_of
    links: np.ndarray      # (n, 2) int64 entity, concept

    @property
    def counts(self) -> dict:
        return {
            "entities": self.n_entities,
            "relations": self.n_relations,
            "instance_triples": len(self.instance),
            "concepts": self.n_concepts,
            "meta_relations": self.n_meta,
            "ontology_triples": len(self.ontology),
            "links": len(self.links),
            "hierarchy_pairs": int(np.count_nonzero(
                self.ontology[:, 1] == self.n_meta - 1)),
        }


def _zipf_sampler(n: int, rng: np.random.Generator):
    """Draw ids in [0, n) with P(id of rank k) ~ 1 / (k + 1)**ZIPF_S."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** ZIPF_S)
    cdf /= cdf[-1]
    ids_by_rank = rng.permutation(n)

    def draw(size: int) -> np.ndarray:
        ranks = np.minimum(np.searchsorted(cdf, rng.random(size)), n - 1)
        return ids_by_rank[ranks]

    return draw


def _dedup_rows(rows: np.ndarray) -> np.ndarray:
    """Unique rows in first-occurrence order."""
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


def _fill(seed_rows: np.ndarray, target: int, draw) -> np.ndarray:
    """Append rows from ``draw(k)`` until ``target`` unique rows exist."""
    rows = _dedup_rows(seed_rows)
    while len(rows) < target:
        extra = draw(int((target - len(rows)) * 1.1) + 16)
        rows = _dedup_rows(np.concatenate([rows, extra]))
    return rows[:target]


def _triples(n_nodes: int, n_rel: int, target: int, node_draw, rel_draw,
             rng: np.random.Generator, cover: bool) -> np.ndarray:
    def draw(k):
        t = np.stack([node_draw(k), rel_draw(k), node_draw(k)], axis=1)
        return t[t[:, 0] != t[:, 2]]

    if cover:  # one triple per node, node on a random side
        nodes = np.arange(n_nodes)
        other = node_draw(n_nodes)
        other = np.where(other == nodes, (other + 1) % n_nodes, other)
        as_head = rng.random(n_nodes) < 0.5
        seed_rows = np.stack([np.where(as_head, nodes, other), rel_draw(n_nodes),
                              np.where(as_head, other, nodes)], axis=1)
    else:
        seed_rows = np.empty((0, 3), dtype=np.int64)
    return _fill(seed_rows.astype(np.int64), target, draw)


def generate(seed: int, scale: float) -> GeneratedKB:
    """The KB for one workload seed; same (seed, scale), same arrays."""
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    rng = np.random.default_rng(seed)
    full = YAGO26K_906
    n_e = max(2, round(full["entities"] * scale))
    n_r = full["relations"]
    n_c = full["concepts"]
    n_m = full["meta_relations"]

    entity = _zipf_sampler(n_e, rng)
    relation = _zipf_sampler(n_r, rng)
    instance = _triples(n_e, n_r, round(full["instance_triples"] * scale),
                        entity, relation, rng, cover=True)

    # subclass_of tree first: concept i > 0 gets one parent among 0..i-1
    children = np.arange(1, n_c)
    parents = (rng.random(n_c - 1) * children).astype(np.int64)
    tree = np.stack([children, np.full(n_c - 1, n_m - 1), parents], axis=1)
    concept = _zipf_sampler(n_c, rng)
    meta = _zipf_sampler(n_m - 1, rng)   # the others never use subclass_of
    rest = _triples(n_c, n_m - 1, full["ontology_triples"] - len(tree),
                    concept, meta, rng, cover=False)
    ontology = np.concatenate([tree, rest])

    n_links = round(full["links"] * scale)
    first = rng.permutation(n_e)[:n_links]
    links = _fill(np.stack([first, concept(len(first))], axis=1), n_links,
                  lambda k: np.stack([rng.integers(n_e, size=k), concept(k)],
                                     axis=1))
    return GeneratedKB(n_e, n_r, n_c, n_m, instance, ontology, links)


def to_knowledge_base(kb: GeneratedKB):
    """The generated KB as ``twoview.kb`` stores, rows in generation order."""
    from twoview.kb import CrossLinkStore, KnowledgeBase, Triple, TripleStore, Vocab

    meta_names = [f"m{i}" for i in range(kb.n_meta - 1)] + [HIERARCHY_RELATION]
    return KnowledgeBase(
        entities=Vocab(f"e{i}" for i in range(kb.n_entities)),
        relations=Vocab(f"r{i}" for i in range(kb.n_relations)),
        concepts=Vocab(f"c{i}" for i in range(kb.n_concepts)),
        meta_relations=Vocab(meta_names),
        instance=TripleStore(Triple(*t) for t in kb.instance.tolist()),
        ontology=TripleStore(Triple(*t) for t in kb.ontology.tolist()),
        links=CrossLinkStore(kb.links.tolist()))


def duplicate_share(ids: np.ndarray, batch: int, rng: np.random.Generator) -> float:
    """Mean over the batches of one shuffled sweep of ``ids`` (one row of
    referenced ids per positive) of the share of ids a batch repeats:
    ``1 - distinct / referenced``."""
    order = rng.permutation(len(ids))
    shares = []
    for start in range(0, len(order), batch):
        b = ids[order[start:start + batch]].ravel()
        shares.append(1.0 - len(np.unique(b)) / len(b))
    return float(np.mean(shares))


def traffic(data, rng: np.random.Generator) -> dict:
    """What the degree skew does to the work, measured on the splits.

    ``batch_duplicate_share``: share of repeated row ids in a batch of the
    trainer's default size (entity rows of instance heads and tails, concept
    rows of ontology heads and tails, concept rows of link targets);
    ``filter_set_size``: mean number of train triples that filter a test
    triple's tail and head query, and mean train links of a test link's
    entity, which filter its typing query.
    """
    from twoview.training import TrainConfig

    cfg = TrainConfig()
    inst = np.array(data.instance_train.triples, dtype=np.int64).reshape(-1, 3)
    onto = np.array(data.ontology_train.triples, dtype=np.int64).reshape(-1, 3)
    links = np.array(data.links_train.links, dtype=np.int64).reshape(-1, 2)
    by_hr, by_rt = {}, {}
    for h, r, t in inst.tolist():
        by_hr[h, r] = by_hr.get((h, r), 0) + 1
        by_rt[r, t] = by_rt.get((r, t), 0) + 1
    test = data.instance_test.triples
    return {
        "batch_duplicate_share": {
            "instance_entities": duplicate_share(inst[:, [0, 2]], cfg.batch_instance, rng),
            "ontology_concepts": duplicate_share(onto[:, [0, 2]], cfg.batch_ontology, rng),
            "link_concepts": duplicate_share(links[:, [1]], cfg.batch_cross, rng),
        },
        "filter_set_size": {
            "tail_queries": float(np.mean([by_hr.get((h, r), 0) for h, r, _ in test])),
            "head_queries": float(np.mean([by_rt.get((r, t), 0) for _, r, t in test])),
            "typing_queries": float(np.mean(
                [len(data.links_train.by_entity.get(e, ())) for e, _ in data.links_test])),
        },
    }


def prepare(seed: int, scale: float, out_dir: Path) -> dict:
    """Generate, then write ``out_dir/raw/*.tsv`` and the split directory
    ``out_dir/splits``; returns the counts produced at each stage and the
    ``traffic`` measured on the splits."""
    from twoview.dataio import prepare_splits, write_split_dir
    from twoview.kb import SplitSpec, dataset_stats, load_kb
    from twoview.synth import write_kb_files

    kb = generate(seed, scale)
    paths = write_kb_files(to_knowledge_base(kb), out_dir / "raw")
    loaded = load_kb(paths["instance"], paths["ontology"], paths["links"])
    data = prepare_splits(loaded, SplitSpec(seed=seed))
    write_split_dir(data, out_dir / "splits", loaded, [HIERARCHY_RELATION])
    record = {
        "seed": seed,
        "scale": scale,
        "generated": kb.counts,
        "loaded": dataset_stats(loaded).to_dict(),
        "splits": {name: len(getattr(data, name)) for name in (
            "instance_train", "instance_valid", "instance_test",
            "ontology_train", "ontology_valid", "ontology_test",
            "links_train", "links_test")},
        "traffic": traffic(data, np.random.default_rng(seed)),
    }
    return record

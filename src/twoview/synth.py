"""Synthetic two-view KBs for tests and calibration.

``planted_kb`` builds a KB whose instance graph follows a known schema —
entities form concept-aligned clusters arranged in a cycle, and each
relation deterministically connects one cluster to the next — so that
recovery of the planted structure (typing, tail completion, relation
discovery between concept pairs) can be asserted end to end.

``random_kb`` builds an unstructured KB for oracle-equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kb import KnowledgeBase, Triple, write_tsv

SUBCLASS = "subclass_of"


@dataclass
class PlantedSchema:
    """Ground truth of the generated KB.

    ``relation_of_pair`` maps (head concept id, tail concept id) to the
    instance relation planted between the two clusters.
    """

    n_clusters: int
    entities_per_cluster: int
    n_relations: int
    relation_of_pair: dict[tuple[int, int], int]


def planted_kb(n_clusters: int = 20, entities_per_cluster: int = 10,
               n_relations: int = 10, branch_len: int = 5
               ) -> tuple[KnowledgeBase, PlantedSchema]:
    """Build the planted-structure KB.

    * one concept per cluster, grouped into hierarchy branches of
      ``branch_len`` concepts chained fine -> coarse via ``subclass_of``;
    * ``entities_per_cluster`` entities per concept, each linked to it;
    * clusters arranged in a cycle; the edge cluster c -> c+1 carries
      relation ``r{c % n_relations}`` and connects every entity of c to
      every entity of c+1 — relation semantics are purely cluster-level
      and the cycle ties all clusters into one coherent geometry;
    * a regular ontology triple mirrors every cluster edge.
    """
    if n_clusters % branch_len:
        raise ValueError("n_clusters must be a multiple of branch_len")
    if n_clusters % n_relations:
        raise ValueError("the cycle labels edges r{c % n_relations}, so "
                         "n_clusters must be a multiple of n_relations")
    kb = KnowledgeBase()
    for c in range(n_clusters):
        kb.concepts.add(f"concept{c:02d}")
    for j in range(n_relations):
        kb.relations.add(f"r{j}")
    # one regular meta-relation per instance relation: the ontology edge
    # mirroring keeps the same period as the entity-view schema, which
    # leaves the concept geometry unconflicted
    kb.meta_relations.add(SUBCLASS)
    n_meta_regular = n_relations
    for m in range(n_meta_regular):
        kb.meta_relations.add(f"m{m}")

    for c in range(n_clusters):
        for i in range(entities_per_cluster):
            e = kb.entities.add(f"e{c:02d}_{i}")
            kb.links.add(e, c)

    def ent(cluster: int, i: int) -> int:
        return cluster * entities_per_cluster + i

    relation_of_pair: dict[tuple[int, int], int] = {}
    for c in range(n_clusters):
        nxt = (c + 1) % n_clusters
        rel = c % n_relations
        relation_of_pair[(c, nxt)] = rel
        for i in range(entities_per_cluster):
            for j in range(entities_per_cluster):
                kb.instance.add(Triple(ent(c, i), rel, ent(nxt, j)))
        meta = 1 + (rel % n_meta_regular)  # skip the subclass meta-relation
        kb.ontology.add(Triple(c, meta, nxt))

    # hierarchy: chains of branch_len concepts, finer -> coarser.  Branch
    # membership walks a permuted concept order so subclass edges do not
    # align with the relation schema's concept pairs (which would crowd the
    # learned concept geometry along one direction).
    subclass_id = kb.meta_relations.id(SUBCLASS)
    stride = 7 if n_clusters % 7 else 3
    scrambled = [(stride * i + 3) % n_clusters for i in range(n_clusters)]
    for start in range(0, n_clusters, branch_len):
        branch = scrambled[start:start + branch_len]
        for level in range(branch_len - 1):
            finer = branch[level + 1]
            coarser = branch[level]
            kb.ontology.add(Triple(finer, subclass_id, coarser))
            kb.hierarchy.add(finer, coarser)

    schema = PlantedSchema(n_clusters=n_clusters,
                           entities_per_cluster=entities_per_cluster,
                           n_relations=n_relations,
                           relation_of_pair=relation_of_pair)
    return kb, schema


def random_kb(seed: int = 0, n_entities: int = 20, n_relations: int = 5,
              n_concepts: int = 8, n_meta: int = 3,
              n_instance_triples: int = 60, n_ontology_triples: int = 15,
              n_links: int = 25) -> KnowledgeBase:
    """An unstructured KB with the requested sizes (triples deduplicated,
    so stores may come out slightly smaller than asked)."""
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase()
    for i in range(n_entities):
        kb.entities.add(f"ent{i}")
    for i in range(n_relations):
        kb.relations.add(f"rel{i}")
    for i in range(n_concepts):
        kb.concepts.add(f"con{i}")
    for i in range(n_meta):
        kb.meta_relations.add(f"meta{i}")
    for _ in range(n_instance_triples):
        kb.instance.add(Triple(int(rng.integers(n_entities)),
                               int(rng.integers(n_relations)),
                               int(rng.integers(n_entities))))
    for _ in range(n_ontology_triples):
        kb.ontology.add(Triple(int(rng.integers(n_concepts)),
                               int(rng.integers(n_meta)),
                               int(rng.integers(n_concepts))))
    for _ in range(n_links):
        kb.links.add(int(rng.integers(n_entities)), int(rng.integers(n_concepts)))
    return kb


def write_kb_files(kb: KnowledgeBase, out_dir) -> dict[str, str]:
    """Write the three raw TSV files of a KB; returns their paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "instance": out / "instance_triples.tsv",
        "ontology": out / "ontology_triples.tsv",
        "links": out / "links.tsv",
    }
    write_tsv(paths["instance"], kb.instance, (kb.entities, kb.relations, kb.entities))
    write_tsv(paths["ontology"], kb.ontology,
              (kb.concepts, kb.meta_relations, kb.concepts))
    write_tsv(paths["links"], kb.links, (kb.entities, kb.concepts))
    return {k: str(v) for k, v in paths.items()}

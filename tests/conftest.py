import numpy as np
import pytest

from twoview.kb import CrossLinkStore, KnowledgeBase, Triple, TripleStore, Vocab


@pytest.fixture
def tiny_kb():
    """Three entities, two relations, two concepts, with every store filled."""
    return KnowledgeBase(
        entities=Vocab(["a", "b", "c"]), relations=Vocab(["r1", "r2"]),
        concepts=Vocab(["x", "y"]), meta_relations=Vocab(["subclass_of", "related_to"]),
        instance=TripleStore([Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 1, 0)]),
        ontology=TripleStore([Triple(0, 0, 1), Triple(0, 1, 1)]),
        links=CrossLinkStore([(0, 0), (1, 0), (2, 1)]))


@pytest.fixture
def rng():
    return np.random.default_rng(0)

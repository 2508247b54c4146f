"""Joint embedding of two-view knowledge bases.

An instance-view graph (entities, relations) and an ontology-view graph
(concepts, meta-relations) are embedded in separate spaces, bridged by
entity->concept links through either a shared-space grouping (CG) or a
learned tanh-affine transformation (CT), with optional hierarchy-aware
modeling of fine->coarse concept pairs.
"""

from .errors import (CheckpointError, ConfigError, EvalError, ParseError,
                     TwoViewError, UnknownSymbolError)
from .kb import (CrossLinkStore, HierarchyStore, KnowledgeBase, SplitDataset,
                 SplitSpec, Stats, Triple, TripleStore, Vocab, dataset_stats,
                 entity_frequency, extract_hierarchy, load_kb,
                 long_tail_slice, parse_links, parse_triples, split_links,
                 split_triples)
from .model import CrossKind, ModelConfig, ModelParams, all_variants
from .objectives import (GradAccum, LossWeights, Margins, PairBatch,
                         TripleBatch, cg_loss, combine_intra, combine_total,
                         ct_loss, ha_loss, intra_hinge_loss,
                         sample_negative_concept, sample_negative_triple)
from .scoring import ScorerKind, score, score_grads
from .training import (EpochReport, OptimizerState, TrainConfig, amsgrad_step,
                       train, train_epoch)
from .evaluation import (EvalReport, entity_typing_eval, long_tail_eval,
                         populate_relation_query, populate_triple_query,
                         rank_candidates, triple_completion_eval,
                         typing_scores)

__version__ = "0.1.0"

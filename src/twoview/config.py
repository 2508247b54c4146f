"""Run configuration: one JSON file drives prepare, train, eval and predict.

Schema (all blocks optional unless a command needs them):

    {
      "dataset": {
        "instance_triples": "raw/instance.tsv",
        "ontology_triples": "raw/ontology.tsv",
        "links": "raw/links.tsv",
        "split_dir": "out/splits",
        "hierarchical_relations": ["subclass_of"]
      },
      "split": {"train": 0.85, "valid": 0.05, "test": 0.10,
                "link_train_ratio": 0.6, "seed": 0},
      "model": {"variant": "TransE-CT", "d_e": 300, "d_c": 50},
      "train": {"epochs": 120, "learning_rate": 0.001, ...},
      "eval":  {"tasks": ["triples", "typing", "longtail"],
                "longtail_threshold": 8, "ks": [1, 3, 10],
                "filter_mode": "train", "direction": "tail"},
      "output_dir": "out"
    }

Train-block keys mirror TrainConfig fields; margins may be given per loss
("margins": {"instance": ..., "ontology": ..., "cross": ..., "hierarchy": ...})
and default to 0.5 for translational variants and 1.0 otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .kb import SplitSpec
from .model import CrossKind, ModelConfig
from .objectives import LossWeights, Margins
from .training import TrainConfig


@dataclass
class EvalSettings:
    tasks: tuple[str, ...] = ("triples", "typing")
    longtail_threshold: int = 8
    ks: tuple[int, ...] = (1, 3, 10)
    filter_mode: str = "train"
    direction: str = "tail"

    def __post_init__(self):
        for t in self.tasks:
            if t not in ("triples", "typing", "longtail"):
                raise ConfigError(f"unknown eval task {t!r}")
        if self.filter_mode not in ("train", "strict", "none"):
            raise ConfigError(f"unknown filter mode {self.filter_mode!r}")
        if self.direction not in ("tail", "both"):
            raise ConfigError(f"unknown direction {self.direction!r}")


@dataclass
class RunConfig:
    """Validated view of a config file."""

    instance_triples: str | None = None
    ontology_triples: str | None = None
    links: str | None = None
    split_dir: str | None = None
    hierarchical_relations: tuple[str, ...] = ()
    split: SplitSpec = field(default_factory=SplitSpec)
    model: ModelConfig | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)
    output_dir: str = "out"

    def require_raw_files(self) -> tuple[str, str, str]:
        missing = [k for k, v in (("instance_triples", self.instance_triples),
                                  ("ontology_triples", self.ontology_triples),
                                  ("links", self.links)) if not v]
        if missing:
            raise ConfigError(f"config dataset block is missing {missing}")
        return self.instance_triples, self.ontology_triples, self.links

    def require_split_dir(self) -> str:
        if not self.split_dir:
            raise ConfigError("config dataset block needs \"split_dir\"")
        return self.split_dir

    def require_model(self) -> ModelConfig:
        if self.model is None:
            raise ConfigError("config needs a \"model\" block with a variant")
        return self.model


def _margins_from(block: dict, model: ModelConfig | None) -> Margins:
    base = (Margins.defaults_for(model.intra) if model is not None else Margins())
    if not block:
        return base
    return Margins(
        instance=block.get("instance", base.instance),
        ontology=block.get("ontology", base.ontology),
        cross=block.get("cross", base.cross),
        hierarchy=block.get("hierarchy", base.hierarchy),
    )


def load_config(path, seed_override: int | None = None,
                output_override: str | None = None) -> RunConfig:
    """Parse and validate a config file, applying CLI flag overrides."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None

    ds = raw.get("dataset", {})
    sp = raw.get("split", {})
    split = SplitSpec(
        train_frac=sp.get("train", 0.85),
        valid_frac=sp.get("valid", 0.05),
        test_frac=sp.get("test", 0.10),
        link_train_ratio=sp.get("link_train_ratio", 0.6),
        seed=sp.get("seed", 0),
    )

    model = None
    mb = raw.get("model")
    if mb:
        if "variant" not in mb:
            raise ConfigError("model block needs a \"variant\" string")
        model = ModelConfig.from_variant(mb["variant"], mb.get("d_e", 300),
                                         mb.get("d_c", 50))

    tb = dict(raw.get("train", {}))
    margins = _margins_from(tb.pop("margins", {}), model)
    weights = LossWeights(alpha1=tb.pop("alpha1", 2.5),
                          alpha2=tb.pop("alpha2", 1.0),
                          omega=tb.pop("omega", 1.0))
    hierarchical = tuple(ds.get("hierarchical_relations", ()))
    known = {f.name for f in TrainConfig.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    known -= {"margins", "weights", "hierarchical_relations"}
    unknown = set(tb) - known
    if unknown:
        raise ConfigError(f"unknown train-block keys: {sorted(unknown)}")
    train = TrainConfig(margins=margins, weights=weights,
                        hierarchical_relations=hierarchical, **tb)
    if seed_override is not None:
        train = TrainConfig(**{**train.__dict__, "seed": seed_override})
        split = SplitSpec(split.train_frac, split.valid_frac, split.test_frac,
                          split.link_train_ratio, seed=seed_override)

    eb = raw.get("eval", {})
    evalset = EvalSettings(
        tasks=tuple(eb.get("tasks", ("triples", "typing"))),
        longtail_threshold=eb.get("longtail_threshold", 8),
        ks=tuple(eb.get("ks", (1, 3, 10))),
        filter_mode=eb.get("filter_mode", "train"),
        direction=eb.get("direction", "tail"),
    )

    cfg = RunConfig(
        instance_triples=ds.get("instance_triples"),
        ontology_triples=ds.get("ontology_triples"),
        links=ds.get("links"),
        split_dir=ds.get("split_dir"),
        hierarchical_relations=hierarchical,
        split=split,
        model=model,
        train=train,
        eval=evalset,
        output_dir=output_override or raw.get("output_dir", "out"),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.model is not None:
        if cfg.model.hierarchy_aware and not cfg.hierarchical_relations:
            raise ConfigError(
                "hierarchy-aware variants need dataset.hierarchical_relations")
        if (cfg.model.cross == CrossKind.TRANSFORMATION
                and not cfg.train.cross_negative_sampling):
            raise ConfigError(
                "the cross-view negative-sampling toggle applies only to CG; "
                "the CT loss is defined with negatives")

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
      "eval":  {"longtail_threshold": 8, "ks": [1, 3, 10],
                "filter_mode": "train", "direction": "tail"},
      "output_dir": "out"
    }

Train-block keys mirror TrainConfig fields, with the loss weights given as
"alpha1", "alpha2" and "omega"; margins may be given per loss
("margins": {"instance": ..., "ontology": ..., "cross": ..., "hierarchy": ...})
and default to 0.5 for translational variants and 1.0 otherwise.  A key
outside this schema, in any block, is an error, so a misspelt or removed
key never falls back to a default silently.  Each value must have its
field's JSON type: an integer for counts, dimensions, seeds and intervals,
a number (an integer will do, ``true`` will not) for rates, fractions,
margins and weights, ``true``/``false`` for ``cross_negative_sampling``,
a list of strings for ``hierarchical_relations``.  Every error raised
while reading a config names the file, and a wrong-typed value names its
key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError, TwoViewError
from .kb import RAW_FILES, SplitSpec
from .model import ModelConfig
from .objectives import LossWeights, Margins
from .training import TrainConfig, check_variant


@dataclass
class EvalSettings:
    longtail_threshold: int = 8
    ks: tuple[int, ...] = (1, 3, 10)
    filter_mode: str = "train"
    direction: str = "tail"

    def __post_init__(self):
        self.ks = tuple(self.ks)
        if self.longtail_threshold < 1:
            raise ConfigError(
                f"longtail_threshold must be >= 1, got {self.longtail_threshold}")
        if any(k < 1 for k in self.ks):
            raise ConfigError(f"every ks entry must be >= 1, got {list(self.ks)}")
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
    split: SplitSpec = field(default_factory=SplitSpec)
    model: ModelConfig | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)
    output_dir: str = "out"

    def require_raw_files(self) -> tuple[str, str, str]:
        paths = tuple(getattr(self, key) for key in RAW_FILES.values())
        missing = [key for key, path in zip(RAW_FILES.values(), paths) if not path]
        if missing:
            raise ConfigError(f"config dataset block is missing {missing}")
        return paths

    def require_split_dir(self) -> str:
        if not self.split_dir:
            raise ConfigError("config dataset block needs \"split_dir\"")
        return self.split_dir

    def require_model(self) -> ModelConfig:
        if self.model is None:
            raise ConfigError("config needs a \"model\" block with a variant")
        return self.model


# split-block keys and the SplitSpec fields they set
_SPLIT_FIELDS = {"train": "train_frac", "valid": "valid_frac",
                 "test": "test_frac", "link_train_ratio": "link_train_ratio",
                 "seed": "seed"}
# the JSON value each field annotation takes: a type (float admits an
# integer, and no number admits true or false), a tuple of alternatives,
# or [shape] for an array of values of that shape
_JSON_SHAPES = {"int": int, "float": float, "bool": bool, "str": str,
                "int | None": (int, None), "tuple[int, ...]": [int]}


def _shapes(cls, skip=()) -> dict:
    """Field name -> JSON shape for the fields of dataclass ``cls``."""
    return {f.name: _JSON_SHAPES[f.type] for f in fields(cls) if f.name not in skip}


_SPLIT_SHAPES = _shapes(SplitSpec)
_WEIGHT_KEYS = {f.name for f in fields(LossWeights)}
# every key each block accepts, with the shape of its value
_BLOCK_KEYS = {
    "top level": {"dataset": dict, "split": dict, "model": dict, "train": dict,
                  "eval": dict, "output_dir": str},
    "dataset": {"instance_triples": str, "ontology_triples": str, "links": str,
                "split_dir": str, "hierarchical_relations": [str]},
    "split": {k: _SPLIT_SHAPES[f] for k, f in _SPLIT_FIELDS.items()},
    "model": {"variant": str, "d_e": int, "d_c": int},
    # the loss weights sit flat in the train block, and the hierarchy
    # relation names come from the dataset block
    "train": (_shapes(TrainConfig, ("margins", "weights", "hierarchical_relations"))
              | _shapes(LossWeights) | {"margins": dict}),
    "margins": _shapes(Margins),
    "eval": _shapes(EvalSettings),
}


def _fits(value, shape) -> bool:
    """Whether a parsed JSON value has ``shape`` (see ``_JSON_SHAPES``)."""
    if isinstance(shape, tuple):
        return any(_fits(value, s) for s in shape)
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if shape is None:
        return value is None
    if isinstance(value, bool):
        return shape is bool
    return isinstance(value, (int, float) if shape is float else shape)


def _checked(block, name: str) -> dict:
    """``block`` itself, once it is a JSON object with only known keys,
    each holding a value of its shape."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be a JSON object")
    unknown = block.keys() - _BLOCK_KEYS[name].keys()
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    for key, value in block.items():
        if not _fits(value, _BLOCK_KEYS[name][key]):
            raise ConfigError(f"{name} key {key!r} has the wrong type: "
                              f"{json.dumps(value)}")
    return block


def load_config(path, seed_override: int | None = None,
                output_override: str | None = None) -> RunConfig:
    """Parse and validate a config file, applying CLI flag overrides.

    Every malformed config raises ``ConfigError`` naming ``path``.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    # a wrong-typed value fails inside the dataclass checks as a TypeError
    try:
        cfg = _parse(raw, seed_override, output_override)
        if cfg.model is not None:
            check_variant(cfg.model, cfg.train)
    except (TwoViewError, TypeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    return cfg


def _parse(raw: dict, seed_override: int | None,
           output_override: str | None) -> RunConfig:
    _checked(raw, "top level")
    ds = _checked(raw.get("dataset", {}), "dataset")
    split = SplitSpec(**{_SPLIT_FIELDS[k]: v for k, v in
                         _checked(raw.get("split", {}), "split").items()})

    model = None
    mb = _checked(raw.get("model", {}), "model")
    if mb:
        if "variant" not in mb:
            raise ConfigError("model block needs a \"variant\" string")
        model = ModelConfig.from_variant(mb["variant"], mb.get("d_e", 300),
                                         mb.get("d_c", 50))

    tb = dict(_checked(raw.get("train", {}), "train"))
    base = Margins.defaults_for(model.intra) if model is not None else Margins()
    margins = replace(base, **_checked(tb.pop("margins", {}), "margins"))
    weights = LossWeights(**{k: tb.pop(k) for k in _WEIGHT_KEYS if k in tb})
    train = TrainConfig(margins=margins, weights=weights,
                        hierarchical_relations=tuple(
                            ds.get("hierarchical_relations", ())),
                        **tb)
    if seed_override is not None:
        train = replace(train, seed=seed_override)
        split = replace(split, seed=seed_override)

    return RunConfig(
        **{key: ds.get(key) for key in (*RAW_FILES.values(), "split_dir")},
        split=split,
        model=model,
        train=train,
        eval=EvalSettings(**_checked(raw.get("eval", {}), "eval")),
        output_dir=output_override or raw.get("output_dir", "out"),
    )

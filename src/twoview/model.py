"""Model variant selection and the parameter container.

A variant couples one intra-view scorer with one cross-view association
model, optionally hierarchy-aware: the variant string is
``[HA]{TransE|Mult|HolE}-{CG|CT}``, e.g. ``TransE-CT`` or ``HAHolE-CT``.
Hierarchy-aware variants exist only on top of CT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kb import COLUMNS, VOCABS
from .scoring import ScorerKind
from .tensor_ops import AffineMap, init_orthogonal, init_unit_sphere


class CrossKind:
    GROUPING = "CG"
    TRANSFORMATION = "CT"


_INTRA_TOKENS = {
    "TransE": ScorerKind.TRANSLATIONAL,
    "Mult": ScorerKind.MULTIPLICATIVE,
    "HolE": ScorerKind.CORRELATIONAL,
}
_INTRA_NAMES = {v: k for k, v in _INTRA_TOKENS.items()}


@dataclass(frozen=True)
class ModelConfig:
    """Variant selection plus embedding dimensions."""

    intra: ScorerKind
    cross: str  # CrossKind.GROUPING or CrossKind.TRANSFORMATION
    hierarchy_aware: bool
    d_e: int
    d_c: int

    def __post_init__(self):
        if self.cross not in (CrossKind.GROUPING, CrossKind.TRANSFORMATION):
            raise ConfigError(f"unknown cross-view model: {self.cross!r}")
        if self.d_e < 1 or self.d_c < 1:
            raise ConfigError(f"dimensions must be >= 1, got d_e={self.d_e}, d_c={self.d_c}")
        if self.cross == CrossKind.GROUPING and self.d_e != self.d_c:
            raise ConfigError(
                f"CG embeds both views in one space and requires d_e == d_c, "
                f"got d_e={self.d_e}, d_c={self.d_c}")
        if self.hierarchy_aware and self.cross != CrossKind.TRANSFORMATION:
            raise ConfigError("hierarchy-aware variants exist only with CT")

    @property
    def variant(self) -> str:
        prefix = "HA" if self.hierarchy_aware else ""
        return f"{prefix}{_INTRA_NAMES[self.intra]}-{self.cross}"

    @classmethod
    def from_variant(cls, name: str, d_e: int, d_c: int) -> "ModelConfig":
        base = name
        ha = base.startswith("HA")
        if ha:
            base = base[2:]
        try:
            intra_token, cross = base.split("-")
        except ValueError:
            raise ConfigError(
                f"variant {name!r} is not of the form [HA]<intra>-<cross>") from None
        if intra_token not in _INTRA_TOKENS:
            raise ConfigError(
                f"unknown intra-view model {intra_token!r}; "
                f"expected one of {sorted(_INTRA_TOKENS)}")
        return cls(intra=_INTRA_TOKENS[intra_token], cross=cross,
                   hierarchy_aware=ha, d_e=d_e, d_c=d_c)


def all_variants() -> list[str]:
    """The nine supported variant strings."""
    out = [f"{i}-{c}" for i in _INTRA_TOKENS for c in ("CG", "CT")]
    out += [f"HA{i}-CT" for i in _INTRA_TOKENS]
    return out


# table pairs (node table, edge table) per view
VIEW_TABLES = {view: COLUMNS[view][:2] for view in ("instance", "ontology")}


def map_blocks(name: str) -> tuple[str, str]:
    """The block names of affine map ``name``'s W and b, in params and gradients."""
    return f"{name}_W", f"{name}_b"


@dataclass
class ModelParams:
    """All trainable arrays.

    Rows of the ``UNIT_NORM`` tables, entities and concepts, are kept at unit
    L2 norm throughout training; relation and meta-relation rows are
    unconstrained.  The affine maps are present only for the variants that
    use them.
    """

    entities: np.ndarray        # (n_e, d_e)
    relations: np.ndarray       # (n_r, d_e)
    concepts: np.ndarray        # (n_c, d_c)
    meta_relations: np.ndarray  # (n_m, d_c)
    ct_map: AffineMap | None = None
    ha_map: AffineMap | None = None

    TABLES = VOCABS
    UNIT_NORM = ("entities", "concepts")

    def table(self, name: str) -> np.ndarray:
        if name not in self.TABLES:
            raise ConfigError(f"unknown parameter table {name!r}")
        return getattr(self, name)

    def map(self, name: str) -> AffineMap:
        m = {"ct": self.ct_map, "ha": self.ha_map}.get(name)
        if m is None:
            raise ConfigError(f"affine map {name!r} is not part of this variant")
        return m

    def blocks(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) for every trainable array: the tables, then the W
        and b of each map present, CT before HA."""
        out = [(name, self.table(name)) for name in self.TABLES]
        for name, m in (("ct", self.ct_map), ("ha", self.ha_map)):
            if m is not None:
                out += zip(map_blocks(name), (m.W, m.b))
        return out

    def copy(self) -> "ModelParams":
        return ModelParams.from_blocks((name, a.copy()) for name, a in self.blocks())

    @classmethod
    def layout(cls, config: ModelConfig,
               rows: dict[str, int]) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every trainable array of ``config``, in ``blocks()``
        order; ``rows`` maps each table name to its number of rows."""
        d_e, d_c = config.d_e, config.d_c
        out = [(name, (rows[name], d))
               for name, d in zip(cls.TABLES, (d_e, d_e, d_c, d_c))]
        if config.cross == CrossKind.TRANSFORMATION:
            out += zip(map_blocks("ct"), ((d_c, d_e), (d_c,)))
        if config.hierarchy_aware:
            out += zip(map_blocks("ha"), ((d_c, d_c), (d_c,)))
        return out

    @classmethod
    def from_blocks(cls, pairs) -> "ModelParams":
        """Parameters from (name, array) pairs named as ``blocks()`` names them."""
        arrays = dict(pairs)
        maps = {f"{m}_map": AffineMap(*(arrays.pop(n) for n in map_blocks(m)))
                for m in ("ct", "ha") if map_blocks(m)[0] in arrays}
        return cls(**arrays, **maps)

    @classmethod
    def init(cls, config: ModelConfig, n_entities: int, n_relations: int,
             n_concepts: int, n_meta: int, rng: np.random.Generator,
             dtype=np.float32) -> "ModelParams":
        """Fresh parameters: unit-sphere vectors, orthogonal weights, zero
        biases.  The weights are drawn first (CT before HA), then the tables."""
        layout = cls.layout(config, dict(zip(
            cls.TABLES, (n_entities, n_relations, n_concepts, n_meta))))
        drawn = {name: init_orthogonal(*shape, rng, dtype) for name, shape in layout
                 if name in (map_blocks(m)[0] for m in ("ct", "ha"))}
        drawn.update((name, init_unit_sphere(*shape, rng, dtype))
                     for name, shape in layout if name in cls.TABLES)
        return cls.from_blocks((name, drawn.get(name, np.zeros(shape, dtype)))
                               for name, shape in layout)

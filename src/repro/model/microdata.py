"""The microdata DB: rows, weights, labelled-null cells.

A :class:`MicrodataDB` is the extensional object the whole framework
operates on: a named relation with a :class:`~repro.model.schema.
MicrodataSchema`, whose cells may hold labelled nulls once local
suppression (Algorithm 7) has run.  Rows are immutable mappings; all
anonymization operators return new rows, so a dataset snapshot can be
kept for information-loss accounting.
"""

from __future__ import annotations

import copy
import math
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SchemaError
from ..vadalog.atoms import Atom
from ..vadalog.terms import LabelledNull, wrap
from .schema import AttributeCategory, MicrodataSchema


def is_suppressed(value: Any) -> bool:
    """True when a cell holds a labelled null (suppressed value)."""
    return isinstance(value, LabelledNull)


def _weight(cell: Any, default: float) -> float:
    """A weight cell's value: ``default`` when missing or suppressed."""
    if cell is None or isinstance(cell, LabelledNull):
        return default
    return float(cell)


def _valid_weight(value: Any) -> bool:
    """A weight cell is valid when suppressed, missing, or a finite
    number above zero — ρ = 1/ΣW is meaningless for anything else."""
    if value is None or is_suppressed(value):
        return True
    try:
        number = float(value)
    except (TypeError, ValueError):
        return False
    return 0 < number < math.inf


class MicrodataDB:
    """A named microdata relation M(i, q, a, W)."""

    def __init__(
        self,
        name: str,
        schema: MicrodataSchema,
        rows: Iterable[Mapping[str, Any]],
    ):
        self.name = name
        self.schema = schema
        self.rows: List[Dict[str, Any]] = []
        weight = schema.weight_attribute
        for index, row in enumerate(rows):
            normalized = dict(row)
            missing = [a for a in schema.attributes if a not in normalized]
            if missing:
                raise SchemaError(
                    f"row {index} of {name!r} misses attribute(s) "
                    f"{', '.join(missing)}"
                )
            extra = [a for a in normalized if a not in schema.categories]
            if extra:
                raise SchemaError(
                    f"row {index} of {name!r} has unknown attribute(s) "
                    f"{', '.join(extra)}"
                )
            if weight is not None and not _valid_weight(normalized[weight]):
                raise SchemaError(
                    f"row {index} of {name!r} has weight "
                    f"{normalized[weight]!r} in {weight!r}; a sampling "
                    "weight must be a positive finite number"
                )
            self.rows.append(normalized)

    # -- basic accessors -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Dict[str, Any]:
        return self.rows[index]

    @property
    def quasi_identifiers(self) -> List[str]:
        return self.schema.quasi_identifiers

    @property
    def weight_attribute(self) -> Optional[str]:
        return self.schema.weight_attribute

    def weight_of(self, index: int, default: float = 1.0) -> float:
        """Sampling weight of a row (1.0 when the schema has none)."""
        attribute = self.weight_attribute
        if attribute is None:
            return default
        return _weight(self.rows[index].get(attribute), default)

    def weights(self) -> List[float]:
        attribute = self.weight_attribute
        if attribute is None:
            return [1.0] * len(self.rows)
        return [_weight(row.get(attribute), 1.0) for row in self.rows]

    def qi_values(
        self, index: int, attributes: Optional[Sequence[str]] = None
    ) -> Tuple[Any, ...]:
        """The row's values over the given (default: all) QIs."""
        attributes = (
            list(attributes)
            if attributes is not None
            else self.quasi_identifiers
        )
        row = self.rows[index]
        return tuple(row[a] for a in attributes)

    def suppressed_cells(
        self, attributes: Optional[Sequence[str]] = None
    ) -> int:
        """Count of labelled-null cells over the given attributes —
        the paper's "number of injected nulls" metric (Fig. 7a/7c)."""
        attributes = (
            list(attributes)
            if attributes is not None
            else list(self.schema.attributes)
        )
        return sum(
            1
            for row in self.rows
            for attribute in attributes
            if is_suppressed(row[attribute])
        )

    # -- mutation-by-copy -------------------------------------------------------

    def copy(self) -> "MicrodataDB":
        """A copy with its own row dicts and the same schema.  The rows
        were validated when this dataset was built, so they are copied
        without checking them again."""
        clone = object.__new__(MicrodataDB)
        clone.name = self.name
        clone.schema = self.schema
        clone.rows = [dict(row) for row in self.rows]
        return clone

    def with_value(
        self, index: int, attribute: str, value: Any
    ) -> None:
        """In-place single-cell update (the anonymization cycle owns its
        working copy)."""
        if attribute not in self.schema.categories:
            raise SchemaError(f"unknown attribute {attribute!r}")
        self.rows[index][attribute] = value

    def drop_identifiers(self) -> "MicrodataDB":
        """The shared view: direct identifiers removed (first step of
        the anonymization cycle)."""
        kept = self.schema.shared_view()
        categories = {a: self.schema.categories[a] for a in kept}
        schema = MicrodataSchema(kept, categories, self.schema.descriptions)
        rows = [{a: row[a] for a in kept} for row in self.rows]
        return MicrodataDB(self.name, schema, rows)

    # -- engine bridge ------------------------------------------------------------

    def to_facts(self) -> List[Atom]:
        """Encode the dataset as the paper's extensional facts:

        * ``microDB(name)``
        * ``att(name, attribute, description)``
        * ``category(name, attribute, category)``
        * ``val(name, rowIndex, attribute, value)``
        """
        facts: List[Atom] = [Atom.of("microDB", self.name)]
        for attribute in self.schema.attributes:
            facts.append(
                Atom.of(
                    "att",
                    self.name,
                    attribute,
                    self.schema.descriptions.get(attribute, attribute),
                )
            )
            facts.append(
                Atom.of(
                    "category",
                    self.name,
                    attribute,
                    str(self.schema.categories[attribute]),
                )
            )
        for index, row in enumerate(self.rows):
            for attribute in self.schema.attributes:
                facts.append(
                    Atom(
                        "val",
                        (
                            wrap(self.name),
                            wrap(index),
                            wrap(attribute),
                            wrap(row[attribute]),
                        ),
                    )
                )
        return facts

    @classmethod
    def from_facts(
        cls, name: str, schema: MicrodataSchema, val_tuples: Iterable[Tuple]
    ) -> "MicrodataDB":
        """Rebuild a dataset from ``val(name, row, attribute, value)``
        tuples produced by a reasoning task."""
        rows: Dict[Any, Dict[str, Any]] = {}
        for db_name, row_id, attribute, value in val_tuples:
            if db_name != name:
                continue
            rows.setdefault(row_id, {})[attribute] = value
        ordered = [rows[key] for key in sorted(rows, key=_row_sort_key)]
        return cls(name, schema, ordered)

    def __repr__(self):
        return (
            f"MicrodataDB({self.name!r}, {len(self.rows)} rows, "
            f"{len(self.schema.attributes)} attributes)"
        )


def _row_sort_key(key: Any):
    return (0, key) if isinstance(key, int) else (1, str(key))

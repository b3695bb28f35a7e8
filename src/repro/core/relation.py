"""The relation substrate: an in-memory, NumPy-backed table.

A :class:`Relation` couples a schema (a sequence of
:class:`~repro.core.attributes.Attribute`) with a dense ``(n, d)`` rank
matrix in which smaller values are better on every column.  All query
algorithms operate on the rank matrix; the relation keeps the original
values so results can be materialised back into records.
"""

from __future__ import annotations

import csv
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .attributes import Attribute, Direction, lowest

__all__ = ["Relation"]


class Relation:
    """An immutable in-memory relation instance ``D``.

    Parameters
    ----------
    schema:
        The attributes, in column order.
    ranks:
        ``(n, d)`` float64 matrix of encoded ranks (smaller is better).
    values:
        Optional ``(n, d)`` object array of the original values, used only
        for presentation; defaults to decoding the ranks.
    """

    __slots__ = ("schema", "ranks", "_values")

    def __init__(self, schema: Sequence[Attribute], ranks: np.ndarray,
                 values: np.ndarray | None = None):
        # one C-contiguous conversion here means no per-kernel layout
        # conversion downstream: every algorithm sees the same buffer
        ranks = np.ascontiguousarray(ranks, dtype=np.float64)
        if ranks.ndim != 2:
            raise ValueError("ranks must be a 2-d matrix")
        if ranks.shape[1] != len(schema):
            raise ValueError(
                f"rank matrix has {ranks.shape[1]} columns but the schema "
                f"declares {len(schema)} attributes"
            )
        finite = np.isfinite(ranks)
        if not finite.all():
            # pinpoint the first bad cell -- without this, bad rows
            # surface later as confusing kernel output in dominance.py
            row, col = np.argwhere(~finite)[0]
            names = [attribute.name for attribute in schema]
            raise ValueError(
                f"rank matrix contains non-finite values: "
                f"{ranks[row, col]!r} at row {row}, attribute "
                f"{names[col]!r}")
        self._adopt(schema, ranks, values)

    @classmethod
    def _checked(cls, schema: Sequence[Attribute],
                 ranks: np.ndarray) -> "Relation":
        """A relation over ``ranks``, a C-order float64 matrix with one
        finite column per attribute of ``schema`` that nothing else
        holds: the shape and finiteness checks have been made."""
        relation = cls.__new__(cls)
        relation._adopt(schema, ranks, None)
        return relation

    def _adopt(self, schema: Sequence[Attribute], ranks: np.ndarray,
               values: np.ndarray | None) -> None:
        names = [attribute.name for attribute in schema]
        if len(set(names)) != len(names):
            seen: set[str] = set()
            duplicates = sorted({name for name in names
                                 if name in seen or seen.add(name)})
            raise ValueError(
                "schema contains duplicate attribute names: "
                f"{duplicates}")
        self.schema = tuple(schema)
        self.ranks = ranks
        self.ranks.setflags(write=False)
        self._values = values

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any] | Sequence[Any]],
                     schema: Sequence[Attribute]) -> "Relation":
        """Build a relation from dict- or tuple-shaped records."""
        schema = tuple(schema)
        rows = list(records)
        columns: list[list[Any]] = [[] for _ in schema]
        for row in rows:
            if isinstance(row, Mapping):
                for j, attribute in enumerate(schema):
                    if attribute.name not in row:
                        raise ValueError(
                            f"record is missing attribute {attribute.name!r}"
                        )
                    columns[j].append(row[attribute.name])
            else:
                if len(row) != len(schema):
                    raise ValueError(
                        f"record of arity {len(row)} does not match the "
                        f"schema arity {len(schema)}"
                    )
                for j, value in enumerate(row):
                    columns[j].append(value)
        if rows:
            ranks = np.column_stack(
                [attribute.encode(column)
                 for attribute, column in zip(schema, columns)]
            )
            values = np.empty((len(rows), len(schema)), dtype=object)
            for j, column in enumerate(columns):
                values[:, j] = column
        else:
            ranks = np.empty((0, len(schema)), dtype=np.float64)
            values = np.empty((0, len(schema)), dtype=object)
        return cls(schema, ranks, values)

    @classmethod
    def from_array(cls, array: np.ndarray,
                   names: Sequence[str] | None = None,
                   schema: Sequence[Attribute] | None = None) -> "Relation":
        """Wrap a numeric array; by default every column prefers low values.

        One C-order copy of ``array`` becomes the rank matrix: the
        ``highest`` columns are negated in place, ranked columns are
        encoded into it, and finiteness is checked once.  An array that
        fails (a NaN, an infinity, a value outside a ranked order) or
        does not match the schema's width is encoded attribute by
        attribute instead, which raises the error the bad column
        deserves.
        """
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("expected a 2-d array")
        if schema is None:
            if names is None:
                names = [f"A{j}" for j in range(array.shape[1])]
            schema = [lowest(name) for name in names]
        schema = tuple(schema)
        if len(schema) == array.shape[1]:
            ranks = np.array(array, order="C")
            try:
                for j, attribute in enumerate(schema):
                    if attribute.direction is Direction.MAX:
                        np.negative(ranks[:, j], out=ranks[:, j])
                    elif attribute.direction is Direction.RANKED:
                        ranks[:, j] = attribute.encode(array[:, j])
                if np.isfinite(ranks).all():
                    return cls._checked(schema, ranks)
            except ValueError:
                pass
        ranks = np.column_stack(
            [attribute.encode(array[:, j])
             for j, attribute in enumerate(schema)]
        ) if array.shape[1] else array.copy()
        return cls(schema, ranks)

    @classmethod
    def from_csv(cls, path: str, schema: Sequence[Attribute],
                 delimiter: str = ",") -> "Relation":
        """Load a relation from a CSV file with a header row.

        Numeric columns are parsed as floats; ranked attributes keep their
        raw string values.
        """
        schema = tuple(schema)
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle, delimiter=delimiter)
            records = []
            for row in reader:
                record = {}
                for attribute in schema:
                    raw = row.get(attribute.name)
                    if raw is None:
                        raise ValueError(
                            f"CSV is missing column {attribute.name!r}"
                        )
                    if attribute.order:
                        record[attribute.name] = raw
                    else:
                        record[attribute.name] = float(raw)
                records.append(record)
        return cls.from_records(records, schema)

    # -- accessors -------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self.schema)

    def __len__(self) -> int:
        return self.ranks.shape[0]

    @property
    def arity(self) -> int:
        return self.ranks.shape[1]

    def column(self, name: str) -> np.ndarray:
        """The rank column for ``name``."""
        return self.ranks[:, self._index(name)]

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def take(self, indices: np.ndarray | Sequence[int]) -> "Relation":
        """A new relation containing the given rows (in the given order)."""
        indices = np.asarray(indices, dtype=np.intp)
        values = self._values[indices] if self._values is not None else None
        # fancy indexing already yields a fresh contiguous matrix
        return Relation(self.schema, self.ranks[indices], values)

    def project(self, names: Sequence[str]) -> "Relation":
        """A new relation with only the given columns, in the given order."""
        cols = [self._index(name) for name in names]
        values = self._values[:, cols] if self._values is not None else None
        schema = [self.schema[c] for c in cols]
        return Relation(schema, self.ranks[:, cols], values)

    def head(self, count: int = 10) -> "Relation":
        """The first ``count`` tuples (fewer if the relation is smaller)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.take(np.arange(min(count, len(self)), dtype=np.intp))

    def sort_by(self, name: str, best_first: bool = True) -> "Relation":
        """Tuples ordered by one attribute's *preference* (best first by
        default) -- a stable sort on the rank column."""
        column = self.column(name)
        order = np.argsort(column, kind="stable")
        if not best_first:
            order = order[::-1]
        return self.take(order)

    @classmethod
    def concat(cls, relations: Sequence["Relation"]) -> "Relation":
        """Stack relations with identical schemas."""
        if not relations:
            raise ValueError("nothing to concatenate")
        first = relations[0]
        for other in relations[1:]:
            if other.schema != first.schema:
                raise ValueError("schemas differ; cannot concatenate")
        ranks = np.vstack([relation.ranks for relation in relations])
        values = None
        if all(relation._values is not None for relation in relations):
            values = np.vstack([relation._values
                                for relation in relations])
        return cls(first.schema, ranks, values)

    def __iter__(self):
        """Iterate over tuples as dicts of original values."""
        return iter(self.to_records())

    def values_of(self, j: int) -> np.ndarray | list[Any]:
        """Column ``j``'s original values: the kept values when the
        relation has them, else the decoded ranks."""
        if self._values is not None:
            return self._values[:, j]
        return self.schema[j].decode(self.ranks[:, j])

    def to_records(self) -> list[dict[str, Any]]:
        """Materialise the relation as a list of dicts of original values."""
        decoded = [self.values_of(j) for j in range(len(self.schema))]
        return [
            {attribute.name: decoded[j][i]
             for j, attribute in enumerate(self.schema)}
            for i in range(len(self))
        ]

    def __repr__(self) -> str:
        return (f"Relation({len(self)} tuples over "
                f"[{', '.join(self.names)}])")

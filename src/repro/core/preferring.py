"""A Preference-SQL-flavoured ``PREFERRING`` clause (Kießling & Köstler).

The paper notes that Pareto and prioritized accumulation have been added
to SQL as *Preference SQL*; this module provides a small textual clause in
that spirit, so preferences over raw (un-encoded) relations can be stated
inline::

    PREFERRING lowest(price) & (lowest(mileage) * highest(horsepower))

Grammar (``&`` binds tighter than ``*``, as in the p-expression parser)::

    clause -> pareto
    pareto -> prio ( '*' prio )*
    prio   -> atom ( '&' atom )*
    atom   -> term | '(' clause ')'
    term   -> NAME | 'lowest' '(' NAME ')' | 'highest' '(' NAME ')'

A bare ``NAME`` means ``lowest(NAME)`` (the paper's default convention).
:func:`evaluate_preferring` re-encodes the referenced columns according to
the clause's directions, so the same relation can be queried with
different orientations without rebuilding it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..algorithms.base import Stats, ensure_context
from ..engine.context import ExecutionContext
from .attributes import Attribute, Direction
from .expressions import Att, PExpr, pareto, prioritized
from .parser import ParseError
from .pgraph import PGraph
from .query import _evaluate
from .relation import Relation

__all__ = ["PreferringClause", "parse_preferring", "evaluate_preferring",
           "resolve_preferring", "encode_columns"]


@dataclass(frozen=True)
class PreferringClause:
    """A parsed clause: the p-expression plus per-attribute directions."""

    expression: PExpr
    directions: dict[str, Direction]

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.expression.attributes()


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<keyword>lowest|highest)\s*\("
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[*⊗&()])"
    r")",
    re.IGNORECASE,
)


class _ClauseParser:
    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.position = 0
        self.directions: dict[str, Direction] = {}

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, str]]:
        tokens: list[tuple[str, str]] = []
        position = 0
        while position < len(text):
            match = _TOKEN_RE.match(text, position)
            if match is None:
                remainder = text[position:].strip()
                if not remainder:
                    break
                raise ParseError(
                    f"unexpected input {remainder[:10]!r} in PREFERRING "
                    "clause"
                )
            if match.group("keyword"):
                tokens.append(("keyword", match.group("keyword").lower()))
            elif match.group("name"):
                tokens.append(("name", match.group("name")))
            else:
                tokens.append(("op", match.group("op")))
            position = match.end()
        return tokens

    def peek(self) -> tuple[str, str] | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of PREFERRING clause")
        self.position += 1
        return token

    def parse(self) -> PreferringClause:
        expr = self.pareto()
        if self.peek() is not None:
            raise ParseError(
                f"trailing input {self.peek()[1]!r} in PREFERRING clause"
            )
        return PreferringClause(expr, dict(self.directions))

    def pareto(self) -> PExpr:
        parts = [self.prio()]
        while (token := self.peek()) is not None and token == ("op", "*"):
            self.advance()
            parts.append(self.prio())
        return pareto(*parts)

    def prio(self) -> PExpr:
        parts = [self.atom()]
        while (token := self.peek()) is not None and token == ("op", "&"):
            self.advance()
            parts.append(self.atom())
        return prioritized(*parts)

    def atom(self) -> PExpr:
        kind, text = self.advance()
        if kind == "keyword":
            direction = (Direction.MIN if text == "lowest"
                         else Direction.MAX)
            kind, name = self.advance()
            if kind != "name":
                raise ParseError(f"{text}(...) needs an attribute name")
            closing = self.advance()
            if closing != ("op", ")"):
                raise ParseError(f"missing ')' after {text}({name}")
            self._record(name, direction)
            return Att(name)
        if kind == "name":
            self._record(text, Direction.MIN)
            return Att(text)
        if (kind, text) == ("op", "("):
            inner = self.pareto()
            if self.advance() != ("op", ")"):
                raise ParseError("unbalanced parentheses in PREFERRING")
            return inner
        raise ParseError(f"unexpected token {text!r} in PREFERRING clause")

    def _record(self, name: str, direction: Direction) -> None:
        if self.directions.get(name, direction) is not direction:
            raise ParseError(
                f"attribute {name!r} used with conflicting directions"
            )
        self.directions[name] = direction


def parse_preferring(text: str) -> PreferringClause:
    """Parse a ``PREFERRING`` clause body (without the keyword itself)."""
    text = text.strip()
    if text.upper().startswith("PREFERRING"):
        text = text[len("PREFERRING"):]
    if not text.strip():
        raise ParseError("empty PREFERRING clause")
    return _ClauseParser(text).parse()


def resolve_preferring(relation: Relation,
                       clause: PreferringClause | str
                       ) -> tuple[PGraph, tuple]:
    """Resolve a clause to ``(graph, items)`` without touching rows.

    ``graph`` carries the order signature the clause induces; ``items``
    is the per-attribute *encoding signature* -- one
    ``(column_index, code)`` pair per attribute, where ``code`` is
    ``"+"`` (schema direction kept), ``"-"`` (column negated) or
    ``"ranked"``.  Two clauses whose items agree read identical encoded
    columns, which is what the batch fusion layer keys on; feed the
    items to :func:`encode_columns` to materialise the matrix.
    """
    if isinstance(clause, str):
        clause = parse_preferring(clause)
    names = clause.attributes
    items = []
    orders = []
    for name in names:
        if name not in relation.names:
            raise KeyError(f"unknown attribute {name!r} in PREFERRING")
        index = relation.names.index(name)
        attribute: Attribute = relation.schema[index]
        wanted = clause.directions[name]
        if attribute.direction is Direction.RANKED:
            if wanted is Direction.MAX:
                raise ParseError(
                    f"highest({name}) is not allowed on a ranked attribute"
                )
            items.append((index, "ranked"))
            orders.append(attribute.order_token())
        elif wanted is attribute.direction:
            items.append((index, "+"))
            orders.append(wanted.value)
        else:
            items.append((index, "-"))
            orders.append(wanted.value)
    graph = PGraph.from_expression(clause.expression, names=names) \
        .with_orders(orders)
    return graph, tuple(items)


def encode_columns(relation: Relation, items) -> np.ndarray:
    """The encoded rank matrix for a :func:`resolve_preferring`
    signature (one column per item, negated where the clause flips the
    schema direction), written in one C-order copy."""
    items = list(items)
    matrix = np.empty((len(relation), len(items)))
    for j, (index, code) in enumerate(items):
        if code == "-":
            np.negative(relation.ranks[:, index], out=matrix[:, j])
        else:
            matrix[:, j] = relation.ranks[:, index]
    return matrix


def evaluate_preferring(relation: Relation, clause: PreferringClause | str,
                        *, algorithm: str = "osdc",
                        stats: Stats | None = None,
                        context: ExecutionContext | None = None
                        ) -> Relation:
    """Evaluate a ``PREFERRING`` clause against a relation.

    Directions in the clause override the relation's schema: a column
    declared ``lowest`` in the schema can be queried with ``highest(...)``
    (ranked attributes reject ``highest``, as reversing an explicit
    ranking is more likely a mistake than an intent).

    ``algorithm`` is a registry name or ``"auto"``, which plans the
    query as :func:`~repro.core.query.p_skyline` does.
    """
    graph, items = resolve_preferring(relation, clause)
    matrix = encode_columns(relation, items)
    context = ensure_context(context, stats)
    indices = _evaluate(algorithm, matrix, graph, None, None, context, {})
    return relation.take(indices)

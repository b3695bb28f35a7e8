"""Tests for the high-level query API and the PREFERRING clause."""

import numpy as np
import pytest

from repro.algorithms import Stats
from repro.core.attributes import highest, lowest, ranked
from repro.core.expressions import Att
from repro.core.parser import ParseError
from repro.core.parser import parse as parse_expression
from repro.core.preferring import (evaluate_preferring, parse_preferring)
from repro.core.pgraph import PGraph
from repro.core.query import p_skyline, p_skyline_batch, skyline
from repro.core.relation import Relation
from repro.core.sharding import ShardedRelation


@pytest.fixture
def cars():
    schema = [lowest("id"), lowest("price"), lowest("mileage"),
              ranked("transmission", ["manual", "automatic"])]
    return Relation.from_records(
        [
            {"id": 1, "price": 11500, "mileage": 50000,
             "transmission": "automatic"},
            {"id": 2, "price": 11500, "mileage": 60000,
             "transmission": "manual"},
            {"id": 3, "price": 12000, "mileage": 50000,
             "transmission": "manual"},
            {"id": 4, "price": 12000, "mileage": 60000,
             "transmission": "automatic"},
        ],
        schema,
    )


def ids(relation):
    return sorted(r["id"] for r in relation.to_records())


class TestPSkyline:
    def test_paper_example1_all_expressions(self, cars):
        assert ids(p_skyline(cars, "price")) == [1, 2]
        assert ids(p_skyline(cars, "(price * mileage) & transmission")) == [1]
        assert ids(p_skyline(cars, "(price & transmission) * mileage")) \
            == [1, 2]
        assert ids(p_skyline(cars, "mileage & transmission & price")) == [3]

    def test_accepts_ast(self, cars):
        assert ids(p_skyline(cars, Att("price"))) == [1, 2]

    def test_matrix_input_returns_indices(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        result = p_skyline(matrix, "A0 * A1")
        assert result.tolist() == [0, 1]

    def test_matrix_with_projection(self):
        matrix = np.array([[9.0, 1.0], [0.0, 2.0]])
        # only A1 matters; ties on it keep both
        assert p_skyline(matrix, "A1").tolist() == [0]

    def test_every_algorithm_dispatchable(self, cars):
        from repro.algorithms import REGISTRY
        for name in REGISTRY:
            assert ids(p_skyline(cars, "(price & transmission) * mileage",
                                 algorithm=name)) == [1, 2]

    def test_unknown_algorithm(self, cars):
        with pytest.raises(KeyError):
            p_skyline(cars, "price", algorithm="nope")

    def test_unknown_attribute(self, cars):
        with pytest.raises(KeyError, match="horsepower"):
            p_skyline(cars, "price * horsepower")

    def test_stats_forwarded(self, cars):
        stats = Stats()
        p_skyline(cars, "price * mileage", algorithm="bnl", stats=stats)
        assert stats.dominance_tests > 0

    def test_bad_expression_type(self, cars):
        with pytest.raises(TypeError):
            p_skyline(cars, 42)

    def test_p_graph_input(self, cars):
        graph = PGraph.from_expression(
            parse_expression("(price & transmission) * mileage"))
        assert ids(p_skyline(cars, graph)) == ids(
            p_skyline(cars, "(price & transmission) * mileage"))

    def test_skyline_over_all_attributes(self, cars):
        result = skyline(cars.project(["price", "mileage"]))
        assert sorted(r["price"] for r in result.to_records()) == [11500]

    def test_highest_direction(self):
        relation = Relation.from_records(
            [{"hp": 100, "price": 10}, {"hp": 200, "price": 10}],
            [highest("hp"), lowest("price")],
        )
        result = p_skyline(relation, "hp * price")
        assert [r["hp"] for r in result.to_records()] == [200]


class TestPreferringParsing:
    def test_defaults_to_lowest(self):
        clause = parse_preferring("price & mileage")
        from repro.core.attributes import Direction
        assert clause.directions == {"price": Direction.MIN,
                                     "mileage": Direction.MIN}

    def test_keyword_prefix_stripped(self):
        clause = parse_preferring("PREFERRING lowest(a) * highest(b)")
        assert clause.attributes == ("a", "b")

    def test_case_insensitive_keywords(self):
        clause = parse_preferring("LOWEST(a) & HIGHEST(b)")
        from repro.core.attributes import Direction
        assert clause.directions["b"] is Direction.MAX

    def test_precedence_matches_pexpr_parser(self):
        clause = parse_preferring("a & b * c")
        assert str(clause.expression) == "(a & b) * c"

    @pytest.mark.parametrize("bad", [
        "", "lowest()", "lowest(a", "a &", "a ** b", "(a", "a)",
        "lowest(a) & highest(a)",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_preferring(bad)


class TestPreferringEvaluation:
    def test_matches_p_skyline(self, cars):
        result = evaluate_preferring(
            cars, "lowest(price) & (lowest(mileage) * transmission)")
        assert ids(result) == ids(
            p_skyline(cars, "price & (mileage * transmission)"))

    def test_direction_override(self):
        relation = Relation.from_records(
            [{"x": 1, "y": 1}, {"x": 2, "y": 1}],
            [lowest("x"), lowest("y")],
        )
        best_low = evaluate_preferring(relation, "lowest(x)")
        best_high = evaluate_preferring(relation, "highest(x)")
        assert [r["x"] for r in best_low.to_records()] == [1]
        assert [r["x"] for r in best_high.to_records()] == [2]

    def test_highest_on_ranked_rejected(self, cars):
        with pytest.raises(ParseError):
            evaluate_preferring(cars, "highest(transmission)")

    def test_unknown_attribute(self, cars):
        with pytest.raises(KeyError):
            evaluate_preferring(cars, "lowest(horsepower)")

    def test_algorithm_dispatch(self, cars):
        result = evaluate_preferring(cars, "lowest(price)",
                                     algorithm="bnl")
        assert ids(result) == [1, 2]


class TestOneResolver:
    """``p_skyline``, ``p_skyline_batch`` and a sharded relation's
    ``track`` / ``skyline_gids`` / ``p_skyline`` resolve an expression
    through one function, so a bad one fails alike everywhere."""

    @pytest.fixture
    def entry_points(self):
        matrix = np.arange(24, dtype=float).reshape(8, 3)
        relation = Relation.from_array(matrix)
        sharded = ShardedRelation.from_array(matrix, shards=2)
        return {
            "p_skyline(relation)": lambda e: p_skyline(relation, e),
            "p_skyline(matrix)": lambda e: p_skyline(matrix, e),
            "p_skyline_batch(relation)":
                lambda e: p_skyline_batch(relation, [e]),
            "p_skyline_batch(matrix)":
                lambda e: p_skyline_batch(matrix, [e]),
            "p_skyline_batch(sharded)":
                lambda e: p_skyline_batch(sharded, [e]),
            "track": sharded.track,
            "skyline_gids": sharded.skyline_gids,
            "sharded.p_skyline": sharded.p_skyline,
        }

    @pytest.mark.parametrize("expression", [
        "A0 & Z9", PGraph.from_expression(parse_expression("A0 * Z9"))],
        ids=["text", "p-graph"])
    def test_missing_attribute_is_a_key_error(self, entry_points,
                                              expression):
        for name, call in entry_points.items():
            with pytest.raises(KeyError, match="Z9"):
                call(expression)

    @pytest.mark.parametrize("expression", [
        42, (PGraph.from_expression(parse_expression("A0 * A1")), [0, 1])],
        ids=["number", "graph-columns-pair"])
    def test_wrong_expression_type_is_a_type_error(self, entry_points,
                                                   expression):
        for name, call in entry_points.items():
            with pytest.raises(TypeError):
                call(expression)

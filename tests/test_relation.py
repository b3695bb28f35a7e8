"""Unit tests for the relation substrate."""

import numpy as np
import pytest

from repro.core.attributes import highest, lowest, ranked
from repro.core.relation import Relation


@pytest.fixture
def cars():
    schema = [lowest("price"), lowest("mileage"),
              ranked("transmission", ["manual", "automatic"])]
    return Relation.from_records(
        [
            {"price": 11500, "mileage": 50000, "transmission": "automatic"},
            {"price": 11500, "mileage": 60000, "transmission": "manual"},
            {"price": 12000, "mileage": 50000, "transmission": "manual"},
        ],
        schema,
    )


class TestConstruction:
    def test_from_dict_records(self, cars):
        assert len(cars) == 3
        assert cars.arity == 3
        assert cars.names == ("price", "mileage", "transmission")

    def test_from_tuple_records(self):
        relation = Relation.from_records(
            [(1, 2), (3, 4)], [lowest("a"), lowest("b")])
        assert relation.column("a").tolist() == [1.0, 3.0]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            Relation.from_records([(1, 2, 3)], [lowest("a"), lowest("b")])

    def test_missing_attribute_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            Relation.from_records([{"a": 1}], [lowest("a"), lowest("b")])

    def test_empty_records(self):
        relation = Relation.from_records([], [lowest("a")])
        assert len(relation) == 0
        assert relation.to_records() == []

    def test_from_array_defaults(self):
        relation = Relation.from_array(np.ones((2, 3)))
        assert relation.names == ("A0", "A1", "A2")

    def test_from_array_highest_encoding(self):
        relation = Relation.from_array(
            np.array([[1.0], [2.0]]), schema=[highest("x")])
        assert relation.ranks[:, 0].tolist() == [-1.0, -2.0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Relation([lowest("a")], np.array([[np.nan]]))

    def test_duplicate_schema_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Relation([lowest("a"), lowest("a")], np.ones((1, 2)))

    def test_ranks_are_read_only(self, cars):
        with pytest.raises(ValueError):
            cars.ranks[0, 0] = 0.0


class TestAccessors:
    def test_encoding_of_ranked_column(self, cars):
        assert cars.column("transmission").tolist() == [1.0, 0.0, 0.0]

    def test_unknown_column(self, cars):
        with pytest.raises(KeyError):
            cars.column("nope")

    def test_take_preserves_values(self, cars):
        subset = cars.take([2, 0])
        records = subset.to_records()
        assert records[0]["price"] == 12000
        assert records[0]["transmission"] == "manual"
        assert records[1]["transmission"] == "automatic"

    def test_project(self, cars):
        projected = cars.project(["mileage", "price"])
        assert projected.names == ("mileage", "price")
        assert projected.column("price").tolist() == \
            cars.column("price").tolist()

    def test_to_records_round_trip(self, cars):
        rebuilt = Relation.from_records(cars.to_records(), cars.schema)
        assert np.array_equal(rebuilt.ranks, cars.ranks)


class TestCsv:
    def test_csv_round_trip(self, cars, tmp_path):
        path = tmp_path / "cars.csv"
        records = cars.to_records()
        import csv
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=cars.names)
            writer.writeheader()
            writer.writerows(records)
        loaded = Relation.from_csv(str(path), cars.schema)
        assert np.array_equal(loaded.ranks, cars.ranks)

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError, match="missing column"):
            Relation.from_csv(str(path), [lowest("a"), lowest("b")])


def _per_attribute(array, schema):
    """The per-attribute encoding ``from_array`` must reproduce: one
    ``encode`` per column, stacked, then the constructor's checks."""
    array = np.asarray(array, dtype=np.float64)
    ranks = np.column_stack([attribute.encode(array[:, j])
                             for j, attribute in enumerate(schema)])
    return Relation(schema, ranks)


def _outcome(build):
    try:
        relation = build()
    except Exception as error:  # the type and message are compared
        return type(error), str(error)
    return relation.ranks.dtype, relation.ranks.shape, \
        relation.ranks.tobytes(), relation.ranks.flags.c_contiguous, \
        relation.ranks.flags.writeable


class TestFromArrayParity:
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             -2.2e-308, 1e308, -1e308, 1.5, -7.25]
    SCHEMA = [lowest("lo"), highest("hi"), lowest("lo2"), highest("hi2")]

    def _array(self):
        rng = np.random.default_rng(9)
        edges = np.array(self.EDGES)
        array = rng.normal(size=(40, 4))
        for j in range(4):
            array[:len(edges), j] = np.roll(edges, j)
        return array

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_ranks_are_byte_identical(self, layout):
        array = self._array()
        if layout == "F":
            array = np.asfortranarray(array)
        elif layout == "strided":
            array = np.repeat(array, 2, axis=1)[:, ::2]
        got = _outcome(lambda: Relation.from_array(array,
                                                   schema=self.SCHEMA))
        assert got == _outcome(lambda: _per_attribute(array, self.SCHEMA))
        assert got[3] and not got[4]  # C order, read-only

    def test_default_schema_copies_the_array(self):
        array = self._array()
        relation = Relation.from_array(array)
        assert relation.names == ("A0", "A1", "A2", "A3")
        assert relation.ranks.tobytes() == array.tobytes()
        array[0, 0] = 99.0
        assert relation.ranks[0, 0] != 99.0

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise_the_same_error(self, column, bad):
        array = self._array()
        array[17, column] = bad
        got = _outcome(lambda: Relation.from_array(array,
                                                   schema=self.SCHEMA))
        assert got == _outcome(lambda: _per_attribute(array, self.SCHEMA))
        assert got[0] is ValueError

    def test_the_first_bad_column_still_decides_the_error(self):
        array = self._array()
        array[3, 0] = np.inf  # the constructor would name this cell
        array[9, 2] = np.nan  # but encoding column 2 fails first
        got = _outcome(lambda: Relation.from_array(array,
                                                   schema=self.SCHEMA))
        assert got == _outcome(lambda: _per_attribute(array, self.SCHEMA))
        assert "NaN" in got[1]

    def test_ranked_schemas_load_and_bad_ranked_values_raise(self):
        schema = [ranked("grade", [2, 0, 1]), highest("hi"), lowest("lo")]
        array = np.array([[0, 3.5, -1.0], [1, -0.0, 2.0], [2, 1e308, 0.0]])
        got = _outcome(lambda: Relation.from_array(array, schema=schema))
        assert got == _outcome(lambda: _per_attribute(array, schema))
        assert Relation.from_array(array, schema=schema).ranks[:, 0] \
            .tolist() == [1.0, 2.0, 0.0]
        array[1, 0] = 7
        got = _outcome(lambda: Relation.from_array(array, schema=schema))
        assert got == _outcome(lambda: _per_attribute(array, schema))
        assert got[0] is ValueError and "ranked order" in got[1]

    def test_width_mismatch_behaves_as_before(self):
        array = self._array()
        for schema in (self.SCHEMA[:3], self.SCHEMA + [lowest("x")]):
            got = _outcome(lambda: Relation.from_array(array, schema=schema))
            assert got == _outcome(lambda: _per_attribute(array, schema))

    def test_duplicate_names_raise_the_same_error(self):
        array = self._array()
        schema = [lowest("a"), highest("a"), lowest("b"), lowest("c")]
        got = _outcome(lambda: Relation.from_array(array, schema=schema))
        assert got == _outcome(lambda: _per_attribute(array, schema))
        assert "duplicate" in got[1]

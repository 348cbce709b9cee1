"""JSON persistence: round-trips and failure modes."""

import json

import pytest

from repro.datasets import university
from repro.engine.database import Database
from repro.errors import StorageError
from repro.storage import (
    graph_from_dict,
    graph_to_dict,
    schema_from_dict,
    schema_to_dict,
)


@pytest.fixture(scope="module")
def db():
    return Database.from_dataset(university())


class TestSchemaRoundTrip:
    def test_round_trip(self, db):
        restored = schema_from_dict(schema_to_dict(db.schema))
        assert set(restored.class_names) == set(db.schema.class_names)
        assert {a.key for a in restored.associations} == {
            a.key for a in db.schema.associations
        }
        assert restored.class_def("SS#").is_primitive
        assert restored.resolve("TA", "Grad").kind.value == "generalization"

    def test_malformed_rejected(self):
        with pytest.raises(StorageError):
            schema_from_dict({"name": "x", "classes": [{"oops": 1}]})


class TestGraphRoundTrip:
    def test_round_trip(self, db):
        data = graph_to_dict(db.graph)
        restored = graph_from_dict(data, db.schema)
        assert set(restored.instances()) == set(db.graph.instances())
        for assoc in db.schema.associations:
            assert set(restored.edges(assoc)) == set(db.graph.edges(assoc))
        # Values survive.
        for instance in db.graph.extent("Name"):
            assert restored.value(instance) == db.graph.value(instance)

    def test_unknown_association_rejected(self, db):
        data = graph_to_dict(db.graph)
        data["edges"]["bogus"] = [[["Person", 1], ["Name", 2]]]
        with pytest.raises(StorageError):
            graph_from_dict(data, db.schema)


class TestDatabaseFiles:
    def test_save_load_query(self, db, tmp_path):
        path = tmp_path / "uni.json"
        db.save(path)
        restored = Database.open(path)
        result = restored.query("pi(TA * Grad * Student * Person * SS#)[SS#]")
        assert result.values("SS#") == {333, 444}

    def test_snapshot_is_json(self, db, tmp_path):
        path = tmp_path / "uni.json"
        db.save(path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro-aalgebra-v1"
        # Complement edges are derived, never stored: edge volume equals
        # the number of regular edges.
        stored = sum(len(rows) for rows in document["graph"]["edges"].values())
        actual = sum(
            db.graph.edge_count(assoc) for assoc in db.schema.associations
        )
        assert stored == actual

    def test_format_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(StorageError):
            Database.open(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(StorageError):
            Database.open(tmp_path / "missing.json", create=False)

    def test_unserializable_value(self, tmp_path):
        from repro.schema.graph import SchemaGraph

        schema = SchemaGraph("s")
        schema.add_domain_class("V")
        fresh = Database(schema)
        fresh.insert_value("V", object())
        with pytest.raises(StorageError):
            fresh.save(tmp_path / "x.json")


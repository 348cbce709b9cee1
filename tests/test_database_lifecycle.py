"""The redesigned Database lifecycle: open / save / close / savepoints."""

import pytest

from repro.datasets import university
from repro.engine.database import Database
from repro.errors import StorageError
from repro.storage.engine import FileEngine, MemoryEngine


@pytest.fixture()
def db():
    return Database.from_dataset(university())


class TestOpenDispatch:
    def test_open_without_path_needs_schema(self):
        with pytest.raises(StorageError):
            Database.open()

    def test_open_in_memory(self, db):
        fresh = Database.open(schema=db.schema, graph=db.graph)
        assert isinstance(fresh.engine, MemoryEngine)
        assert fresh.stats.analyzed
        result = fresh.query("pi(TA * Grad * Student * Person * SS#)[SS#]")
        assert result.values("SS#") == {333, 444}

    def test_open_json_snapshot(self, db, tmp_path):
        path = tmp_path / "uni.json"
        db.save(path)
        restored = Database.open(path)
        assert isinstance(restored.engine, MemoryEngine)
        assert restored.describe_storage()["snapshot_path"] == str(path)

    def test_open_directory_is_durable(self, db, tmp_path):
        store = tmp_path / "store"
        with Database.open(store, schema=db.schema, graph=db.graph) as durable:
            assert isinstance(durable.engine, FileEngine)
            assert durable.engine.durable

    def test_open_engine_positionally(self, tmp_path):
        schema = university().schema
        engine = FileEngine(tmp_path / "store", sync="never")
        with Database.open(engine, schema=schema) as opened:
            assert opened.engine is engine

    def test_missing_json_with_create_false(self, tmp_path):
        with pytest.raises(StorageError):
            Database.open(tmp_path / "absent.json", create=False)

    def test_fresh_json_path_creates_memory_db(self, db, tmp_path):
        path = tmp_path / "new.json"
        fresh = Database.open(path, schema=db.schema)
        fresh.insert_value("GPA", 3.3)
        fresh.save()  # no argument: the open() path is remembered
        assert path.exists()


class TestSaveAndClose:
    def test_save_requires_some_destination(self, db):
        with pytest.raises(StorageError):
            db.save()

    def test_save_remembers_path(self, db, tmp_path):
        path = tmp_path / "uni.json"
        db.save(path)
        db.insert_value("GPA", 1.11)
        db.save()  # rewrites the remembered path
        assert 1.11 in Database.open(path).query("GPA").values("GPA")

    def test_save_on_durable_store_checkpoints(self, db, tmp_path):
        with Database.open(tmp_path / "s", schema=db.schema) as durable:
            before = durable.describe_storage()["checkpoint"]
            durable.insert_value("GPA", 2.5)
            durable.save()  # checkpoint, not a snapshot file
            after = durable.describe_storage()["checkpoint"]
            assert after != before
            assert (tmp_path / "s" / after).exists()

    def test_context_manager_closes(self, db, tmp_path):
        with Database.open(tmp_path / "s", schema=db.schema) as durable:
            durable.insert_value("GPA", 2.5)
        assert durable.closed
        with pytest.raises(StorageError):
            durable.insert_value("GPA", 2.6)

    def test_close_is_idempotent_and_memory_close_is_cheap(self, db):
        db.close()
        db.close()
        assert db.closed
        # Queries still work on a closed database; only DML is refused.
        assert len(db.query("GPA").set) >= 0
        with pytest.raises(StorageError):
            db.insert_value("GPA", 0.1)


class TestAnalyzeDefaults:
    """from_dataset, open and recovery agree: warm stats by default."""

    def test_from_dataset_analyzes(self):
        assert Database.from_dataset(university()).stats.analyzed

    def test_from_dataset_opt_out(self):
        assert not Database.from_dataset(university(), analyze=False).stats.analyzed

    def test_open_snapshot_analyzes(self, db, tmp_path):
        path = tmp_path / "uni.json"
        db.save(path)
        assert Database.open(path).stats.analyzed
        assert not Database.open(path, analyze=False).stats.analyzed

    def test_recovery_analyzes(self, db, tmp_path):
        store = tmp_path / "s"
        with Database.open(store, schema=db.schema, graph=db.graph) as durable:
            durable.insert_value("GPA", 3.3)
        recovered = Database.open(store)
        assert recovered.stats.analyzed
        recovered.close()
        cold = Database.open(store, analyze=False)
        assert not cold.stats.analyzed
        cold.close()


class TestSavepoints:
    """checkpoint()/rollback() subsume snapshot()/restore()."""

    def test_rollback_to_name(self, db):
        before = len(db.query("GPA").set)
        db.checkpoint("clean")
        db.insert_value("GPA", 0.12)
        db.insert_value("GPA", 0.13)
        db.rollback("clean")
        assert len(db.query("GPA").set) == before

    def test_rollback_to_dict_snapshot(self, db):
        snap = db.snapshot()
        gpa = db.insert_value("GPA", 0.12)
        db.delete(gpa)
        db.insert_value("GPA", 0.14)
        db.rollback(snap)
        assert 0.14 not in db.query("GPA").values("GPA")

    def test_restore_preserves_analyzed_state(self, db):
        assert db.stats.analyzed
        snap = db.snapshot()
        db.insert_value("GPA", 0.5)
        db.restore(snap)
        assert db.stats.analyzed

    def test_rollback_keeps_querying_consistent(self, db):
        db.checkpoint("base")
        db.insert_value("SS#", 999)
        db.rollback("base")
        result = db.query("pi(TA * Grad * Student * Person * SS#)[SS#]")
        assert result.values("SS#") == {333, 444}

    def test_rollback_refreshes_materialized_views(self, db):
        """Regression: restore() swaps the graph — views must follow it.

        Without the registry rebind, the materialization would keep
        patterns of the pre-rollback graph (both the stale extra
        pattern and IID objects belonging to the discarded graph).
        """
        view = db.create_view("gpas", "GPA")
        db.checkpoint("clean")
        created = db.insert_value("GPA", 0.42)
        assert any(created in p for p in view.patterns)
        db.rollback("clean")
        assert not any(created in p for p in view.patterns)
        assert view.patterns == frozenset(db.query("GPA", use_cache=False).set)
        # And the maintainer tracks the *restored* graph from here on.
        later = db.insert_value("GPA", 0.43)
        assert any(later in p for p in view.patterns)
        assert view.patterns == frozenset(db.query("GPA", use_cache=False).set)

    def test_rollback_to_snapshot_refreshes_views(self, db):
        view = db.create_view("v", "TA * Grad")
        pattern = min(view.patterns, key=str)
        ta = next(i for i in pattern.vertices if i.cls == "TA")
        grad = next(i for i in pattern.vertices if i.cls == "Grad")
        snap = db.snapshot()
        db.unlink(ta, grad)
        assert pattern not in view.patterns
        db.rollback(snap)
        assert view.patterns == frozenset(
            db.query("TA * Grad", use_cache=False).set
        )
        assert len(view.patterns) == 2

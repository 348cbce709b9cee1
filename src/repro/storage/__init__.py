"""Persistence: storage engines, the write-ahead log, JSON snapshots.

The subsystem has three layers:

* :mod:`repro.storage.engine` — the pluggable :class:`StorageEngine`
  interface and its two backends (:class:`MemoryEngine`,
  :class:`FileEngine`), driven through the redesigned ``Database``
  lifecycle (:meth:`repro.engine.database.Database.open` /
  ``save`` / ``close``).
* :mod:`repro.storage.wal` — the write-ahead log: durable framing of
  the mutation-event stream, torn-tail-tolerant reading, batched fsync.
* :mod:`repro.storage.serialization` — JSON documents for schemas,
  graphs and whole-database snapshots (also the checkpoint format).

Exports resolve lazily (PEP 562): ``serialization`` imports the
``Database`` facade, which itself imports :mod:`repro.storage.engine` —
eager re-exports here would close that cycle during interpreter import.
"""

from typing import Any

__all__ = [
    # serialization
    "schema_to_dict",
    "schema_from_dict",
    "graph_to_dict",
    "graph_from_dict",
    "write_snapshot",
    "read_snapshot",
    # engines
    "StorageEngine",
    "MemoryEngine",
    "FileEngine",
    # WAL
    "WalRecord",
    "WalReader",
    "WalWriter",
    "WalInfo",
    "read_wal",
    "wal_info",
]

_HOMES = {
    "schema_to_dict": "serialization",
    "schema_from_dict": "serialization",
    "graph_to_dict": "serialization",
    "graph_from_dict": "serialization",
    "write_snapshot": "serialization",
    "read_snapshot": "serialization",
    "StorageEngine": "engine",
    "MemoryEngine": "engine",
    "FileEngine": "engine",
    "WalRecord": "wal",
    "WalReader": "wal",
    "WalWriter": "wal",
    "WalInfo": "wal",
    "read_wal": "wal",
    "wal_info": "wal",
}


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{home}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))

"""JSON serialization of schema graphs and object graphs.

The on-disk format is a single JSON document::

    {
      "format": "repro-aalgebra-v1",
      "schema": {"name": ..., "classes": [...], "associations": [...]},
      "graph":  {"instances": [...], "edges": {...}}
    }

Instances serialize as ``[class, oid, value]`` (value omitted when
``None``); edges as oriented ``[left-oid-instance, right-instance]`` pairs
grouped per association name.  Complement edges are never stored — they
are derived (§3.1), so persistence cost stays proportional to the data.

Values must be JSON-representable (the library's datasets use strings,
ints and floats, as the paper's primitive domains suggest).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.identity import IID
from repro.engine.database import Database
from repro.errors import StorageError
from repro.objects.graph import ObjectGraph
from repro.schema.graph import AssociationKind, ClassKind, SchemaGraph

__all__ = [
    "schema_to_dict",
    "schema_from_dict",
    "graph_to_dict",
    "graph_from_dict",
    "write_snapshot",
    "read_snapshot",
]

FORMAT = "repro-aalgebra-v1"


def schema_to_dict(schema: SchemaGraph) -> dict[str, Any]:
    """Serialize a schema graph to plain data."""
    return {
        "name": schema.name,
        "classes": [
            {"name": c.name, "kind": c.kind.value, "doc": c.doc}
            for c in schema.classes
        ],
        "associations": [
            {
                "left": a.left,
                "right": a.right,
                "name": a.name,
                "kind": a.kind.value,
            }
            for a in schema.associations
        ],
    }


def schema_from_dict(data: dict[str, Any]) -> SchemaGraph:
    """Rebuild a schema graph from :func:`schema_to_dict` output."""
    try:
        schema = SchemaGraph(data["name"])
        for cls in data["classes"]:
            schema.add_class(cls["name"], ClassKind(cls["kind"]), cls.get("doc", ""))
        for assoc in data["associations"]:
            schema.add_association(
                assoc["left"],
                assoc["right"],
                assoc["name"],
                AssociationKind(assoc["kind"]),
            )
    except (KeyError, ValueError) as exc:
        raise StorageError(f"malformed schema document: {exc}") from exc
    schema.validate()
    return schema


def graph_to_dict(graph: ObjectGraph) -> dict[str, Any]:
    """Serialize an object graph (instances, values, regular edges)."""
    instances = []
    for instance in sorted(graph.instances()):
        value = graph.value(instance)
        row: list[Any] = [instance.cls, instance.oid]
        if value is not None:
            row.append(value)
        instances.append(row)
    edges: dict[str, list[list[Any]]] = {}
    for assoc in graph.schema.associations:
        pairs = [
            [[a.cls, a.oid], [b.cls, b.oid]] for a, b in sorted(graph.edges(assoc))
        ]
        if pairs:
            edges[assoc.name] = pairs
    return {"instances": instances, "edges": edges}


def graph_from_dict(data: dict[str, Any], schema: SchemaGraph) -> ObjectGraph:
    """Rebuild an object graph over ``schema``."""
    graph = ObjectGraph(schema)
    try:
        for row in data["instances"]:
            cls, oid = row[0], row[1]
            value = row[2] if len(row) > 2 else None
            graph.add_instance(cls, oid, value)
        by_name = {assoc.name: assoc for assoc in schema.associations}
        for name, pairs in data["edges"].items():
            assoc = by_name.get(name)
            if assoc is None:
                raise StorageError(f"edge group references unknown association {name!r}")
            for (a_cls, a_oid), (b_cls, b_oid) in pairs:
                graph.add_edge(assoc, IID(a_cls, a_oid), IID(b_cls, b_oid))
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(f"malformed graph document: {exc}") from exc
    graph.validate()
    return graph


def write_snapshot(db: Database, path: "str | Path") -> None:
    """Write a standalone single-file JSON snapshot of ``db``.

    The mechanism behind :meth:`Database.save` for ``.json`` targets;
    user code goes through the lifecycle API instead.
    """
    document = {
        "format": FORMAT,
        "schema": schema_to_dict(db.schema),
        "graph": graph_to_dict(db.graph),
    }
    try:
        Path(path).write_text(json.dumps(document, indent=1, default=_reject))
    except TypeError as exc:
        raise StorageError(f"unserializable value in database: {exc}") from exc


def read_snapshot(path: "str | Path") -> tuple[SchemaGraph, ObjectGraph]:
    """Read a snapshot file back into ``(schema, graph)``.

    The mechanism behind :meth:`Database.open` for ``.json`` paths.
    """
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read database snapshot: {exc}") from exc
    if document.get("format") != FORMAT:
        raise StorageError(
            f"unsupported snapshot format {document.get('format')!r}"
        )
    schema = schema_from_dict(document["schema"])
    graph = graph_from_dict(document["graph"], schema)
    return schema, graph


def _reject(value: Any) -> Any:
    raise TypeError(f"value {value!r} is not JSON-serializable")

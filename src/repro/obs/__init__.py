"""Observability: span-tree tracing, metrics, exporters, EXPLAIN ANALYZE.

Four layers, all engine-agnostic and dependency-free:

* :mod:`repro.obs.span` — :class:`Tracer`/:class:`Span` trees mirroring
  expression trees, each span carrying a structured :class:`OperatorKind`,
  cardinalities, wall time and attributes;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms, instrumented across the engine
  facade, optimizer, rule engine and object graph;
* :mod:`repro.obs.export` / :mod:`repro.obs.explain` — JSON-lines and
  Chrome ``trace_event`` span exports (plus :func:`spans_from_wire`, the
  inverse used for cross-process trace stitching), Prometheus text
  exposition, and :func:`explain_analyze` estimate-vs-actual plan
  reports;
* :mod:`repro.obs.events` — :class:`EventLog`, a bounded thread-safe
  ring of typed JSON events (the operational journal the query service
  writes), and :class:`SlowQueryLog` for slow-query capture records.

Quickstart::

    from repro import Database, ref
    from repro.datasets import university
    from repro.obs import Tracer, spans_to_tree

    db = Database.from_dataset(university())
    tracer = Tracer()
    db.query(ref("TA") * ref("Grad"), trace=tracer)
    print(spans_to_tree(tracer))
    print(db.explain_analyze("pi(TA * Grad)[TA]"))

See ``docs/observability.md`` for the span model, the metric inventory
and the ``repro trace`` / ``repro metrics`` CLI subcommands.
"""

from repro.obs.events import Event, EventLog, SlowQueryLog, events_to_jsonl
from repro.obs.explain import ExplainNode, ExplainReport, explain_analyze
from repro.obs.export import (
    metrics_to_json,
    metrics_to_prometheus,
    spans_from_wire,
    spans_to_chrome_trace,
    spans_to_jsonl,
    spans_to_tree,
)
from repro.obs.metrics import (
    CARDINALITY_BUCKETS,
    Q_ERROR_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.span import OperatorKind, Span, Tracer

__all__ = [
    "OperatorKind",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "CARDINALITY_BUCKETS",
    "Q_ERROR_BUCKETS",
    "Event",
    "EventLog",
    "SlowQueryLog",
    "events_to_jsonl",
    "spans_to_tree",
    "spans_to_jsonl",
    "spans_to_chrome_trace",
    "spans_from_wire",
    "metrics_to_prometheus",
    "metrics_to_json",
    "ExplainNode",
    "ExplainReport",
    "explain_analyze",
]

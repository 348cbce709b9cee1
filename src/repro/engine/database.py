"""The Database facade.

Glues the subsystems together the way a user of the reproduced system would
see them: one object owning a schema graph, an object graph, a computed-
value function registry, a mutation-event stream (consumed by the knowledge
rule engine and the physical executor), and one query entry point:

* :meth:`Database.query` — evaluate an algebra :class:`Expr` (or OQL text)
  through the physical execution engine (:mod:`repro.exec`) and get a
  :class:`QueryResult` bundling the association-set with the accessors the
  paper's queries end with (instances of a class, primitive values of a
  class) and, on request, an EXPLAIN ANALYZE report.

The DML methods (:meth:`insert`, :meth:`link`, ...) delegate to the object
graph and emit :class:`MutationEvent`\\ s so rules can react — the paper's
OSAM* context pairs the algebra with a rule-specification language.  The
same events keep the executor's indexes and sub-plan cache fresh.

Every database owns a :class:`~repro.obs.metrics.MetricsRegistry` (shared
with its object graph, executor and any attached rule engine): queries run,
query latency, mutation events by kind and plan-cache traffic are recorded
automatically; export with :func:`repro.obs.export.metrics_to_prometheus`.

Persistence is a lifecycle, not a pair of free functions: every database
owns a :class:`~repro.storage.engine.StorageEngine` (an in-process
:class:`~repro.storage.engine.MemoryEngine` unless told otherwise) and
the same :class:`MutationEvent` stream that keeps the arena, indexes and
statistics fresh doubles as the engine's write-ahead-log record format.
:meth:`Database.open` is the one entry point — a storage directory gets
the durable :class:`~repro.storage.engine.FileEngine` with WAL + crash
recovery, a ``.json`` path gets classic single-file snapshots, no path
gets pure memory — and :meth:`save`, :meth:`close` and ``with`` blocks
round out the lifecycle.  See :doc:`docs/storage.md <storage>`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.assoc_set import AssociationSet
from repro.core.expression import Expr
from repro.core.identity import IID
from repro.core.predicates import FunctionRegistry
from repro.errors import EvaluationError, StorageError
from repro.exec.executor import Executor
from repro.objects.builder import GraphBuilder
from repro.objects.graph import ObjectGraph
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer
from repro.optimizer.stats import StatisticsCatalog
from repro.schema.graph import SchemaGraph
from repro.storage.engine import FileEngine, MemoryEngine, StorageEngine
from repro.views.registry import MaterializedView, ViewRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.wal import WalRecord

__all__ = ["Database", "MutationEvent", "QueryResult"]


@dataclass(frozen=True)
class MutationEvent:
    """A change to the extensional database, delivered to listeners.

    ``kind`` is one of ``"insert"``, ``"delete"``, ``"link"``, ``"unlink"``,
    ``"update"``.  ``value`` carries the inserted/updated primitive value
    so the event is self-contained — a storage engine can write it as a
    WAL record and recovery can replay it without consulting the (gone)
    graph state.
    """

    kind: str
    instances: tuple[IID, ...]
    association: str | None = None
    value: Any = None


class QueryResult:
    """The result of one :meth:`Database.query` call.

    Wraps the :class:`~repro.core.assoc_set.AssociationSet` (``.set``,
    also reachable by iterating or ``len()``) together with the accessors
    the paper's usage model ends queries with — the instances of one
    class across the result patterns, or their primitive values — and
    the :class:`~repro.obs.explain.ExplainReport` when the query ran
    with ``explain=True``.
    """

    def __init__(
        self,
        result: AssociationSet,
        database: "Database",
        expr: Expr,
        report: Any = None,
        strategy: str | None = None,
        plan_expr: Expr | None = None,
    ) -> None:
        #: The association-set the query produced.
        self.set = result
        #: The (compiled) expression that was evaluated.
        self.expr = expr
        #: The EXPLAIN ANALYZE report (``explain=True`` only), else None.
        self.report = report
        #: Root physical strategy the plan ran under (``"explain"`` when
        #: the query ran under EXPLAIN ANALYZE).
        self.strategy = strategy
        #: The (possibly rewritten) expression that actually executed —
        #: differs from ``expr`` when the planner's rule pass pushed a σ
        #: or Π below an Associate.
        self.plan_expr = plan_expr if plan_expr is not None else expr
        self._database = database

    def instances(self, cls: str) -> frozenset[IID]:
        """The instances of ``cls`` occurring in the result patterns."""
        out: set[IID] = set()
        for pattern in self.set:
            out |= pattern.instances_of(cls)
        return frozenset(out)

    def values(self, cls: str) -> set[Any]:
        """The primitive values carried by the result's ``cls`` instances.

        The "retrieval" step the paper's queries end with: Query 1 asks
        for social security *numbers*, so after ``Π(...)[SS#]`` one reads
        the values off the SS# instances.
        """
        graph = self._database.graph
        return {graph.value(i) for i in self.instances(cls)}

    def __iter__(self):
        return iter(self.set)

    def __len__(self) -> int:
        return len(self.set)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self.set

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryResult):
            return other.set == self.set
        if isinstance(other, AssociationSet):
            return other == self.set
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.set)

    def __str__(self) -> str:
        return f"QueryResult({len(self.set)} pattern(s) for {self.expr})"


class Database:
    """One A-algebra database: schema + objects + query + events."""

    def __init__(
        self,
        schema: SchemaGraph,
        graph: ObjectGraph | None = None,
        functions: FunctionRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        engine: StorageEngine | None = None,
    ) -> None:
        self.schema = schema
        self.graph = graph if graph is not None else ObjectGraph(schema)
        self.functions = functions if functions is not None else FunctionRegistry()
        self.builder = GraphBuilder(schema, self.graph)
        self._listeners: list[Callable[[Database, MutationEvent], None]] = []
        #: Serializes mutations (and checkpoint capture) across threads;
        #: the storage engine's background checkpointer takes it so the
        #: (graph state, WAL position) pair it writes is consistent.
        self.write_lock = threading.RLock()
        self._closed = False
        #: Where :meth:`save` rewrites the legacy single-file snapshot
        #: (set by :meth:`open` on a ``.json`` path, or by ``save(path)``).
        self._snapshot_path: Path | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Structured operational journal (mutation batches, plan-cache
        #: invalidations, stats refreshes); the query service
        #: passes its own shared ring so engine events interleave with
        #: request events in one stream.
        self.events = (
            events if events is not None else EventLog(metrics=self.metrics)
        )
        self._m_queries = self.metrics.counter(
            "repro_queries_total", "Queries evaluated through Database.query"
        )
        self._m_query_seconds = self.metrics.histogram(
            "repro_query_seconds",
            "Wall-clock seconds per evaluated query, by root plan strategy",
        )
        self._m_events = self.metrics.counter(
            "repro_mutation_events_total", "Mutation events emitted, by kind"
        )
        self.graph.attach_metrics(self.metrics)
        # Measured statistics for EXPLAIN estimates and distributed
        # planning; dormant (uniform assumptions apply) until analyze().
        self.stats = StatisticsCatalog(self.graph, self.metrics)
        # The physical execution engine; creating it here also registers
        # its cache hit/miss/invalidation counters so they are present in
        # metrics exports from the first scrape.
        self.executor = Executor(self.graph, self.metrics, stats=self.stats)
        # Every stats refresh lands in the event journal.
        self.stats.subscribe(self._on_stats_refresh)
        #: Materialized views, maintained incrementally off the mutation
        #: event stream; created before the engine attaches so checkpoint
        #: documents written during initialization can include view
        #: definitions.
        self.views = ViewRegistry(self)
        #: Worker pool for sharded scatter-gather execution (created on
        #: demand by ``query(shards=N)`` or explicitly by
        #: :meth:`start_shards`); ``default_shards`` makes every query
        #: consider sharding without per-call opt-in.
        self._shard_pool = None
        self._sharded_exec = None
        self.default_shards: int | None = None
        #: The storage backend consuming this database's mutation events.
        self.engine = engine if engine is not None else MemoryEngine()
        self.engine.attach(self)

    @classmethod
    def from_dataset(cls, dataset: Any, *, analyze: bool = True) -> "Database":
        """Wrap any dataset object exposing ``.schema`` and ``.graph``.

        The statistics catalog is analyzed up front (``analyze=False``
        opts out), matching :meth:`open` — every construction path leaves
        stats warm so EXPLAIN estimates and distributed planning are
        measured, not assumed, from the first query.
        """
        db = cls(dataset.schema, dataset.graph)
        if analyze:
            db.analyze()
        return db

    # ------------------------------------------------------------------
    # lifecycle: open / save / close
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: "str | Path | None" = None,
        *,
        engine: StorageEngine | None = None,
        schema: SchemaGraph | None = None,
        graph: ObjectGraph | None = None,
        create: bool = True,
        analyze: bool = True,
        functions: FunctionRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        sync: str = "batch",
        checkpoint_interval: int = 1024,
    ) -> "Database":
        """Open a database over a storage backend.  The one entry point:

        * ``path`` is a directory (or absent and about to be created as
          one) — the durable :class:`~repro.storage.engine.FileEngine`:
          an existing store is recovered (checkpoint + WAL-tail replay),
          a fresh one is created (requires ``schema``; ``create=False``
          forbids creation).  ``sync`` and ``checkpoint_interval`` tune
          its durability/compaction knobs.
        * ``path`` is a ``.json`` file — the classic single-file
          snapshot: loaded into a :class:`MemoryEngine` database that
          remembers the path, so :meth:`save` rewrites it.
        * ``path`` is ``None`` — pure in-memory database over ``schema``
          (which is then required).

        Pass ``engine=`` to supply a configured backend explicitly (also
        accepted positionally); the path heuristics are skipped.
        ``graph`` seeds a *freshly created* store with existing data
        (``repro init`` uses this to load a dataset into a new
        directory).  ``analyze=False`` leaves the stats catalog lazy
        instead of warming it on open.  Works as a context manager:
        ``with Database.open(...) as db: ...`` closes on exit.
        """
        if isinstance(path, StorageEngine):
            # Convenience: a configured engine may be passed positionally.
            engine, path = path, None
        if engine is None:
            if path is None:
                engine = MemoryEngine()
            else:
                p = Path(path)
                if p.is_file() or (not p.exists() and p.suffix == ".json"):
                    return cls._open_snapshot(
                        p,
                        schema=schema,
                        graph=graph,
                        create=create,
                        analyze=analyze,
                        functions=functions,
                        metrics=metrics,
                        events=events,
                    )
                else:
                    engine = FileEngine(
                        p,
                        create=create,
                        sync=sync,
                        checkpoint_interval=checkpoint_interval,
                    )
        if isinstance(engine, FileEngine):
            return cls._open_store(
                engine,
                schema=schema,
                graph=graph,
                analyze=analyze,
                functions=functions,
                metrics=metrics,
                events=events,
            )
        if schema is None:
            raise StorageError("opening an in-memory database requires a schema")
        db = cls(
            schema,
            graph,
            functions=functions,
            metrics=metrics,
            events=events,
            engine=engine,
        )
        if analyze:
            db.analyze()
        return db

    @classmethod
    def _open_store(
        cls,
        engine: FileEngine,
        *,
        schema: SchemaGraph | None,
        graph: ObjectGraph | None,
        analyze: bool,
        functions: FunctionRegistry | None,
        metrics: MetricsRegistry | None,
        events: EventLog | None,
    ) -> "Database":
        """Open (recover or create) a durable ``FileEngine`` store."""
        from repro.storage.serialization import graph_from_dict, schema_from_dict

        state = engine.open_store()
        if state is None:
            if schema is None:
                raise StorageError(
                    f"creating a new store at {engine.dir} requires a schema"
                )
            db = cls(
                schema,
                graph,
                functions=functions,
                metrics=metrics,
                events=events,
                engine=engine,
            )
            engine.initialize(db)
        else:
            stored_schema = schema_from_dict(state.document["schema"])
            graph = graph_from_dict(state.document["graph"], stored_schema)
            engine.begin_recovery()
            try:
                db = cls(
                    stored_schema,
                    graph,
                    functions=functions,
                    metrics=metrics,
                    events=events,
                    engine=engine,
                )
                # Analyze *before* replaying, mirroring the live timeline
                # (the checkpoint captured an analyzed database): replayed
                # events then drive the same incremental stats maintenance
                # the original mutations did.
                if analyze:
                    db.analyze()
                # Rebuild view definitions before replaying so replayed
                # mutations maintain the materializations incrementally,
                # exactly as the original mutations did.
                db.views.load_definitions(state.document.get("views", ()))
                for record in state.records:
                    db._apply_record(record)
            finally:
                engine.end_recovery()
            db.events.emit(
                "recovery.replay",
                records=len(state.records),
                torn_bytes=state.torn_bytes,
                last_seq=engine.last_seq,
                path=str(engine.dir),
            )
            return db
        if analyze:
            db.analyze()
        return db

    @classmethod
    def _open_snapshot(
        cls,
        path: Path,
        *,
        schema: SchemaGraph | None,
        graph: ObjectGraph | None,
        create: bool,
        analyze: bool,
        functions: FunctionRegistry | None,
        metrics: MetricsRegistry | None,
        events: EventLog | None,
    ) -> "Database":
        """Open a legacy single-file JSON snapshot (memory engine)."""
        from repro.storage.serialization import read_snapshot

        if path.is_file():
            loaded_schema, loaded_graph = read_snapshot(path)
            db = cls(
                loaded_schema,
                loaded_graph,
                functions=functions,
                metrics=metrics,
                events=events,
            )
        else:
            if not create:
                raise StorageError(f"no snapshot at {path} (create=False)")
            if schema is None:
                raise StorageError(
                    f"creating a new snapshot at {path} requires a schema"
                )
            db = cls(
                schema,
                graph,
                functions=functions,
                metrics=metrics,
                events=events,
            )
        db._snapshot_path = path
        if analyze:
            db.analyze()
        return db

    def save(self, path: "str | Path | None" = None) -> None:
        """Persist the current state.

        With a durable engine and no ``path``: a checkpoint (WAL
        compaction included).  With ``path``: a standalone single-file
        JSON snapshot is exported there (any engine), and a memory-engine
        database remembers the path for future bare ``save()`` calls.
        """
        if path is None and self.engine.durable:
            self.engine.checkpoint(reason="save")
            return
        target = Path(path) if path is not None else self._snapshot_path
        if target is None:
            raise StorageError(
                "save() needs a path: in-memory database with no snapshot file"
            )
        from repro.storage.serialization import write_snapshot

        with self.write_lock:
            write_snapshot(self, target)
        if not self.engine.durable:
            self._snapshot_path = target

    def close(self) -> None:
        """Flush and close the storage engine; further mutations error.

        A durable engine checkpoints its dirty tail (unless configured
        not to) and releases the WAL.  Queries over the in-memory state
        keep working — ``close`` ends the *persistence* lifecycle.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.stop_shards()
        self.engine.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def describe_storage(self) -> dict[str, Any]:
        """Operational summary of the storage engine (admin surface)."""
        out = self.engine.describe()
        out["closed"] = self._closed
        if self._snapshot_path is not None:
            out["snapshot_path"] = str(self._snapshot_path)
        return out

    # ------------------------------------------------------------------
    # sharded execution
    # ------------------------------------------------------------------

    def start_shards(self, shards: int) -> None:
        """Start (or resize) the scatter-gather worker pool.

        ``query(shards=N)`` does this lazily on first use; starting the
        pool up front moves the dataset-shipping cost out of the first
        sharded query.  Also sets :attr:`default_shards` so subsequent
        queries consider sharding without a per-call argument.
        """
        self._ensure_shard_pool(shards)
        self.default_shards = shards

    @property
    def shard_workers(self) -> int:
        """Active shard-pool size (0 when sharded execution is off)."""
        if self._shard_pool is not None and not self._shard_pool.closed:
            return self._shard_pool.shards
        return 0

    def stop_shards(self) -> None:
        """Stop the worker pool, if one is running (idempotent).

        Also clears :attr:`default_shards` — a later ``query()`` without
        an explicit ``shards=`` must not silently restart the pool.
        """
        pool, self._shard_pool = self._shard_pool, None
        self._sharded_exec = None
        self.default_shards = None
        if pool is not None:
            pool.stop()

    def _ensure_shard_pool(self, shards: int):
        pool = self._shard_pool
        if pool is not None and not pool.closed and pool.shards == shards:
            return pool
        from repro.shard import ShardPool

        # Under the write lock: the pool snapshots the graph, and every
        # mutation from here on reaches it through event forwarding — a
        # concurrent writer must land in exactly one of the two.
        with self.write_lock:
            self.stop_shards()
            pool = ShardPool(
                self.schema,
                self.graph,
                shards,
                metrics=self.metrics,
                events=self.events,
            )
            self._shard_pool = pool
        return pool

    def _sharded_executor(self, pool):
        if self._sharded_exec is None or self._sharded_exec.pool is not pool:
            from repro.shard import ShardedExecutor

            self._sharded_exec = ShardedExecutor(
                self.graph, pool, self.executor, self.metrics
            )
        return self._sharded_exec

    def _dist_plan(self, expr: Expr, shards: int, force_strategy: str | None):
        from repro.shard import DistPlanner

        stats = self.stats if self.stats.analyzed else None
        return DistPlanner(self.graph, stats).plan(
            expr, shards, force_strategy=force_strategy
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def analyze(
        self,
        sample: int | None = None,
        classes: Iterable[str] | None = None,
        seed: int = 0,
    ) -> StatisticsCatalog:
        """ANALYZE: scan the graph and refresh the statistics catalog.

        ``sample=N`` caps the number of values/fan-outs scanned per class
        or association (deterministic under ``seed``); ``classes``
        restricts the pass.  After the first call the cost model switches
        from uniformity assumptions to measured histograms and fan-out
        distributions, and the catalog keeps itself fresh from mutation
        events.  Returns the catalog (see
        :meth:`~repro.optimizer.stats.StatisticsCatalog.summary`).
        """
        self.stats.analyze(sample=sample, seed=seed, classes=classes)
        return self.stats

    def _on_stats_refresh(self, classes: frozenset) -> None:
        self.events.emit(
            "stats.refresh", version=self.stats.version, classes=sorted(classes)
        )

    def _cost_model(self):
        """The cost model EXPLAIN estimates with (uniform until analyzed)."""
        from repro.optimizer.cost import CostModel

        return CostModel(self.graph, stats=self.stats)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(
        self,
        q: "Expr | str",
        *,
        trace: Tracer | None = None,
        explain: bool = False,
        use_cache: bool = True,
        shards: int | None = None,
        shard_strategy: str | None = None,
    ) -> QueryResult:
        """Evaluate a query through the physical execution engine.

        ``q`` is an algebra :class:`Expr` or OQL text (compiled on the
        fly).  ``trace`` accepts any :class:`~repro.obs.span.Tracer` to
        record the evaluation's span tree.  ``use_cache=False`` bypasses
        the sub-plan cache (reads *and* writes).  With ``explain=True`` the
        evaluation runs under EXPLAIN ANALYZE — the report lands on
        ``QueryResult.report``, the cache is bypassed so every plan node
        truly executes, and ``trace`` is ignored (the report owns the
        span tree).

        With ``shards=N`` (N ≥ 2; defaults to :attr:`default_shards`) the
        distributed planner looks for a hash partitioning that moves work
        onto the scatter-gather worker pool — queries it cannot
        distribute (or cannot ship) silently run single-process, so the
        argument is always safe to pass.  ``shard_strategy`` pins a
        distributed strategy (``"co-partitioned"``/``"broadcast"``/
        ``"shuffle"``): plans not employing it are rejected, which the
        equivalence tests use to cover each code path.

        Latency is observed in the ``repro_query_seconds`` histogram
        labelled with the plan's root strategy (``strategy="explain"``
        for EXPLAIN ANALYZE runs, whose latency is not comparable).
        """
        expr = self._coerce_expr(q, "evaluate")
        started = time.perf_counter()
        report = None
        plan_expr = expr
        n_shards = shards if shards is not None else self.default_shards
        if explain:
            strategy = "explain"
            report = self._explain_report(expr, n_shards, shard_strategy)
            result = report.result
            if report.expr is not None:
                plan_expr = report.expr
        else:
            dist_plan = None
            if n_shards is not None and n_shards > 1:
                dist_plan = self._dist_plan(expr, n_shards, shard_strategy)
            if dist_plan is not None:
                strategy = "sharded"
                pool = self._ensure_shard_pool(n_shards)
                result = self._sharded_executor(pool).run(
                    dist_plan, trace=trace, use_cache=use_cache
                )
            else:
                plan = self.executor.plan(expr)
                strategy = plan.strategy
                plan_expr = plan.expr
                result = self.executor.run(
                    plan_expr, trace=trace, use_cache=use_cache, plan=plan
                )
        self._m_queries.inc()
        self._m_query_seconds.observe(
            time.perf_counter() - started, strategy=strategy
        )
        return QueryResult(
            result, self, expr, report, strategy=strategy, plan_expr=plan_expr
        )

    def _explain_report(
        self, expr: Expr, n_shards: int | None, shard_strategy: str | None
    ):
        """EXPLAIN ANALYZE through whichever engine would run the query."""
        if n_shards is not None and n_shards > 1:
            dist_plan = self._dist_plan(expr, n_shards, shard_strategy)
            if dist_plan is not None:
                pool = self._ensure_shard_pool(n_shards)
                return self._sharded_executor(pool).explain(
                    dist_plan, self._cost_model(), self.metrics
                )
        from repro.obs.explain import explain_analyze

        return explain_analyze(
            expr,
            self.graph,
            cost_model=self._cost_model(),
            metrics=self.metrics,
            executor=self.executor,
        )

    def explain_analyze(self, query: "Expr | str") -> "Any":
        """EXPLAIN ANALYZE: evaluate with tracing and annotate the plan.

        Returns an :class:`~repro.obs.explain.ExplainReport` whose
        ``str()`` renders the plan tree with estimated vs actual
        cardinalities, per-node timing, q-errors and the physical
        strategy chosen per node; node q-errors are also observed in this
        database's ``repro_estimate_q_error`` histogram so cost-model
        accuracy accumulates across queries.
        """
        return self.query(self._coerce_expr(query, "explain"), explain=True).report

    def compile(self, text: str) -> Expr:
        """Compile OQL text to an algebra expression (lazy import)."""
        from repro.oql import compile_oql

        return compile_oql(text, self.schema, self.functions)

    def _coerce_expr(self, query: "Expr | str", verb: str) -> Expr:
        """OQL text → compiled Expr; an Expr passes through; else error."""
        expr = self.compile(query) if isinstance(query, str) else query
        if not isinstance(expr, Expr):
            raise EvaluationError(f"cannot {verb} {query!r}")
        return expr

    def extent(self, cls: str) -> AssociationSet:
        """The extent of a class as an association-set of Inner-patterns."""
        return AssociationSet.of_inners(self.graph.extent(cls))

    # ------------------------------------------------------------------
    # DML with event emission
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[["Database", MutationEvent], None]) -> None:
        """Register a mutation listener (the rule engine uses this)."""
        self._listeners.append(listener)

    def _emit(self, event: MutationEvent, pre_version: int | None = None) -> None:
        self._m_events.inc(kind=event.kind)
        # The storage engine first: the WAL must hold the record before
        # derived state reflects it (during recovery the engine skips the
        # append — the records are already on disk).
        self.engine.append(event)
        # Executor next: its indexes and cache must be consistent before
        # any listener (e.g. a rule) runs a query in reaction to the event.
        invalidated = self.executor.on_mutation(event, pre_version)
        # Views next: materializations must be fresh before any listener
        # (or a subscription push) observes the post-mutation state.
        # ``pre_version`` is the graph version the DML method saw before
        # mutating — the registry's out-of-band write guard.
        self.views.on_mutation(event, pre_version)
        # Shard replicas next: buffered here, shipped (FIFO, before any
        # query) on the next scatter — workers replay through the same
        # WAL-record path recovery uses.
        if self._shard_pool is not None and not self._shard_pool.closed:
            self._shard_pool.buffer_event(event)
        self.events.emit(
            "mutation",
            kind=event.kind,
            instances=len(event.instances),
            association=event.association,
        )
        if invalidated:
            self.events.emit(
                "plan_cache.invalidate",
                entries=invalidated,
                classes=sorted({i.cls for i in event.instances}),
            )
        for listener in self._listeners:
            listener(self, event)

    def _writable(self) -> None:
        if self._closed:
            raise StorageError("database is closed; no further mutations")

    def insert(
        self, classes: "Iterable[str] | str", value: Any = None
    ) -> dict[str, IID]:
        """Insert a new object participating in ``classes``."""
        with self.write_lock:
            self._writable()
            pre_version = self.graph.version
            created = self.builder.add_object(classes, value=value)
            self._emit(
                MutationEvent("insert", tuple(created.values()), value=value),
                pre_version,
            )
        return created

    def insert_value(self, cls: str, value: Any) -> IID:
        """Insert a primitive-class instance carrying ``value``."""
        with self.write_lock:
            self._writable()
            pre_version = self.graph.version
            instance = self.builder.add_value(cls, value)
            self._emit(MutationEvent("insert", (instance,), value=value), pre_version)
        return instance

    def link(self, a: IID, b: IID, assoc_name: str | None = None) -> None:
        """Associate two instances (emits a ``link`` event)."""
        with self.write_lock:
            self._writable()
            assoc = self.schema.resolve(a.cls, b.cls, assoc_name)
            pre_version = self.graph.version
            self.graph.add_edge(assoc, a, b)
            self._emit(MutationEvent("link", (a, b), assoc.name), pre_version)

    def unlink(self, a: IID, b: IID, assoc_name: str | None = None) -> None:
        """Remove the association between two instances."""
        with self.write_lock:
            self._writable()
            assoc = self.schema.resolve(a.cls, b.cls, assoc_name)
            pre_version = self.graph.version
            self.graph.remove_edge(assoc, a, b)
            self._emit(MutationEvent("unlink", (a, b), assoc.name), pre_version)

    def delete(self, instance: IID) -> None:
        """Delete one instance (and its incident edges)."""
        with self.write_lock:
            self._writable()
            pre_version = self.graph.version
            self.graph.remove_instance(instance)
            self._emit(MutationEvent("delete", (instance,)), pre_version)

    def update_value(self, instance: IID, value: Any) -> None:
        """Change the value carried by a primitive instance."""
        with self.write_lock:
            self._writable()
            pre_version = self.graph.version
            self.graph.set_value(instance, value)
            self._emit(MutationEvent("update", (instance,), value=value), pre_version)

    def _apply_record(self, record: "WalRecord") -> None:
        """Re-apply one WAL record during recovery.

        The mutation goes through the same graph operations and the same
        :meth:`_emit` path the original process used (the engine skips
        re-appending), so the arena, indexes and statistics catalog come
        back exactly as incremental maintenance would have left them.
        """
        kind = record.kind
        pre_version = self.graph.version
        if kind == "insert":
            # All instances of one insert share one object OID; pinning
            # it through the builder also recreates the is-a edges.
            self.builder.add_object(
                [i.cls for i in record.instances],
                oid=record.instances[0].oid,
                value=record.value,
            )
            self._emit(
                MutationEvent("insert", record.instances, value=record.value),
                pre_version,
            )
        elif kind == "delete":
            (instance,) = record.instances
            self.graph.remove_instance(instance)
            self._emit(MutationEvent("delete", (instance,)), pre_version)
        elif kind in ("link", "unlink"):
            a, b = record.instances
            assoc = self.schema.resolve(a.cls, b.cls, record.association)
            if kind == "link":
                self.graph.add_edge(assoc, a, b)
            else:
                self.graph.remove_edge(assoc, a, b)
            self._emit(MutationEvent(kind, (a, b), assoc.name), pre_version)
        elif kind == "update":
            (instance,) = record.instances
            self.graph.set_value(instance, record.value)
            self._emit(
                MutationEvent("update", (instance,), value=record.value), pre_version
            )
        else:
            raise StorageError(f"unknown WAL record kind {record.kind!r}")

    # ------------------------------------------------------------------
    # query-driven bulk operations (§2's "system-defined operations")
    # ------------------------------------------------------------------

    def delete_where(self, query: "Expr | str", cls: str) -> int:
        """Delete every ``cls`` instance selected by the pattern query.

        Returns the number of instances deleted.  Incident edges go with
        them; each deletion emits its event (rules see every one).
        """
        instances = self.query(self._coerce_expr(query, "delete by")).instances(cls)
        for instance in sorted(instances):
            self.delete(instance)
        return len(instances)

    def update_where(
        self,
        query: "Expr | str",
        cls: str,
        transform: Callable[[Any], Any],
    ) -> int:
        """Rewrite the value of every selected ``cls`` instance.

        ``transform`` maps old value → new value.  Returns the number of
        instances updated.
        """
        instances = self.query(self._coerce_expr(query, "update by")).instances(cls)
        for instance in sorted(instances):
            self.update_value(instance, transform(self.graph.value(instance)))
        return len(instances)

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------

    def create_view(self, name: str, query: "Expr | str") -> MaterializedView:
        """Register a named materialized view over an algebra expression.

        ``query`` may be OQL text (compiled against this schema) or an
        :class:`Expr`.  The view materializes immediately and is then
        maintained incrementally off the mutation-event stream; its
        definition rides in durable checkpoints and is rebuilt on
        recovery.  Definitions must serialize — views over literal
        association-sets or opaque callback predicates are rejected.
        """
        with self.write_lock:
            self._writable()
            view = self.views.create(name, self._coerce_expr(query, "materialize"))
            if self.engine.durable:
                # View DDL rides only in checkpoint documents (the WAL
                # holds DML); anchor one now so the definition survives.
                self.engine.checkpoint(reason="view-ddl")
        return view

    def drop_view(self, name: str) -> None:
        """Remove a materialized view by name."""
        with self.write_lock:
            self._writable()
            self.views.drop(name)
            if self.engine.durable:
                self.engine.checkpoint(reason="view-ddl")

    def refresh_view(self, name: str) -> frozenset:
        """Fully recompute one view; returns its new materialization."""
        with self.write_lock:
            return self.views.refresh(name)

    def view(self, name: str) -> MaterializedView:
        """The registered view named ``name``."""
        return self.views.get(name)

    # ------------------------------------------------------------------
    # savepoints: checkpoints + rollback (poor-man's transactions)
    # ------------------------------------------------------------------
    #
    # One code path, two flavors.  `checkpoint(name)` / `rollback(name)`
    # are the named savepoints the storage engine keeps (durable files
    # under a FileEngine, in-process documents under a MemoryEngine);
    # `snapshot()` / `restore(dict)` are the anonymous flavor, where the
    # caller holds the captured document.  `rollback` accepts either a
    # checkpoint name or a snapshot dict and both funnel into `restore`.

    def checkpoint(self, name: str | None = None) -> str:
        """Capture the current state as a named savepoint; returns the name.

        Under a durable engine this writes a checkpoint document and
        compacts the WAL (the same operation the background compactor
        runs); under the memory engine it keeps the document in process.
        Either way :meth:`rollback` by the returned name restores it.
        An omitted ``name`` still checkpoints (auto-named) — useful as
        "flush + compact now" on a durable store.
        """
        with self.write_lock:
            return self.engine.checkpoint(name=name, reason="api")

    def rollback(self, to: "str | dict") -> None:
        """Roll the extensional state back to a savepoint.

        ``to`` is a checkpoint name (see :meth:`checkpoint`) or an
        anonymous snapshot dict (see :meth:`snapshot`).  Emits no
        mutation events — a rollback is not new information for rules to
        react to.
        """
        document = to if isinstance(to, dict) else self.engine.load_checkpoint(to)
        self.restore(document)

    def snapshot(self) -> dict:
        """Capture the current extensional state (instances + edges).

        The anonymous flavor of :meth:`checkpoint`: the returned dict is
        the same graph document a checkpoint stores, held by the caller
        instead of the engine.  The schema is not part of the snapshot —
        DDL is assumed settled.
        """
        from repro.storage.serialization import graph_to_dict

        with self.write_lock:
            return graph_to_dict(self.graph)

    def restore(self, snapshot: dict) -> None:
        """Replace the object graph with a previously captured snapshot.

        The underlying operation of :meth:`rollback`.  Emits no mutation
        events (a rollback is not new information for rules to react
        to); under a durable engine the restored state is immediately
        re-anchored with a fresh checkpoint so crash recovery agrees
        with what this process now sees.
        """
        from repro.storage.serialization import graph_from_dict

        with self.write_lock:
            self._writable()
            # Worker replicas track the graph through mutation events; a
            # wholesale replacement emits none, so the pool is stale —
            # stop it (the next sharded query restarts from the restored
            # state).
            self.stop_shards()
            self.graph = graph_from_dict(snapshot, self.schema)
            self.builder = GraphBuilder(self.schema, self.graph)
            self.graph.attach_metrics(self.metrics)
            # The executor's indexes, cache and statistics described the
            # replaced graph; rebuild against the restored one (re-analyzing
            # if the old catalog was live, so plan quality survives rollback).
            was_analyzed = self.stats.analyzed
            self.stats = StatisticsCatalog(self.graph, self.metrics)
            self.executor = Executor(self.graph, self.metrics, stats=self.stats)
            self.stats.subscribe(self._on_stats_refresh)
            if was_analyzed:
                self.stats.analyze(reason="restore")
            # View materializations described the replaced graph (rollback
            # emits no mutation events, so delta maintenance never saw the
            # state change): re-attach and rebuild them.
            self.views.rebind()
            if self.engine.durable:
                # The WAL tail describes the pre-rollback history; anchor
                # recovery at the restored state instead.
                self.engine.checkpoint(reason="rollback")

    def __str__(self) -> str:
        return f"Database({self.schema.name!r}, {self.graph})"

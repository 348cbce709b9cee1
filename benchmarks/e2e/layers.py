"""Per-layer numbers of the traced run.

Two passes, both recorded as spans by this harness around the calls into
each layer — nothing inside ``src/`` is edited:

* :func:`wire_metrics` reads the spans of the wire pass (``client.request``
  > ``client.rpc`` > server-reported ``server.queue_wait``/``server.engine``)
  and the growth of the server's own counters over that pass;
* :func:`in_process_pass` opens a second store in this process and times
  each layer's public entry points per distinct request.

Layer = ``src/repro/<module>``; a metric is named ``<module>.<what>``.
A metric is a ``(value, unit, samples)`` triple.
"""

from __future__ import annotations

import shutil
import socket
import statistics
import time
from pathlib import Path
from typing import Any

import loadgen
from measure import Tracer, counter_delta, median_time_ms, self_times

from repro.core.identity import IID
from repro.engine.database import Database
from repro.optimizer.planner import Optimizer
from repro.oql import compile_oql
from repro.server.protocol import encode_frame, recv_frame

__all__ = ["in_process_pass", "wire_metrics"]

Metric = tuple[float, str, int]

#: Mutations timed in-process for ``engine.mutate_ms`` and the WAL sizes.
MUTATIONS = 64
#: ``ServerConfig.page_size`` default: patterns per response frame.
PAGE_SIZE = 500


def wire_metrics(
    tracer: Tracer,
    before: dict[str, float],
    after: dict[str, float],
    *,
    strategies: list[str],
    write_ms: list[float],
    notifications: int,
    ping_ms: list[float],
) -> dict[str, Metric]:
    """The ``W`` rows of the README's catalogue, from the wire pass."""
    own = self_times(tracer.spans)
    # Per read request: client-side self time (= latency minus what the
    # server says it spent queued and inside Database.query) and rpc count.
    overhead: dict[int, float] = {}
    rpcs: dict[int, int] = {}
    for span in tracer.spans:
        if span.name == "client.request" and span.attrs["op"] == "query":
            overhead[span.request] = own[span.id]
            rpcs[span.request] = 0
        elif span.name == "client.rpc" and span.request in overhead:
            overhead[span.request] += own[span.id]
            rpcs[span.request] += 1
    engine = [s.ms for s in tracer.spans if s.name == "server.engine"]
    queued = [s.ms for s in tracer.spans if s.name == "server.queue_wait"]
    reads, mutations = len(overhead), len(write_ms)

    def grew(name: str) -> float:
        return counter_delta(before, after, name)

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    hits = grew("repro_plan_cache_hits_total")
    lookups = hits + grew("repro_plan_cache_misses_total")
    fsyncs = grew("repro_wal_fsync_seconds_count")
    maintained = grew("repro_view_maintain_seconds_count")
    object_runs = sum(not s.startswith("compact") for s in strategies)
    return {
        "server.rtt_floor_ms": (statistics.median(ping_ms), "ms", len(ping_ms)),
        "server.overhead_ms": (statistics.median(overhead.values()), "ms", reads),
        "server.engine_ms": (statistics.median(engine), "ms", reads),
        "server.queue_wait_ms": (statistics.median(queued), "ms", reads),
        "server.pages_per_request": (per(sum(rpcs.values()), reads), "count", reads),
        "exec.plan_cache_hit_ratio": (per(hits, lookups), "ratio", int(lookups)),
        "exec.plan_cache_invalidations": (
            grew("repro_plan_cache_invalidations_total"), "count", mutations),
        "exec.compact_fallbacks": (grew("repro_compact_fallback_total"), "count", reads),
        "exec.object_strategy_share": (per(object_runs, reads), "ratio", reads),
        "engine.stats_refreshes": (grew("repro_stats_refresh_total"), "count", mutations),
        "storage.fsync_ms": (
            per(grew("repro_wal_fsync_seconds_sum"), fsyncs) * 1e3, "ms", int(fsyncs)),
        "storage.fsyncs_per_mutation": (per(fsyncs, mutations), "ratio", mutations),
        "storage.checkpoints": (grew("repro_checkpoint_total"), "count", mutations),
        "storage.stall_max_ms": (max(write_ms), "ms", mutations),
        "views.maintain_ms": (
            per(grew("repro_view_maintain_seconds_sum"), maintained) * 1e3,
            "ms", int(maintained)),
        "views.deltas_per_mutation": (
            per(grew("repro_view_delta_total"), mutations), "ratio", mutations),
        "views.recomputes_per_mutation": (
            per(grew("repro_view_recompute_total"), mutations), "ratio", mutations),
        "views.push_frames": (float(notifications), "count", mutations),
    }  # fmt: skip


def in_process_pass(
    workload: loadgen.Workload,
    seed: int,
    workdir: Path,
    served_store: Path,
    tracer: Tracer,
    budget_s: float,
) -> dict[str, Metric]:
    """The ``P`` rows, from this process's own ``Database``.

    Per distinct request each layer entry point is called up to 20 times
    (``budget_s`` caps slow ones) and the median kept; a workload's value
    is the mean over its distinct requests, which is the schedule's mix.
    """
    store = workdir / f"inproc-{workload.name}"
    shutil.rmtree(store, ignore_errors=True)
    dataset = loadgen.build_dataset()
    script = loadgen.MutationScript(dataset, seed)
    db = Database.open(store, schema=dataset.schema, graph=dataset.graph)
    left, right = socket.socketpair()
    left.settimeout(10.0)  # a frame beyond the socket buffer fails, not hangs
    right.settimeout(10.0)
    try:
        for name, text in loadgen.VIEWS:
            db.create_view(name, text)
        optimizer = Optimizer(db.graph)
        rows = [
            _read_layers(db, optimizer, workload, index, (left, right), tracer, budget_s)
            for index in range(len(workload.reads))
        ]
        out = _storage_layers(db, script, store)
    finally:
        left.close()
        right.close()
        db.close()
    n = len(rows)
    for name in rows[0]:
        values = [row[name] for row in rows]
        if name == "exec.patterns_out":
            out[name] = (float(sum(values)), "count", n)
        else:
            unit = "B" if name == "server.bytes_per_pattern" else "ms"
            out[name] = (statistics.fmean(values), unit, n)
    # Recovery cost of the store the server was killed on: checkpoint load
    # + WAL replay + view rebuild.  Once, on a copy (close() checkpoints);
    # it is seconds long, and recover_s already repeats it end to end.
    copy = workdir / f"reopen-{workload.name}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(served_store, copy)
    started = time.perf_counter()
    recovered = Database.open(copy, create=False)
    out["storage.open_ms"] = ((time.perf_counter() - started) * 1e3, "ms", 1)
    recovered.close()
    return out


def _frames(wire: list[dict[str, Any]]) -> list[bytes]:
    pages = [wire[i : i + PAGE_SIZE] for i in range(0, len(wire), PAGE_SIZE)] or [[]]
    return [
        encode_frame({"ok": True, "count": len(wire), "patterns": page, "cursor": None})
        for page in pages
    ]


def _read_layers(
    db: Database,
    optimizer: Optimizer,
    workload: loadgen.Workload,
    index: int,
    pair: tuple[socket.socket, socket.socket],
    tracer: Tracer,
    budget_s: float,
) -> dict[str, float]:
    """One distinct request through every layer's public entry point."""
    text = workload.reads[index]
    request = -1 - index  # in-process requests count down; wire ones count up
    root = tracer.add("inprocess.request", time.perf_counter(), 0.0, None, request,
                      read=index, text=text)  # fmt: skip
    expr = compile_oql(text, db.schema)
    plan = db.executor.plan(expr)
    result = db.executor.run(expr, plan=plan, use_cache=True)  # fills the cache
    wire = loadgen.wire_patterns(result)
    frames = _frames(wire)
    left, right = pair

    def decode() -> None:
        for frame in frames:
            left.sendall(frame)
            recv_frame(right)

    row: dict[str, float] = {}

    def layer(name: str, fn) -> float:
        started = time.perf_counter()
        row[name] = median_time_ms(fn, budget_s=budget_s)
        # the span's length is the median; it starts where the reps began
        tracer.add(name, started, started + row[name] / 1e3, root, request, median=True)
        return row[name]

    parse = layer("oql.parse_ms", lambda: compile_oql(text, db.schema))
    layer("optimizer.optimize_ms", lambda: optimizer.optimize(expr))
    planned = layer("exec.plan_ms", lambda: db.executor.plan(expr))
    cold = layer(
        "exec.run_cold_ms", lambda: db.executor.run(expr, plan=plan, use_cache=False)
    )
    warm = layer(
        "exec.run_warm_ms", lambda: db.executor.run(expr, plan=plan, use_cache=True)
    )
    use_cache = workload.use_cache
    query = layer("engine.query_ms", lambda: db.query(text, use_cache=use_cache))
    row["engine.facade_self_ms"] = query - parse - planned - (warm if use_cache else cold)
    layer("server.wire_encode_ms", lambda: loadgen.wire_patterns(result))
    layer("server.frame_encode_ms", lambda: _frames(wire))
    layer("server.frame_decode_ms", decode)
    row["exec.patterns_out"] = float(len(wire))
    row["server.bytes_per_pattern"] = sum(map(len, frames)) / max(len(wire), 1)
    root.end = time.perf_counter()
    return row


def _storage_layers(
    db: Database, script: loadgen.MutationScript, store: Path
) -> dict[str, Metric]:
    """``engine.mutate_ms`` and the ``storage.*`` rows, on the in-process
    store with both views registered."""
    wal = store / "wal.log"
    wal_before = wal.stat().st_size
    mutate_ms: list[float] = []
    flush_ms: list[float] = []
    for _ in range(MUTATIONS):
        action = script.next()
        started = time.perf_counter()
        created = _apply(db, action)
        applied = time.perf_counter()
        db.engine.flush()
        flushed = time.perf_counter()
        if created is not None:
            script.created(created)
        mutate_ms.append((applied - started) * 1e3)
        flush_ms.append((flushed - applied) * 1e3)
    wal_bytes = wal.stat().st_size - wal_before
    checkpoint_ms = []
    for _ in range(3):
        started = time.perf_counter()
        db.checkpoint()
        checkpoint_ms.append((time.perf_counter() - started) * 1e3)
    checkpoint = store / db.engine.describe()["checkpoint"]
    instances = sum(1 for _ in db.graph.instances())
    return {
        "engine.mutate_ms": (statistics.median(mutate_ms), "ms", MUTATIONS),
        "storage.flush_ms": (statistics.median(flush_ms), "ms", MUTATIONS),
        "storage.wal_bytes_per_mutation": (wal_bytes / MUTATIONS, "B", MUTATIONS),
        "storage.checkpoint_ms": (statistics.median(checkpoint_ms), "ms", 3),
        "storage.checkpoint_bytes_per_instance": (
            checkpoint.stat().st_size / instances, "B", instances),
    }  # fmt: skip


def _apply(db: Database, action: dict[str, Any]) -> int | None:
    """One wire mutation as the public ``Database`` DML call it maps to."""
    kind = action["action"]
    if kind in ("link", "unlink"):
        a, b = IID(*action["a"]), IID(*action["b"])
        (db.link if kind == "link" else db.unlink)(a, b)
    elif kind == "update":
        db.update_value(IID(*action["instance"]), action["value"])
    elif kind == "insert_value":
        return db.insert_value(action["cls"], action["value"]).oid
    else:
        db.delete(IID(*action["instance"]))
    return None

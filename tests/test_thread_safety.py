"""Concurrent readers on one Database must agree with serial evaluation.

The query service executes requests on a worker thread pool against a
shared, server-side :class:`~repro.engine.database.Database`, so the
physical layer's lazily built derived state — the
:class:`~repro.exec.cache.PlanCache` entry table and the
:class:`~repro.exec.arena.PatternArena`'s interning/derived caches —
is populated by many threads at once.  These regression tests drive
exactly that shape: N threads issuing ``Database.query()`` over kernel
plans and object islands with the cache on and off, compared
pattern-for-pattern against ``Expr.evaluate`` on a private database.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import university
from repro.engine.database import Database

THREADS = 8
ROUNDS = 6

QUERIES = [
    "TA * Grad",
    "pi(TA * Grad)[TA]",
    "Section ! Room#",
    "TA * Grad + TA * Teacher",
    "sigma(GPA)[GPA > 3]",
    "pi(TA * Grad)[TA, Grad; TA:Grad]",
]


@pytest.fixture()
def db():
    return Database.from_dataset(university())


def _serial_reference(queries):
    """Expected pattern sets from the reference evaluator, single-threaded."""
    fresh = Database.from_dataset(university())
    return {q: frozenset(fresh.compile(q).evaluate(fresh.graph)) for q in queries}


def _run_threads(worker, count=THREADS):
    """Run ``worker(index)`` on ``count`` threads with a barrier start."""
    barrier = threading.Barrier(count)

    def entry(i):
        barrier.wait()
        return worker(i)

    with ThreadPoolExecutor(max_workers=count) as pool:
        return [f.result() for f in [pool.submit(entry, i) for i in range(count)]]


class TestConcurrentQueries:
    def test_threads_agree_with_serial(self, db):
        expected = _serial_reference(QUERIES)

        def worker(i):
            out = []
            for round_no in range(ROUNDS):
                q = QUERIES[(i + round_no) % len(QUERIES)]
                # Vary the query and cache participation so kernel,
                # object-island and cached paths interleave.
                result = db.query(q, use_cache=round_no % 2 == 0)
                out.append((q, frozenset(result.set)))
            return out

        for per_thread in _run_threads(worker):
            for q, got in per_thread:
                assert got == expected[q]

    def test_cold_arena_populated_concurrently(self, db):
        """First touch of every derived cache happens under contention."""
        expected = _serial_reference(["TA * Grad"])["TA * Grad"]

        def worker(i):
            return frozenset(db.query("TA * Grad").set)

        for got in _run_threads(worker):
            assert got == expected

    def test_cache_shared_across_threads_stays_correct(self, db):
        expected = _serial_reference(["pi(TA * Grad)[TA]"])["pi(TA * Grad)[TA]"]

        def worker(i):
            out = []
            for _ in range(ROUNDS):
                out.append(frozenset(db.query("pi(TA * Grad)[TA]").set))
            return out

        for per_thread in _run_threads(worker):
            for got in per_thread:
                assert got == expected

    def test_explain_and_plain_interleave(self, db):
        """EXPLAIN ANALYZE shares the executor; it must not corrupt it."""
        expected = _serial_reference(["TA * Grad"])["TA * Grad"]

        def worker(i):
            result = db.query("TA * Grad", explain=(i % 2 == 0))
            return frozenset(result.set)

        for got in _run_threads(worker):
            assert got == expected


class TestConcurrentWireEncoding:
    """Server workers encoding one cached set at the same time.

    The service memoizes a paged set's wire encoding on the set without a
    lock: racing workers may each encode it, every one must return the
    same bytes, and the losers' encodings must be released (the retained-
    bytes gauge ends at exactly one encoding).
    """

    def test_threads_encoding_one_set_agree(self, db):
        import gc
        import sys

        from repro.server import QueryService
        from repro.server.protocol import encode_patterns

        aset = db.query("Person + Student + Teacher").set
        expected = encode_patterns(aset).page()
        service = QueryService()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pages = _run_threads(
                lambda i: [service._encoded(aset, 1).page() for _ in range(ROUNDS)]
            )
        finally:
            sys.setswitchinterval(interval)
            service._pool.shutdown()
        assert all(page == expected for per_thread in pages for page in per_thread)
        outcomes = service.metrics.get("repro_wire_encode_total")
        assert outcomes.value(outcome="miss") >= 1
        assert outcomes.total() == THREADS * ROUNDS
        del pages
        gc.collect()
        retained = service.metrics.get("repro_wire_encoded_bytes")
        assert retained.value() == aset.wire_form.nbytes


class TestConcurrentMetricsRegistry:
    """Hammer one MetricsRegistry from N threads while exporting it.

    The admin endpoint's /metrics route and the `metrics` wire op render
    Prometheus/JSON snapshots on the event loop while worker threads
    update counters, gauges, and histograms mid-request — this is that
    interleaving, minus the sockets.
    """

    def test_updates_from_n_threads_total_correctly(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        per_thread = 200

        def worker(i):
            counter = registry.counter("hammer_total", "test counter")
            gauge = registry.gauge("hammer_live", "test gauge")
            histogram = registry.histogram("hammer_seconds", "test histogram")
            for n in range(per_thread):
                counter.inc(kind=f"k{n % 3}")
                gauge.inc()
                gauge.dec()
                histogram.observe(0.001 * n, op="q")
            return True

        assert all(_run_threads(worker))
        counter = registry.counter("hammer_total")
        total = sum(counter.value(kind=f"k{k}") for k in range(3))
        assert total == THREADS * per_thread
        assert registry.gauge("hammer_live").value() == 0
        series = registry.histogram("hammer_seconds").samples()
        assert sum(s.count for _, s in series) == THREADS * per_thread

    def test_export_during_concurrent_updates_is_parseable(self):
        import json
        import time

        from repro.obs import (
            MetricsRegistry,
            metrics_to_json,
            metrics_to_prometheus,
        )

        registry = MetricsRegistry()
        stop = threading.Event()

        def writer(i):
            counter = registry.counter("busy_total", "test counter")
            histogram = registry.histogram("busy_seconds", "test histogram")
            n = 0
            while not stop.is_set():
                counter.inc(src=f"t{i % 4}")
                histogram.observe(0.01 * (n % 7))
                n += 1
            return n

        def exporter(i):
            snapshots = 0
            while not stop.is_set():
                text = metrics_to_prometheus(registry)
                for line in text.strip().splitlines():
                    if not line.startswith("#"):
                        name_part, value = line.rsplit(" ", 1)
                        assert name_part
                        float(value.replace("+Inf", "inf"))
                json.dumps(metrics_to_json(registry))
                snapshots += 1
            return snapshots

        def worker(i):
            # Half the threads write, half continuously export and parse.
            if i == THREADS - 1:
                # Last thread is the clock: let the others race briefly.
                time.sleep(0.3)
                stop.set()
                return 0
            return writer(i) if i % 2 == 0 else exporter(i)

        results = _run_threads(worker)
        assert sum(results) > 0  # both sides actually ran

"""Loopback integration tests for the concurrent query service.

Each test starts a real :class:`~repro.server.QueryService` on an
ephemeral loopback port (background event-loop thread) and drives it
with :class:`~repro.server.ServerClient` connections — the acceptance
shape of the subsystem: session isolation under concurrency, structured
timeout errors under deadline pressure, admission-queue shedding with
the ``repro_server_shed_total`` metric, graceful drain on shutdown, and
server spans stitched above the engine's span tree.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import figure7, university
from repro.engine.database import Database
from repro.server import (
    QueryService,
    QueryTimeoutError,
    ServerClient,
    ServerConfig,
    ServerOverloadedError,
    ServerError,
    start_server,
)


@pytest.fixture()
def server():
    with start_server(ServerConfig()) as handle:
        yield handle


@pytest.fixture()
def slow_engine(monkeypatch):
    """Honor a ``delay`` request field by sleeping on the worker thread.

    The bundled datasets evaluate in microseconds, so deadline and
    admission behaviour is exercised by injecting controlled latency in
    front of the real engine call (the protocol ignores unknown request
    fields otherwise).
    """
    original = QueryService._execute_query

    def delayed(self, session, text, request, *args, **kwargs):
        delay = float(request.get("delay", 0) or 0)
        if delay:
            time.sleep(delay)
        return original(self, session, text, request, *args, **kwargs)

    monkeypatch.setattr(QueryService, "_execute_query", delayed)


def _slow_query(client, delay, timeout=None, q="TA * Grad"):
    """A query frame carrying the test-only ``delay`` field."""
    request = {"op": "query", "q": q, "delay": delay}
    if timeout is not None:
        request["timeout"] = timeout
    return client._rpc(request)


class TestBasics:
    def test_ping(self, server):
        with ServerClient(server.host, server.port) as client:
            pong = client.ping()
        assert pong["pong"] is True
        assert pong["protocol"] == 1

    def test_query_round_trip(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query("pi(TA * Grad)[TA]", values_of=["TA"])
        assert result.count == 2
        assert result.strategy is not None
        assert result.elapsed_ms is not None
        assert len(result.patterns) == 2

    def test_values_retrieval(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query(
                "pi(TA * Grad * Student * Person * SS#)[SS#]", values_of=["SS#"]
            )
        assert result.values["SS#"] == [333, 444]

    def test_open_unknown_database(self, server):
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client.open("nonexistent")
        assert exc_info.value.code == "unknown_database"

    def test_engine_error_is_structured(self, server):
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client.query("Bogus * Query")
            # The connection survives the error frame.
            assert client.query("TA * Grad").count == 2
        assert exc_info.value.code == "engine_error"

    @pytest.mark.parametrize("page_size", ["abc", [1], {"n": 1}, float("inf")])
    def test_malformed_page_size_is_refused_not_fatal(self, server, page_size):
        """A bad ``page_size`` used to raise after the engine ran and close
        the connection with no response."""
        requests = server.service.metrics.get("repro_server_requests_total")
        errors = requests.value(op="query", status="error")
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client._rpc({"op": "query", "q": "TA * Grad", "page_size": page_size})
            assert exc_info.value.code == "bad_request"
            # The same session answers the next query.
            assert client.query("TA * Grad").count == 2
        assert requests.value(op="query", status="error") == errors + 1

    @pytest.mark.parametrize("values_of", [5, [["TA"]], "TA", {"TA": 1}, [None]])
    def test_malformed_values_of_is_refused_not_fatal(self, server, values_of):
        """A bad ``values_of`` used to raise after the engine ran (or, as a
        string, answer per character) instead of refusing the request."""
        requests = server.service.metrics.get("repro_server_requests_total")
        errors = requests.value(op="query", status="error")
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client._rpc({"op": "query", "q": "TA * Grad", "values_of": values_of})
            assert exc_info.value.code == "bad_request"
            # The same session answers the next query.
            result = client.query("pi(TA * Grad)[TA]", values_of=["TA"])
            assert result.count == 2 and set(result.values) == {"TA"}
        assert requests.value(op="query", status="error") == errors + 1

    def test_bad_op_is_structured(self, server):
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client._rpc({"op": "frobnicate"})
        assert exc_info.value.code == "bad_request"

    def test_metrics_frame(self, server):
        with ServerClient(server.host, server.port) as client:
            client.query("TA * Grad")
            text = client.metrics()
        assert "repro_server_requests_total" in text
        assert "repro_server_request_seconds" in text
        assert 'repro_wire_encode_total{outcome="miss"} 1' in text
        assert "repro_wire_encoded_bytes" in text
        assert "repro_queries_total" in text  # engine registry is shared


class TestPaging:
    def test_pages_chain_to_full_result(self, server):
        with ServerClient(server.host, server.port) as client:
            whole = client.query("Person + Student + Teacher")
            paged = client.query("Person + Student + Teacher", page_size=2)
        assert whole.count > 2
        assert paged.patterns == whole.patterns  # fetch_all followed cursors

    def test_manual_fetch(self, server):
        with ServerClient(server.host, server.port) as client:
            first = client.query(
                "Person + Student + Teacher", page_size=2, fetch_all=False
            )
            assert len(first.patterns) == 2
            assert first.cursor is not None
            collected = list(first.patterns)
            cursor = first.cursor
            while cursor is not None:
                page = client.fetch(cursor)
                collected.extend(page["patterns"])
                cursor = page["cursor"]
        assert len(collected) == first.count

    def test_unknown_cursor(self, server):
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client.fetch("nope")
        assert exc_info.value.code == "bad_request"


    def test_oversized_page_is_refused_not_dropped(self, server, monkeypatch):
        """A response over the frame limit used to raise inside the
        connection handler and silently drop the connection."""
        from repro.server import protocol

        q = "Person + Student + Teacher"
        with ServerClient(server.host, server.port) as client:
            whole = client.query(q)
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 400)
            with pytest.raises(ServerError) as exc_info:
                client.query(q, page_size=10**9)
            assert exc_info.value.code == "frame_too_large"
            # The session survives; smaller pages fit under the limit.
            assert client.query(q, page_size=2).patterns == whole.patterns


class TestResultEncoding:
    """One wire encoding per live, paged association-set (``docs/server.md``)."""

    Q = "Person + Student + Teacher"

    @staticmethod
    def _encodes(server, outcome):
        counter = server.service.metrics.get("repro_wire_encode_total")
        return counter.value(outcome=outcome)

    @staticmethod
    def _retained(server):
        return server.service.metrics.get("repro_wire_encoded_bytes").value()

    def test_warm_queries_share_one_encoding(self, server):
        with ServerClient(server.host, server.port) as client:
            first = client.query(self.Q, page_size=2)
            assert (self._encodes(server, "miss"), self._encodes(server, "hit")) == (1, 0)
            second = client.query(self.Q, page_size=2)
            unpaged = client.query(self.Q)  # any page size is served from it
        assert (self._encodes(server, "miss"), self._encodes(server, "hit")) == (1, 2)
        assert unpaged.patterns == second.patterns == first.patterns
        cached = server.service.database("university").query(self.Q).set
        assert self._retained(server) == cached.wire_form.nbytes > 0

    def test_single_page_answers_are_not_retained(self, server):
        with ServerClient(server.host, server.port) as client:
            assert client.query(self.Q).patterns == client.query(self.Q).patterns
        assert (self._encodes(server, "miss"), self._encodes(server, "hit")) == (2, 0)
        assert self._retained(server) == 0

    def test_invalidation_releases_the_old_encoding(self, server):
        import gc
        import weakref

        # The set is held by its plan-cache entry and the arena's
        # decoded-set memo; the mutation invalidates the one and clears
        # the other.
        db = server.service.database("university")
        with ServerClient(server.host, server.port) as client:
            before = client.query("TA * Grad", page_size=1)
            old = weakref.ref(db.query("TA * Grad").set.wire_form)
            assert old() is not None and self._retained(server) == old().nbytes
            ta, grad = (
                next(v for v in before.patterns[0]["vertices"] if v[0] == cls)
                for cls in ("TA", "Grad")
            )
            client.mutate([{"action": "unlink", "a": ta, "b": grad}])
            gc.collect()
            assert old() is None and self._retained(server) == 0
            after = client.query("TA * Grad", page_size=1)
        reference = db.compile("TA * Grad").evaluate(db.graph)
        assert after.count == before.count - 1 == len(reference)
        assert after.patterns == before.patterns[1:]
        # the fresh answer fits one page: nothing is retained for it
        assert db.query("TA * Grad").set.wire_form is None
        assert self._retained(server) == 0

    def test_bypassed_queries_retain_nothing(self, server):
        with ServerClient(server.host, server.port) as client:
            for _ in range(3):
                result = client.query(self.Q, use_cache=False, page_size=2)
                assert len(result.patterns) == result.count
        assert self._encodes(server, "hit") == 0
        assert self._encodes(server, "miss") == 3
        assert self._retained(server) == 0

    def test_sessions_page_one_result_with_different_page_sizes(self, server):
        with ServerClient(server.host, server.port) as a:
            with ServerClient(server.host, server.port) as b:
                whole = a.query(self.Q)
                pages = {
                    a: a.query(self.Q, page_size=2, fetch_all=False),
                    b: b.query(self.Q, page_size=3, fetch_all=False),
                }
                got = {client: list(r.patterns) for client, r in pages.items()}
                cursors = {client: r.cursor for client, r in pages.items()}
                while any(cursors.values()):  # interleave the two cursors
                    for client, cursor in cursors.items():
                        if cursor is not None:
                            page = client.fetch(cursor)
                            got[client].extend(page["patterns"])
                            cursors[client] = page["cursor"]
        assert got[a] == got[b] == whole.patterns
        # the unpaged answer was encoded and dropped; both cursors share one
        assert (self._encodes(server, "miss"), self._encodes(server, "hit")) == (2, 1)

    def test_values_explain_and_trace_ride_along_unchanged(self, server):
        from repro.server.protocol import pattern_to_wire

        q = "pi(TA * Grad * Student * Person * SS#)[SS#]"
        local = Database.from_dataset(university()).query(q)
        with ServerClient(server.host, server.port) as client:
            result = client.query(q, values_of=["SS#"], explain=True, trace=True)
        assert result.patterns == sorted(
            (pattern_to_wire(p) for p in local.set),
            key=lambda p: (p["vertices"], p["edges"]),
        )
        assert result.values == {"SS#": sorted(local.values("SS#"), key=repr)}
        assert result.explain.startswith("EXPLAIN ANALYZE")
        assert result.trace[0]["name"] == "server.request"


class TestConcurrentSessions:
    def test_sessions_are_isolated(self, server):
        """Sessions on different databases see their own results."""
        uni = Database.from_dataset(university())
        fig = Database.from_dataset(figure7())
        expected_uni = len(uni.query("TA * Grad").set)
        expected_fig = len(fig.query("B * C").set)

        barrier = threading.Barrier(6)

        def worker(i):
            with ServerClient(server.host, server.port) as client:
                if i % 2 == 0:
                    client.open("university")
                    q, expected = "TA * Grad", expected_uni
                else:
                    client.open("figure7")
                    q, expected = "B * C", expected_fig
                barrier.wait()
                counts = [client.query(q).count for _ in range(4)]
            return counts, expected

        with ThreadPoolExecutor(max_workers=6) as pool:
            for counts, expected in pool.map(worker, range(6)):
                assert counts == [expected] * 4

    def test_sessions_share_server_side_database(self, server):
        with ServerClient(server.host, server.port) as a:
            with ServerClient(server.host, server.port) as b:
                assert a.ping()["session"] != b.ping()["session"]
                assert a.query("TA * Grad").count == b.query("TA * Grad").count


class TestDeadlines:
    def test_execution_timeout_is_structured(self, slow_engine):
        with start_server(ServerConfig(default_deadline=30.0)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                with pytest.raises(QueryTimeoutError):
                    _slow_query(client, delay=1.0, timeout=0.2)
                # The session survives; a fast query still works.
                assert client.query("TA * Grad").count == 2

    def test_timeout_leaves_others_running(self, slow_engine):
        """One expiring request must not take concurrent ones with it."""
        with start_server(ServerConfig(max_concurrency=2)) as handle:
            outcomes = {}

            def slow():
                with ServerClient(handle.host, handle.port) as client:
                    try:
                        _slow_query(client, delay=1.0, timeout=0.2)
                        outcomes["slow"] = "ok"
                    except QueryTimeoutError:
                        outcomes["slow"] = "timeout"

            def fast():
                time.sleep(0.05)  # let the slow request take its slot
                with ServerClient(handle.host, handle.port) as client:
                    outcomes["fast"] = client.query("TA * Grad").count

            threads = [threading.Thread(target=slow), threading.Thread(target=fast)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert outcomes == {"slow": "timeout", "fast": 2}

    def test_queue_wait_counts_against_deadline(self, slow_engine):
        with start_server(
            ServerConfig(max_concurrency=1, queue_limit=4)
        ) as handle:
            hold = threading.Thread(
                target=lambda: _slow_query(
                    ServerClient(handle.host, handle.port), delay=1.0
                )
            )
            hold.start()
            time.sleep(0.2)  # the slot is now held for ~0.8s more
            with ServerClient(handle.host, handle.port) as client:
                with pytest.raises(QueryTimeoutError, match="queue"):
                    client.query("TA * Grad", timeout=0.2)
            hold.join(30)


class TestAdmissionControl:
    def test_overflow_sheds_with_metric(self, slow_engine):
        with start_server(
            ServerConfig(max_concurrency=1, queue_limit=0)
        ) as handle:
            hold = threading.Thread(
                target=lambda: _slow_query(
                    ServerClient(handle.host, handle.port), delay=1.0
                )
            )
            hold.start()
            time.sleep(0.2)  # the only slot is busy, the queue allows nobody
            with ServerClient(handle.host, handle.port) as client:
                with pytest.raises(ServerOverloadedError):
                    client.query("TA * Grad")
                text = client.metrics()
            hold.join(30)
        assert "repro_server_shed_total 1" in text
        assert handle.service.metrics.counter("repro_server_shed_total").value() == 1

    def test_no_shed_with_free_slots(self, server):
        # queue_limit only gates when every slot is busy.
        with ServerClient(server.host, server.port) as client:
            for _ in range(8):
                assert client.query("TA * Grad").count == 2
        assert (
            server.service.metrics.counter("repro_server_shed_total").value() == 0
        )


class TestGracefulShutdown:
    def test_drain_finishes_in_flight_requests(self, slow_engine):
        handle = start_server(
            ServerConfig(max_concurrency=2, drain_timeout=10.0)
        )
        outcome = {}

        def inflight():
            with ServerClient(handle.host, handle.port) as client:
                response = _slow_query(client, delay=0.6)
                outcome["count"] = response["count"]

        thread = threading.Thread(target=inflight)
        thread.start()
        time.sleep(0.2)  # the request is now executing on a worker thread
        handle.stop()  # graceful drain must let it finish
        thread.join(30)
        assert outcome == {"count": 2}

    def test_stop_is_idempotent(self, server):
        server.stop()
        server.stop()

    def test_new_connection_after_stop_refused(self):
        handle = start_server(ServerConfig())
        host, port = handle.host, handle.port
        handle.stop()
        with pytest.raises(ServerError):
            ServerClient(host, port)


class TestSpanStitching:
    def test_server_span_wraps_engine_tree(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query("pi(TA * Grad)[TA]", trace=True)
        spans = result.trace
        assert spans is not None and len(spans) >= 2
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["server.request"]
        root = roots[0]
        assert root["attributes"]["database"] == "university"
        # Every engine span hangs (transitively) below the server span.
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span is root:
                continue
            walk = span
            while walk["parent"] is not None:
                walk = by_id[walk["parent"]]
            assert walk is root

    def test_explain_over_the_wire(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query("pi(TA * Grad)[TA]", explain=True, trace=True)
        assert result.explain is not None
        assert "EXPLAIN ANALYZE" in result.explain
        assert any(s["name"] == "server.request" for s in result.trace)


class TestTracePropagation:
    """Acceptance: end-to-end trace stitching across the wire."""

    def test_stitched_tree_client_to_engine(self, server):
        from repro.obs import OperatorKind

        with ServerClient(server.host, server.port) as client:
            result = client.query("pi(TA * Grad)[TA]", trace=True)
        tracer = result.tracer
        assert tracer is not None and len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "client.call"
        assert result.trace_id and root.attributes["trace_id"] == result.trace_id
        names = [span.name for span, _ in root.walk()]
        assert names[0] == "client.call"
        assert "server.request" in names
        assert "server.queue_wait" in names
        # Engine operator spans made it across with structured kinds.
        kinds = {span.kind for span, _ in root.walk()}
        assert OperatorKind.ASSOCIATE in kinds
        assert OperatorKind.PROJECT in kinds

    def test_queue_wait_is_a_child_of_server_request(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query("TA * Grad", trace=True)
        root = result.tracer.roots[0]
        (srv,) = [s for s in root.children if s.name == "server.request"]
        waits = [s for s in srv.children if s.name == "server.queue_wait"]
        assert len(waits) == 1
        assert waits[0].seconds >= 0
        assert result.queue_wait_ms is not None and result.queue_wait_ms >= 0

    def test_rebased_server_spans_nest_inside_client_call(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query("TA * Grad", trace=True)
        root = result.tracer.roots[0]
        for span, _ in root.walk():
            assert span.start >= root.start - 1e-6
            assert span.end is not None and span.end <= root.end + 1e-6

    def test_stitched_tree_exports_valid_chrome_trace(self, server):
        import json

        from repro.obs import spans_to_chrome_trace

        with ServerClient(server.host, server.port) as client:
            result = client.query("pi(TA * Grad)[TA]", trace=True)
        document = json.loads(json.dumps(spans_to_chrome_trace(result.tracer)))
        events = document["traceEvents"]
        assert {e["name"] for e in events} >= {
            "client.call",
            "server.request",
            "server.queue_wait",
        }
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_server_attributes_carry_the_context(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query("TA * Grad", trace=True)
        records = result.trace
        root = next(r for r in records if r["parent"] is None)
        assert root["attributes"]["trace_id"] == result.trace_id
        assert root["attributes"]["parent_span_id"]

    def test_trace_stamp_correlates_without_spans(self, server):
        with ServerClient(server.host, server.port) as client:
            result = client.query("TA * Grad", trace_stamp=True)
            assert result.trace_id and result.tracer is None
            page = client.events(type="request.finish")
        stamped = [
            e for e in page["events"] if e.get("trace_id") == result.trace_id
        ]
        assert len(stamped) == 1
        assert stamped[0]["data"]["op"] == "query"


class TestEventLogOverTheWire:
    def test_request_lifecycle_events(self, server):
        with ServerClient(server.host, server.port) as client:
            client.query("TA * Grad")
            page = client.events()
        types = [e["type"] for e in page["events"]]
        assert "server.start" in types
        assert "request.start" in types and "request.finish" in types
        finished = [e for e in page["events"] if e["type"] == "request.finish"]
        assert any(e["data"]["op"] == "query" for e in finished)
        assert all(e["data"]["status"] for e in finished)
        assert page["last_seq"] >= len(page["events"])

    def test_after_cursor_tails_without_replay(self, server):
        with ServerClient(server.host, server.port) as client:
            client.query("TA * Grad")
            first = client.events()
            cursor = first["last_seq"]
            client.query("Section ! Room#")
            fresh = client.events(after=cursor)
        assert fresh["events"]
        assert all(e["seq"] > cursor for e in fresh["events"])

    def test_shed_emits_admission_event(self, slow_engine):
        with start_server(
            ServerConfig(max_concurrency=1, queue_limit=0)
        ) as handle:
            hold = threading.Thread(
                target=lambda: _slow_query(
                    ServerClient(handle.host, handle.port), delay=1.0
                )
            )
            hold.start()
            time.sleep(0.3)  # let the holder occupy the only slot
            with ServerClient(handle.host, handle.port) as client:
                with pytest.raises(ServerOverloadedError):
                    client.query("TA * Grad")
                page = client.events(type="admission.shed")
            hold.join(30)
        assert len(page["events"]) == 1

    def test_event_capacity_zero_disables(self):
        with start_server(ServerConfig(event_capacity=0)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.query("TA * Grad")
                page = client.events()
        assert page["events"] == [] and page["last_seq"] == 0


class TestSlowQueryLog:
    """Acceptance: a deliberately slow query lands in the slow-query log."""

    def test_latency_capture_with_plan_detail(self, slow_engine):
        config = ServerConfig(slow_query_threshold=0.05)
        with start_server(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                _slow_query(client, delay=0.2, q="pi(TA * Grad)[TA]")
                page = client.slow_queries()
        assert page["total"] == 1
        record = page["slow_queries"][0]
        assert record["query"] == "pi(TA * Grad)[TA]"
        assert record["reason"] == "latency"
        assert record["elapsed_ms"] >= 50
        assert record["strategy"] == "compact-kernel"
        assert record["stats_version"] == 0
        assert record["admission"]["inflight"] >= 1
        # Chosen plan with strategy annotations and per-node cardinality
        # detail from the diagnostic EXPLAIN ANALYZE rerun.
        assert "EXPLAIN ANALYZE" in record["plan"]
        assert "via" in record["plan"]
        assert record["max_q_error"] >= 1.0
        operators = {node["kind"] for node in record["nodes"]}
        assert "A-Project" in operators and "Associate" in operators
        for node in record["nodes"]:
            assert node["q_error"] >= 1.0
            assert node["actual"] >= 0

    def test_fast_queries_are_not_captured(self, server):
        # The shared fixture server has no thresholds configured.
        with ServerClient(server.host, server.port) as client:
            client.query("TA * Grad")
            page = client.slow_queries()
        assert page["total"] == 0 and page["slow_queries"] == []

    def test_q_error_threshold_captures_explained_queries(self, server_cls=None):
        # Any q-error >= 1.0 trips the gate, so every EXPLAIN'd query
        # qualifies — the point is the reason label, not the magnitude.
        config = ServerConfig(slow_query_q_error=1.0)
        with start_server(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.query("TA * Grad", explain=True)
                plain = client.slow_queries()
        assert plain["total"] == 1
        assert plain["slow_queries"][0]["reason"] == "q_error"

    def test_slow_query_metric_labelled_by_reason(self, slow_engine):
        config = ServerConfig(slow_query_threshold=0.05)
        with start_server(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                _slow_query(client, delay=0.2)
            counter = handle.service.metrics.counter("repro_slow_queries_total")
            assert counter.value(reason="latency") == 1

    def test_slow_query_event_emitted(self, slow_engine):
        config = ServerConfig(slow_query_threshold=0.05)
        with start_server(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                _slow_query(client, delay=0.2)
                page = client.events(type="query.slow")
        assert len(page["events"]) == 1


class TestAdminEndpoint:
    """Acceptance: HTTP admin side port on a live service."""

    @pytest.fixture()
    def admin_server(self):
        config = ServerConfig(admin_port=0, slow_query_threshold=0.05)
        with start_server(config) as handle:
            yield handle

    def _get(self, handle, path):
        import urllib.error
        import urllib.request

        url = f"http://{handle.host}:{handle.service.admin_port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=10) as resp:
                return resp.status, resp.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def test_healthz(self, admin_server):
        status, body = self._get(admin_server, "/healthz")
        assert (status, body) == (200, "ok\n")

    def test_readyz_reports_mounted_databases(self, admin_server):
        import json

        status, body = self._get(admin_server, "/readyz")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["ready"] is True
        assert snapshot["draining"] is False
        assert "university" in snapshot["databases"]

    def test_metrics_is_prometheus_text(self, admin_server):
        with ServerClient(admin_server.host, admin_server.port) as client:
            client.query("TA * Grad")
        status, body = self._get(admin_server, "/metrics")
        assert status == 200
        assert "# TYPE repro_server_requests_total counter" in body
        assert "repro_server_queue_wait_seconds" in body

    def test_events_route_returns_json(self, admin_server):
        import json

        with ServerClient(admin_server.host, admin_server.port) as client:
            client.query("TA * Grad")
        status, body = self._get(
            admin_server, "/events?type=request.finish&limit=5"
        )
        assert status == 200
        events = json.loads(body)
        assert events and all(e["type"] == "request.finish" for e in events)

    def test_slow_queries_route(self, admin_server, monkeypatch):
        import json

        # Reuse the slow_engine trick inline for this one server.
        original = QueryService._execute_query

        def delayed(self, session, text, request, *args, **kwargs):
            delay = float(request.get("delay", 0) or 0)
            if delay:
                time.sleep(delay)
            return original(self, session, text, request, *args, **kwargs)

        monkeypatch.setattr(QueryService, "_execute_query", delayed)
        with ServerClient(admin_server.host, admin_server.port) as client:
            _slow_query(client, delay=0.2)
        status, body = self._get(admin_server, "/slow-queries")
        assert status == 200
        records = json.loads(body)
        assert len(records) == 1 and records[0]["reason"] == "latency"

    def test_unknown_route_404(self, admin_server):
        status, _ = self._get(admin_server, "/nope")
        assert status == 404

    def test_non_get_is_405(self, admin_server):
        import urllib.error
        import urllib.request

        url = (
            f"http://{admin_server.host}:"
            f"{admin_server.service.admin_port}/healthz"
        )
        request = urllib.request.Request(url, data=b"x", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 405

    def test_admin_port_disabled_by_default(self, server):
        assert server.service.admin_port is None

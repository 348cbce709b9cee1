"""Live view subscriptions over the wire: snapshot, deltas, resync.

Acceptance for the subscription surface of the query service: the
``views``/``create_view``/``drop_view``/``subscribe``/``unsubscribe``
ops, the push-frame ordering guarantee (a session's own mutate delivers
the ``view.delta`` *before* the mutate acknowledgement), cross-session
fanout, per-view version monotonicity, and the bounded-queue overflow
path — a dropped backlog must surface as one ``view.resync`` frame
carrying the complete current materialization, never as silently missing
deltas.
"""

import json

import pytest

from repro.server import ServerClient, ServerConfig, ServerError, start_server


@pytest.fixture()
def server():
    with start_server(ServerConfig()) as handle:
        yield handle


def _join_endpoints(snapshot):
    """(TA, Grad) wire vertices of the snapshot's first join pattern."""
    pattern = snapshot["patterns"][0]
    ta = next(v for v in pattern["vertices"] if v[0] == "TA")
    grad = next(v for v in pattern["vertices"] if v[0] == "Grad")
    return ta, grad


class TestViewOps:
    def test_catalog_round_trip(self, server):
        with ServerClient(server.host, server.port) as client:
            assert client.views() == []
            made = client.create_view("v", "TA * Grad")
            assert made["count"] == 2
            rows = client.views()
            assert [row["name"] for row in rows] == ["v"]
            assert rows[0]["patterns"] == 2
            client.drop_view("v")
            assert client.views() == []

    def test_create_view_errors_are_structured(self, server):
        with ServerClient(server.host, server.port) as client:
            client.create_view("v", "TA")
            with pytest.raises(ServerError):
                client.create_view("v", "Grad")  # duplicate name
            with pytest.raises(ServerError):
                client.subscribe("missing")

    def test_rows_report_scoped_recomputes(self, server):
        with ServerClient(server.host, server.port) as client:
            client.create_view("joined", "TA * Grad")
            client.create_view("apart", "TA ! Grad")
            ta, grad = _join_endpoints(client.subscribe("joined"))
            client.mutate([{"action": "unlink", "a": ta, "b": grad}])
            rows = {row["name"]: row for row in client.views()}
        assert rows["joined"]["recomputes"] == 0  # the Associate delta rule
        assert rows["apart"]["recomputes"] == 1  # NonAssociate rescans

    def test_views_are_shared_across_sessions(self, server):
        with ServerClient(server.host, server.port) as a:
            a.create_view("shared", "TA * Grad")
            with ServerClient(server.host, server.port) as b:
                assert [row["name"] for row in b.views()] == ["shared"]


class TestSubscriptionDeltas:
    def test_own_mutate_delivers_delta_before_ack(self, server):
        with ServerClient(server.host, server.port) as client:
            client.create_view("v", "TA * Grad")
            snapshot = client.subscribe("v")
            assert snapshot["count"] == 2 and snapshot["version"] == 1
            ta, grad = _join_endpoints(snapshot)
            ack = client.mutate([{"action": "unlink", "a": ta, "b": grad}])
            assert ack["applied"] == 1
            # The delta frame crossed the wire before the ack: it is
            # already buffered, no further read needed.
            assert client._notifications, "view.delta did not precede the ack"
            frame = client.next_notification(timeout=0)
            assert frame["notify"] == "view.delta"
            assert frame["view"] == "v"
            assert frame["version"] == 2
            assert len(frame["removed"]) == 1 and frame["added"] == []

    def test_versions_are_monotonic_with_no_gaps(self, server):
        with ServerClient(server.host, server.port) as client:
            client.create_view("v", "TA * Grad")
            snapshot = client.subscribe("v")
            ta, grad = _join_endpoints(snapshot)
            for _ in range(3):
                client.mutate([{"action": "unlink", "a": ta, "b": grad}])
                client.mutate(
                    [{"action": "link", "a": ta, "b": grad, "assoc": None}]
                )
            versions = []
            while True:
                frame = client.next_notification(timeout=0.2)
                if frame is None:
                    break
                versions.append(frame["version"])
            assert versions == list(
                range(snapshot["version"] + 1, snapshot["version"] + 7)
            )

    def test_cross_session_fanout(self, server):
        with ServerClient(server.host, server.port) as subscriber:
            subscriber.create_view("v", "TA * Grad")
            snapshot = subscriber.subscribe("v")
            ta, grad = _join_endpoints(snapshot)
            with ServerClient(server.host, server.port) as writer:
                writer.mutate([{"action": "unlink", "a": ta, "b": grad}])
                # The writer session has no subscription: nothing pushed.
                assert writer.next_notification(timeout=0.2) is None
            frame = subscriber.next_notification(timeout=5)
            assert frame is not None and frame["notify"] == "view.delta"
            assert len(frame["removed"]) == 1

    def test_unsubscribe_stops_the_feed(self, server):
        with ServerClient(server.host, server.port) as client:
            client.create_view("v", "TA * Grad")
            snapshot = client.subscribe("v")
            ta, grad = _join_endpoints(snapshot)
            client.unsubscribe("v")
            client.mutate([{"action": "unlink", "a": ta, "b": grad}])
            assert not client._notifications
            assert client.next_notification(timeout=0.2) is None

    def test_polling_an_idle_feed_returns_none(self, server):
        """``timeout=0`` polls: a non-blocking socket reports EAGAIN, not
        ``socket.timeout``, and that used to surface as a ServerError."""
        with ServerClient(server.host, server.port) as client:
            client.create_view("v", "TA * Grad")
            snapshot = client.subscribe("v")
            assert client.next_notification(timeout=0) is None
            ta, grad = _join_endpoints(snapshot)
            with ServerClient(server.host, server.port) as writer:
                writer.mutate([{"action": "unlink", "a": ta, "b": grad}])
            assert client.next_notification(timeout=5)["notify"] == "view.delta"
            assert client.next_notification(timeout=0) is None
            assert client.ping()["pong"] is True  # the stream is still in step

    def test_reopen_clears_subscriptions(self, server):
        with ServerClient(server.host, server.port) as client:
            client.create_view("v", "TA * Grad")
            snapshot = client.subscribe("v")
            ta, grad = _join_endpoints(snapshot)
            client.open("university")  # re-open resets session state
            client.mutate([{"action": "unlink", "a": ta, "b": grad}])
            assert not client._notifications
            assert client.next_notification(timeout=0.2) is None


class TestOverflowResync:
    def test_overflow_surfaces_as_full_resync(self):
        """queue=0 forces the overflow path on every delta: the frame
        must be a resync carrying the complete current state — bounded
        queues may drop deltas but never information."""
        with start_server(ServerConfig(subscription_queue=0)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.create_view("v", "TA * Grad")
                snapshot = client.subscribe("v")
                ta, grad = _join_endpoints(snapshot)
                client.mutate([{"action": "unlink", "a": ta, "b": grad}])
                frame = client.next_notification(timeout=5)
                assert frame["notify"] == "view.resync"
                assert frame["reason"] == "overflow"
                assert frame["count"] == snapshot["count"] - 1
                assert len(frame["patterns"]) == frame["count"]
                # After a resync the feed continues (and stays correct).
                client.mutate(
                    [{"action": "link", "a": ta, "b": grad, "assoc": None}]
                )
                frame = client.next_notification(timeout=5)
                assert frame["notify"] == "view.resync"
                assert frame["count"] == snapshot["count"]

    def test_no_state_lost_across_overflow(self):
        """Drive many deltas through a tiny queue; the subscriber's
        reconstructed state (apply deltas, honor resyncs) must equal the
        server's final materialization."""
        with start_server(ServerConfig(subscription_queue=2)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.create_view("v", "TA * Grad")
                snapshot = client.subscribe("v")
                ta, grad = _join_endpoints(snapshot)
                local = {json.dumps(p, sort_keys=True) for p in snapshot["patterns"]}
                version = snapshot["version"]
                for _ in range(10):
                    client.mutate([{"action": "unlink", "a": ta, "b": grad}])
                    client.mutate(
                        [{"action": "link", "a": ta, "b": grad, "assoc": None}]
                    )
                while True:
                    frame = client.next_notification(timeout=0.3)
                    if frame is None:
                        break
                    if frame["notify"] == "view.resync":
                        local = {
                            json.dumps(p, sort_keys=True)
                            for p in frame["patterns"]
                        }
                        version = frame["version"]
                    elif frame["version"] > version:
                        local -= {
                            json.dumps(p, sort_keys=True)
                            for p in frame["removed"]
                        }
                        local |= {
                            json.dumps(p, sort_keys=True) for p in frame["added"]
                        }
                        version = frame["version"]
                final = client.subscribe("v")  # idempotent: fresh snapshot
                expected = {
                    json.dumps(p, sort_keys=True) for p in final["patterns"]
                }
                assert local == expected


class TestAdminViewsRoute:
    def test_views_rows_over_http(self):
        import urllib.request

        config = ServerConfig(admin_port=0)
        with start_server(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.create_view("v", "TA * Grad")
            url = f"http://{handle.host}:{handle.service.admin_port}/views"
            with urllib.request.urlopen(url, timeout=10) as resp:
                rows = json.loads(resp.read().decode())
        assert rows == [
            {
                "database": "university",
                "name": "v",
                "expr": "(TA * Grad)",
                "patterns": 2,
                "version": 1,
                "recomputes": 0,
            }
        ]

"""Wire protocol unit tests: framing, errors, pattern encoding."""

import socket
import struct

import pytest

from repro.datasets import university
from repro.engine.database import Database
from repro.server.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    QueryTimeoutError,
    ServerError,
    ServerOverloadedError,
    ServerShuttingDownError,
    encode_frame,
    error_response,
    error_to_exception,
    pattern_to_wire,
    recv_frame,
    send_frame,
    wire_to_labels,
)


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        send_frame(a, {"op": "ping", "n": 1})
        assert recv_frame(b) == {"op": "ping", "n": 1}

    def test_multiple_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            send_frame(a, {"i": i})
        assert [recv_frame(b)["i"] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert recv_frame(b) is None

    def test_mid_frame_eof_raises(self, pair):
        a, b = pair
        frame = encode_frame({"op": "ping"})
        a.sendall(frame[: len(frame) - 3])  # header + truncated body
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)

    def test_oversized_header_rejected_before_body(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="oversized"):
            recv_frame(b)

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_malformed_json_raises(self, pair):
        a, b = pair
        body = b"{not json"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="malformed"):
            recv_frame(b)

    def test_non_object_body_raises(self, pair):
        a, b = pair
        body = b"[1, 2]"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_frame(b)

    def test_protocol_version_is_one(self):
        assert PROTOCOL_VERSION == 1


class TestErrors:
    def test_error_response_shape(self):
        frame = error_response("timeout", "too slow")
        assert frame == {
            "ok": False,
            "error": {"code": "timeout", "message": "too slow"},
        }

    @pytest.mark.parametrize(
        "code,cls",
        [
            ("timeout", QueryTimeoutError),
            ("overloaded", ServerOverloadedError),
            ("shutting_down", ServerShuttingDownError),
            ("engine_error", ServerError),
            ("bad_request", ServerError),
        ],
    )
    def test_error_to_exception_mapping(self, code, cls):
        exc = error_to_exception({"code": code, "message": "m"})
        assert isinstance(exc, cls)
        assert exc.code == code
        assert "m" in str(exc)

    def test_every_stable_code_maps(self):
        for code in ERROR_CODES:
            assert error_to_exception({"code": code, "message": ""}).code == code


class TestPatternEncoding:
    @pytest.fixture()
    def db(self):
        return Database.from_dataset(university())

    def test_wire_form_is_deterministic(self, db):
        result = db.query("TA * Grad")
        wires = sorted(
            (pattern_to_wire(p) for p in result.set),
            key=lambda p: (p["vertices"], p["edges"]),
        )
        again = sorted(
            (pattern_to_wire(p) for p in db.query("TA * Grad").set),
            key=lambda p: (p["vertices"], p["edges"]),
        )
        assert wires == again
        assert len(wires) == 2
        for wire in wires:
            assert {cls for cls, _ in wire["vertices"]} == {"TA", "Grad"}
            for u, v, polarity in wire["edges"]:
                assert polarity in ("regular", "complement")

    def test_wire_survives_json(self, db):
        import json

        wire = pattern_to_wire(min(db.query("TA * Grad").set, key=str))
        assert json.loads(json.dumps(wire, sort_keys=True)) == wire

    def test_labels_render(self, db):
        wire = pattern_to_wire(min(db.query("TA * Grad").set, key=str))
        label = wire_to_labels(wire)
        assert label.startswith("(") and label.endswith(")")
        assert "TA#" in label and "Grad#" in label

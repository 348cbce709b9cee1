"""The system under test and the load generator that drives it.

One :class:`Sut` is one fresh ``FileEngine`` store served by one
``python -m repro.cli serve`` process (default config), one
:class:`~repro.server.ServerClient` connection in a closed loop, the
reference answers, and the shadow graph the mutation script is mirrored
onto.  No threads and no second connection: with one blocking client the
loop is strictly serial, which is what lets ``run.py`` pin both processes
to one core.
"""

from __future__ import annotations

import json
import os
import signal
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import loadgen
from measure import Tracer

from repro.engine.database import Database
from repro.errors import ReproError
from repro.server import ServerClient

__all__ = ["SRC", "Sut", "set_up"]

SRC = Path(__file__).resolve().parents[2] / "src"

#: First query after a restart; its answer proves the store was recovered.
PROBE_QUERY = loadgen.POINT_READS[0]
#: Longest write tail tried before giving up: four checkpoint intervals.
SETTLE_LIMIT = 4096


class Server:
    """``repro serve --db STORE`` as a separate process."""

    def __init__(self, store: Path) -> None:
        self.store = store
        self.port_file = store.with_suffix(".port")
        self.log = store.with_suffix(".log")
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--db", str(self.store),
                 "--port-file", str(self.port_file),
                 "--admin-port", "-1"],
                env=env, stdout=subprocess.DEVNULL, stderr=log,
            )  # fmt: skip
        deadline = time.monotonic() + 60.0
        while True:
            try:
                text = self.port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                self.port = int(text)
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(
                    f"repro serve did not come up: {self.log.read_text()[-2000:]}"
                )
            time.sleep(0.002)

    def rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process."""
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and reap; safe to call twice."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
            self.proc = None


class Sut:
    """A served store plus the generator state of one run."""

    def __init__(self, workload: loadgen.Workload, seed: int, store: Path) -> None:
        self.workload = workload
        self.plan = loadgen.block_plan(workload, seed)
        self.server = Server(store)
        self.client: ServerClient | None = None
        dataset = loadgen.build_dataset()
        #: handed to the store at creation, then kept as the shadow the
        #: acknowledged mutations are mirrored onto
        self.shadow = dataset.graph
        self.script = loadgen.MutationScript(dataset, seed)
        self.storage: dict[str, Any] = {}
        self.expected: list[list[dict[str, Any]]] = []
        self.attempted = 0
        self.failed = 0
        self.read_ms: list[float] = []
        self.write_ms: list[float] = []
        self.durable_seq = 0
        self.notifications = 0
        self.strategies: list[str] = []
        self._request = 0
        self._expected_at = -1

    # -- lifecycle ------------------------------------------------------

    def connect(self) -> None:
        self.client = ServerClient("127.0.0.1", self.server.port, timeout=120.0)
        self.client.open("snapshot")

    def tear_down(self) -> None:
        """SIGKILL first — the server gets no warning — then drop the socket."""
        self.server.kill()
        if self.client is not None:
            self.client.close()
            self.client = None

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload.name}: {what}", file=sys.stderr)

    # -- requests -------------------------------------------------------

    def read(self, index: int, tracer: Tracer | None = None, check: bool = True) -> None:
        """One query, all pages; latency is the client-observed wall time."""
        text = self.workload.reads[index]
        use_cache = self.workload.use_cache
        self.attempted += 1
        self._request += 1
        client = self.client
        try:
            started = time.perf_counter()
            if tracer is None:
                result = client.query(text, use_cache=use_cache)
                ended = time.perf_counter()
            else:
                result = client.query(text, use_cache=use_cache, fetch_all=False)
                rpcs = [(started, time.perf_counter())]
                while result.cursor is not None:
                    page_started = time.perf_counter()
                    page = client.fetch(result.cursor)
                    rpcs.append((page_started, time.perf_counter()))
                    result.patterns.extend(page["patterns"])
                    result.cursor = page["cursor"]
                ended = time.perf_counter()
        except ReproError as exc:
            self.fail(f"{text!r}: {type(exc).__name__}: {exc}")
            return
        self.read_ms.append((ended - started) * 1e3)
        self.strategies.append(result.strategy or "")
        if tracer is not None:
            rid = self._request
            root = tracer.add(
                "client.request", started, ended, None, rid,
                op="query", read=index, patterns=result.count,
                strategy=result.strategy,
            )  # fmt: skip
            for k, (a, b) in enumerate(rpcs):
                rpc = tracer.add(
                    "client.rpc", a, b, root, rid, op="fetch" if k else "query"
                )
                if k == 0:
                    # The server reports durations, not clock readings:
                    # anchor them at the rpc's start, in the order they ran.
                    waited = a + (result.queue_wait_ms or 0.0) / 1e3
                    tracer.add("server.queue_wait", a, waited, rpc, rid, reported=True)
                    tracer.add(
                        "server.engine", waited,
                        waited + (result.elapsed_ms or 0.0) / 1e3,
                        rpc, rid, reported=True,
                    )  # fmt: skip
        if check and result.patterns != self.expected[index]:
            self.fail(
                f"{text!r}: {len(result.patterns)} patterns differ from the "
                f"reference's {len(self.expected[index])}"
            )

    def write(self, tracer: Tracer | None = None) -> None:
        """One durable single-action ``mutate``; acked ⇒ mirrored on the shadow."""
        action = self.script.next()
        self.attempted += 1
        self._request += 1
        try:
            started = time.perf_counter()
            response = self.client.mutate([action], durable=True)
            ended = time.perf_counter()
        except ReproError as exc:
            self.fail(f"mutate {action}: {type(exc).__name__}: {exc}")
            return
        self.write_ms.append((ended - started) * 1e3)
        if tracer is not None:
            root = tracer.add(
                "client.request", started, ended, None, self._request,
                op="mutate", action=action["action"],
            )  # fmt: skip
            tracer.add("client.rpc", started, ended, root, self._request, op="mutate")
        self.durable_seq = response["durable_seq"]
        created = loadgen.apply_action(self.shadow, action)
        if created is not None:
            server_oid = response["results"][0]["created"][1]
            self.script.created(server_oid)
            if server_oid != created:
                self.fail(f"insert got OID {server_oid}, shadow allocated {created}")
        # A session's own view deltas are buffered before its ack returns.
        # (No public non-blocking drain exists; see README, defects.)
        while self.client._notifications:
            self.client.next_notification()
            self.notifications += 1

    def run_block(self, tracer: Tracer | None = None) -> tuple[int, float]:
        """One whole block of the schedule → (requests that succeeded, the
        seconds the client spent waiting on them)."""
        reads, writes, failed = len(self.read_ms), len(self.write_ms), self.failed
        check = not self.workload.reads_per_write  # answers drift under writes
        for slot in self.plan:
            if slot is None:
                self.write(tracer)
            else:
                self.read(slot, tracer, check)
        busy = sum(self.read_ms[reads:]) + sum(self.write_ms[writes:])
        return len(self.plan) - (self.failed - failed), busy / 1e3

    def replay(
        self,
        *,
        seconds: float | None = None,
        blocks: int | None = None,
        tracer: Tracer | None = None,
    ) -> list[tuple[int, float]]:
        """Whole blocks until ``seconds`` have passed or ``blocks`` are done."""
        done: list[tuple[int, float]] = []
        deadline = time.perf_counter() + (seconds or 0.0)
        while True:
            done.append(self.run_block(tracer))
            if blocks is not None and len(done) >= blocks:
                return done
            if blocks is None and time.perf_counter() >= deadline:
                return done

    def settle_wal(self, tail: int, tracer: Tracer | None = None) -> None:
        """Durable writes until the WAL holds exactly ``tail`` records past
        the last checkpoint.

        The kill that follows then always leaves the same amount of log to
        replay, so ``recover_s`` does not depend on where in a checkpoint
        interval a time-bounded run happened to stop; and a run whose
        schedule had no writes gets its write latencies from here.
        """
        manifest = self.server.store / "MANIFEST.json"
        for _ in range(SETTLE_LIMIT):
            self.write(tracer)
            # checkpoint-<seq>.json, rewritten atomically by the server
            name = json.loads(manifest.read_text())["checkpoint"]
            if self.durable_seq - int(name.split("-")[1].split(".")[0]) == tail:
                return
        self.fail(f"WAL tail never settled at {tail} records")

    # -- verification ---------------------------------------------------

    def compute_expected(self) -> None:
        self.expected = [
            loadgen.oracle(self.shadow, text) for text in self.workload.reads
        ]
        self._expected_at = len(self.write_ms)  # the shadow moves only on acks

    def verify(self, when: str) -> None:
        """Every distinct read and both views against the reference
        evaluator on the shadow graph.  Each comparison is an attempt."""
        if len(self.write_ms) != self._expected_at:
            self.compute_expected()
        for index, text in enumerate(self.workload.reads):
            self.attempted += 1
            try:
                got = self.client.query(text, use_cache=self.workload.use_cache)
            except ReproError as exc:
                self.fail(f"{when}: {text!r}: {type(exc).__name__}: {exc}")
                continue
            if got.patterns != self.expected[index]:
                self.fail(f"{when}: {text!r} differs from the reference")
        for name, text in loadgen.VIEWS:
            self.attempted += 1
            try:
                # subscribe is the one op that returns a view's patterns
                snapshot = self.client.subscribe(name)["patterns"]
            except ReproError as exc:
                self.fail(f"{when}: view {name}: {type(exc).__name__}: {exc}")
                continue
            if snapshot != loadgen.oracle(self.shadow, text):
                self.fail(f"{when}: view {name} differs from the reference")

    def recover(self) -> float:
        """SIGKILL the server, restart it on the same store, and time until
        it answers its first query."""
        started = time.perf_counter()
        self.tear_down()
        self.server.start()
        self.connect()
        self.client.query(PROBE_QUERY)
        return time.perf_counter() - started


def set_up(workload: loadgen.Workload, seed: int, workdir: Path) -> tuple[Sut, float]:
    """Dataset build + store init + server start + open + views + warm-up.

    Returns the running system and the seconds all of that took.  The
    caller computes the reference answers (``compute_expected``) for the
    system it keeps, outside this timing.
    """
    started = time.perf_counter()
    store = workdir / f"store-{workload.name}"
    shutil.rmtree(store, ignore_errors=True)
    sut = Sut(workload, seed, store)
    try:
        with Database.open(store, schema=sut.shadow.schema, graph=sut.shadow) as db:
            described = db.engine.describe()
            sut.storage = {
                "sync": described["sync"],
                "checkpoint_interval": described["checkpoint_interval"],
            }
        sut.server.start()
        sut.connect()
        for name, text in loadgen.VIEWS:
            sut.client.create_view(name, text)
        sut.client.subscribe(loadgen.VIEWS[0][0])
        # Each distinct request twice: plan cache full, lazy columns, arena
        # and sorted indexes built.  Part of set-up, not of any latency.
        for _ in range(2):
            for text in workload.reads:
                sut.client.query(text, use_cache=workload.use_cache)
        elapsed = time.perf_counter() - started
    except BaseException:
        sut.tear_down()
        raise
    return sut, elapsed

"""The ``serve`` workload: ``python -m repro.cli serve`` as a subprocess,
driven over raw ``http.client`` keep-alive connections (closed loop, one
connection per client thread).

The load generator and its timers are the benchmark's own, so that a
change to the program's client or harness cannot change what is measured.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inproc

from repro import AggregationEngine
from repro.exceptions import ReproError

#: Server spawns per run, one before each slice of the loop; ``setup_s``
#: is their median.
SETUPS = 5
#: Client connections (one thread each): the CPU count of the reference box.
CONNECTIONS = 2
#: Longest wait for the server to print its address and report ready.
START_TIMEOUT_S = 60.0

clock = time.perf_counter

#: CPU placement: the server on one CPU and the client on another, so the
#: scheduler cannot switch a run between sharing one CPU and using two.
#: The two swap CPUs from slice to slice, as in ``inproc.run``.
SERVER_CPU, CLIENT_CPU = 0, 1


class Server:
    """One ``repro.cli serve`` subprocess over the workload's dataset."""

    def __init__(self, directory: Path, manifest: dict, log_path: Path, slot: int) -> None:
        dataset = manifest["datasets"][0]
        spec = f"bench={directory / dataset['csv']}:{directory / dataset['mapping']}"
        self.log = log_path.open("ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--dataset", spec],
            stdout=subprocess.PIPE, stderr=self.log, env=dict(os.environ),
        )
        try:
            inproc.pin(self.process.pid, SERVER_CPU + slot)
            self.host, self.port = self._address()
        except BaseException:
            self.process.kill()
            self.process.communicate()
            self.log.close()
            raise

    def _address(self) -> tuple[str, int]:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], START_TIMEOUT_S)
        line = stdout.readline().decode() if ready else ""
        if " on http://" not in line:
            raise RuntimeError(f"serve did not start (banner {line!r})")
        address = line.split(" on http://", 1)[1].split()[0].rstrip("/")
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def wait_ready(self) -> None:
        deadline = clock() + START_TIMEOUT_S
        while clock() < deadline:
            connection = self.connect()
            try:
                connection.request("GET", "/readyz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise RuntimeError("serve never reported ready")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> dict[str, float]:
        """The unlabelled samples of ``/metrics`` (Prometheus text)."""
        connection = self.connect()
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                out[name] = float(value)
        return out

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it lingers; always reaped."""
        try:
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.communicate(timeout=20)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.communicate(timeout=20)
        finally:
            self.log.close()


def post(connection: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    connection.request("POST", "/query", body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def body_for(request: dict) -> bytes:
    return json.dumps({
        "dataset": "bench", "query": request.q,
        "mapping_semantics": request.m, "aggregate_semantics": request.a,
    }).encode()


class Client(threading.Thread):
    """One keep-alive connection in a closed loop over the request cycle.
    A sample is ``(stream index, seconds or -1 when failed, engine seconds,
    status)``; traced clients also keep the encode, round-trip and decode
    boundaries of each request."""

    def __init__(self, server: Server, stream: list[inproc.Request], expected: dict, offset: int,
                 deadline: float, traced: bool) -> None:
        super().__init__(daemon=True)
        self.server, self.stream, self.expected = server, stream, expected
        self.index, self.deadline, self.traced = offset, deadline, traced
        self.samples: list[tuple[int, float, float, int]] = []
        # (index, t0, t1, t2, t3, engine seconds, status): encode is t0-t1,
        # the round trip t1-t2, decode and check t2-t3.
        self.spans: list[tuple] = []
        self.begin = self.end = 0.0

    def run(self) -> None:
        connection = self.server.connect()
        self.begin = self.end = clock()
        try:
            while self.end < self.deadline:
                index = self.index % len(self.stream)
                self.index += 1
                t0 = clock()
                body = body_for(self.stream[index])
                t1 = clock()
                try:
                    status, raw = post(connection, body)
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = self.server.connect()
                    self.end = clock()
                    self.samples.append((index, -1.0, 0.0, 0))
                    continue
                t2 = clock()
                engine_seconds = 0.0
                ok = False
                if status == 200:
                    payload = json.loads(raw)
                    engine_seconds = payload["seconds"]
                    ok = checks.canon_json(payload["answer"]) == self.expected[index]
                t3 = self.end = clock()
                self.samples.append((index, t3 - t0 if ok else -1.0, engine_seconds, status))
                if self.traced:
                    self.spans.append((index, t0, t1, t2, t3, engine_seconds, status))
        finally:
            connection.close()


def drive(server: Server, stream: list[inproc.Request], expected: dict, seconds: float, traced: bool) -> dict:
    """Run the clients for ``seconds``; returns samples, spans and /metrics deltas."""
    before = server.metrics()
    deadline = clock() + seconds
    clients = [
        Client(server, stream, expected, i * len(stream) // CONNECTIONS, deadline, traced)
        for i in range(CONNECTIONS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(seconds + 120.0)
        if client.is_alive():
            raise RuntimeError("a client connection hung")
    after = server.metrics()
    return {
        "samples": [s for c in clients for s in c.samples],
        "spans": [s for c in clients for s in c.spans],
        "elapsed": max(c.end for c in clients) - min(c.begin for c in clients),
        "metrics": {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after},
    }


def references(directory: Path, manifest: dict, stream: list[inproc.Request]) -> tuple[dict, set]:
    """Each request's direct engine answer (``vectorize`` on, as served),
    and the indices whose direct answer fails its SQLite check."""
    tables, pmappings = inproc.load_inputs(directory, manifest)
    expected: dict[int, tuple] = {}
    with AggregationEngine(tables, pmappings, **manifest["engine"]) as engine:
        for index, request in enumerate(stream):
            try:
                expected[index] = checks.canon(engine.answer(request.q, request.m, request.a))
            except ReproError as error:
                expected[index] = ("error", type(error).__name__)
    by_sqlite = inproc.sqlite_references(directory, manifest, stream)
    invalid = {
        index for index, request in enumerate(stream)
        if expected[index][0] == "error" or not inproc.valid_by_sqlite(request, expected[index], by_sqlite)
    }
    return expected, invalid


def run(directory: Path, manifest: dict, stream: list[inproc.Request], seconds: float, traced: bool,
        log_path: Path) -> dict:
    """Spawn a server before each slice of the untraced loop, stopping the
    previous one, so the ``setup_s`` median samples the whole run.  A
    traced run traces after the untraced slices, on the last server."""
    expected, invalid = references(directory, manifest, stream)
    warmup = [body_for(r) for r in inproc.warmup_requests(manifest, stream)]
    untraced_seconds = seconds * inproc.UNTRACED_SHARE if traced else seconds
    phases: list[dict] = []
    untraced: dict = {"samples": [], "elapsed": 0.0}
    server = None
    try:
        for slot in range(SETUPS):
            if server is not None:
                server.stop()
            inproc.pin(0, CLIENT_CPU + slot)
            t0 = clock()
            server = Server(directory, manifest, log_path, slot)
            server.wait_ready()
            connection = server.connect()
            try:
                for body in warmup:
                    post(connection, body)
            finally:
                connection.close()
            phases.append({"setup_s": clock() - t0})
            part = drive(server, stream, expected, untraced_seconds / SETUPS, False)
            untraced["samples"] += part["samples"]
            untraced["elapsed"] += part["elapsed"]
        result: dict = {"setup": phases, "untraced": untraced, "traced": None}
        if traced:
            result["traced"] = drive(server, stream, expected, seconds * (1.0 - inproc.UNTRACED_SHARE), True)
        result["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    for phase in ("untraced", "traced"):
        if result.get(phase):
            result[phase]["samples"] = [
                (i, -1.0 if i in invalid else s, e, status)
                for i, s, e, status in result[phase]["samples"]
            ]
    return result

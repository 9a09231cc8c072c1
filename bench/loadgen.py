"""The load generator and the handle on the cluster process.

The generator is the parent process: 2 threads, each with one
persistent HTTP/1.1 connection (``http.client``, ``TCP_NODELAY`` on
the client socket) — production clients pool connections.  A closed
loop sends a client's next request when the previous reply is fully
read; the open loop sends on a fixed schedule and times each request
from the instant it was *due*, so a stall is charged to every request
it delays.
"""

from __future__ import annotations

import http.client
import json
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from bench import OUT_DIR, ROOT

CLIENTS = 2

#: The cluster's stderr line asyncio prints for a task torn down live.
TEARDOWN_WARNING = "Task was destroyed but it is pending"


class ClusterProcess:
    """One ``bench.cluster`` child and the pipe to it."""

    def __init__(self, probes: bool = False, trace_jsonl: str = "") -> None:
        self.started = time.monotonic()
        OUT_DIR.mkdir(exist_ok=True)
        self._stderr = tempfile.TemporaryFile(dir=OUT_DIR)
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "bench.cluster",
                "--probes", str(int(probes)),
                "--trace-jsonl", trace_jsonl,
            ],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        self._pipe_lock = threading.Lock()
        hello = self._read()
        self.port: int = hello["port"]
        self.catalog: dict[str, Any] = hello["catalog"]

    def _read(self) -> dict[str, Any]:
        assert self._proc.stdout is not None
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                "cluster process ended early:\n" + self.stderr_text()[-2000:]
            )
        return json.loads(line)

    def request(self, op: str, **kwargs: Any) -> dict[str, Any]:
        """One command, one reply; callers on several threads take turns."""
        assert self._proc.stdin is not None
        with self._pipe_lock:
            self._proc.stdin.write(json.dumps({"op": op, **kwargs}) + "\n")
            self._proc.stdin.flush()
            return self._read()

    def stderr_text(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode(errors="replace")

    def stop(self) -> dict[str, Any]:
        """Stop the child cleanly and wait for it; returns teardown facts."""
        result: dict[str, Any] = {"drained": False}
        try:
            if self._proc.poll() is None:
                result = self.request("stop")
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            for pipe in (self._proc.stdin, self._proc.stdout):
                if pipe is not None:
                    pipe.close()
            try:
                self._proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        stderr = self.stderr_text()
        result["exit_code"] = self._proc.returncode
        result["teardown_warnings"] = stderr.count(TEARDOWN_WARNING)
        if self._proc.returncode != 0:
            result["stderr_tail"] = stderr[-2000:]
        self._stderr.close()
        return result


class Client:
    """One persistent connection to the front door."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.reconnect()

    def post(self, path: str, payload: dict[str, Any]) -> tuple[int, dict]:
        body = json.dumps(payload)
        self._conn.request(
            "POST", path, body, {"Content-Type": "application/json"}
        )
        response = self._conn.getresponse()
        return response.status, json.loads(response.read())

    def reconnect(self) -> None:
        self._conn.close()
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self._conn.close()


@dataclass(slots=True)
class Sample:
    """One request as the client saw it."""

    request: dict[str, Any]
    path: str
    due: float       # monotonic; equals ``sent`` in a closed loop
    sent: float
    done: float
    status: int
    body: dict[str, Any]

    @property
    def ok(self) -> bool:
        return self.status == 200


def _send(client: Client, path: str, request: dict, due: float) -> Sample:
    sent = time.monotonic()
    try:
        status, body = client.post(path, request)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        status, body = 0, {"error": repr(exc)}
        try:
            client.reconnect()  # the failed exchange left the socket unusable
        except OSError:
            pass
    return Sample(request, path, due if due else sent, sent,
                  time.monotonic(), status, body)


def warm_up(port: int, requests: list[tuple[str, dict]]) -> float:
    """Untimed requests over fresh connections; returns first-reply time."""
    first_reply = 0.0
    clients = [Client(port) for _ in range(CLIENTS)]
    try:
        for i, (path, request) in enumerate(requests):
            sample = _send(clients[i % CLIENTS], path, request, 0.0)
            if not sample.ok:
                raise RuntimeError(f"warm-up request failed: {sample.body}")
            if not first_reply:
                first_reply = sample.done
    finally:
        for client in clients:
            client.close()
    return first_reply


def run_parallel(tasks: list[Callable[[], Any]]) -> list[Any]:
    """Run each task on its own thread; re-raise the first failure."""
    with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
        futures = [pool.submit(task) for task in tasks]
    return [future.result() for future in futures]


def closed_client(
    port: int, stream: Iterator[tuple[str, dict]], start: float, seconds: float
) -> list[Sample]:
    """From ``start``, send the stream's requests back to back for ``seconds``."""
    client, samples = Client(port), []
    deadline = start + seconds
    try:
        time.sleep(max(0.0, start - time.monotonic()))
        for path, request in stream:
            if time.monotonic() >= deadline:
                break
            samples.append(_send(client, path, request, 0.0))
    finally:
        client.close()
    return samples


def open_client(
    port: int,
    requests: list[tuple[str, dict]],
    index: int,
    rate: float,
    start: float,
) -> list[Sample]:
    """Send requests ``index, index + CLIENTS, ...`` on one connection.

    Request ``k`` is due at ``start + k / rate``.  A connection still
    waiting for a reply sends its next request late; the sample keeps
    the due time.
    """
    client, samples = Client(port), []
    try:
        for k in range(index, len(requests), CLIENTS):
            due = start + k / rate
            time.sleep(max(0.0, due - time.monotonic()))
            path, request = requests[k]
            samples.append(_send(client, path, request, due))
    finally:
        client.close()
    return samples

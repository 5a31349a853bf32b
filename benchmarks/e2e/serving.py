"""The server from outside: process lifecycle and the load generator.

The server is the program's own CLI (``python -m repro serve``) in its
own process group, so the load generator never shares its interpreter
lock.  The generator speaks plain HTTP/1.1 keep-alive over sockets
with request bytes built before the clock starts; it checks every
response body against the bytes ``classify_files`` wrote for the same
reads, so a fast wrong answer counts as a failure.

Closed loop: each connection sends its next request when the previous
one returns (callers that wait for a reply).  Open loop: requests are
due on a fixed schedule spread over the connections, and latency runs
from the instant a request was *due*, so a stall is charged to every
request it delays (independent users).  Both come one window at a
time, so the orchestrator can alternate them.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Server", "Request", "LoadResult", "build_requests", "warm_up", "closed_window",
           "open_window", "http_get", "timed_roundtrips", "HEALTHZ_WIRE", "percentile",
           "child_env"]

_SRC = Path(__file__).resolve().parents[2] / "src"
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
_SOCKET_TIMEOUT_S = 30.0
LEAD_IN = 2  # untimed requests per connection at the head of an open-loop window


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Server:
    """``python -m repro serve --db DIR --mmap --port 0`` as a child.

    ``start`` returns once ``/healthz`` answers 200; ``stop`` sends
    SIGINT and requires a clean drain (exit code 0).  Whatever goes
    wrong, the whole process group is killed, so no server or pool
    worker outlives the benchmark.
    """

    def __init__(self, db_dir: Path) -> None:
        self.args = [sys.executable, "-m", "repro", "serve", "--db", str(db_dir),
                     "--mmap", "--port", "0"]
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.startup_s = 0.0
        self._banner: list[str] = []

    def start(self) -> "Server":
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.args, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        # the banner (with the bound port) is the first stderr line;
        # keep draining afterwards so the pipe can never fill
        found = threading.Event()

        def drain() -> None:
            assert self.proc is not None and self.proc.stderr is not None
            for line in self.proc.stderr:
                self._banner.append(line)
                if not found.is_set() and "http://" in line:
                    self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
                    found.set()
            found.set()  # EOF: the process died before binding

        self._drainer = threading.Thread(target=drain, daemon=True)
        self._drainer.start()
        try:
            if not found.wait(_START_TIMEOUT_S) or not self.port:
                raise RuntimeError(f"server did not bind: {''.join(self._banner)[-400:]}")
            deadline = time.perf_counter() + _START_TIMEOUT_S
            while True:
                try:
                    status, _ = http_get(self.port, "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    break
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server never answered /healthz 200")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.startup_s = time.perf_counter() - started
        return self

    def stop(self) -> bool:
        """SIGINT + wait; True iff the server drained and exited 0."""
        if self.proc is None:
            return False
        try:
            self.proc.send_signal(signal.SIGINT)
            code = self.proc.wait(_STOP_TIMEOUT_S)
        except (subprocess.TimeoutExpired, OSError):
            code = None
        self.kill()
        return code == 0

    def kill(self) -> None:
        """Kill the server's whole process group and reap it."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._drainer.join(5.0)
        if self.proc.stderr is not None:
            self.proc.stderr.close()

    def cpu_seconds(self) -> float:
        """User + system CPU so far of the server and its pool workers.

        The server leads its own session, so its session id picks out
        exactly the processes it started.
        """
        assert self.proc is not None
        ticks = 0
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:  # the process ended while we were looking
                continue
            if int(fields[3]) == self.proc.pid:  # session id
                ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stats(self) -> dict:
        status, body = http_get(self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)


# ------------------------------------------------------------------ HTTP


class _Connection:
    """One keep-alive HTTP/1.1 connection (Content-Length framing only)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=_SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def roundtrip(self, wire: bytes) -> tuple[int, bytes]:
        self.sock.sendall(wire)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            self._buffer = rest
            self._fill()
            rest = self._buffer
        self._buffer = rest[length:]
        return status, rest[:length]

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        self.sock.close()


def _wire(method: str, path: str, body: bytes = b"", content_type: str = "") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
    if content_type:
        head += f"Content-Type: {content_type}\r\n"
    return head.encode() + b"\r\n" + body


def http_get(port: int, path: str) -> tuple[int, bytes]:
    conn = _Connection(port)
    try:
        return conn.roundtrip(_wire("GET", path))
    finally:
        conn.close()


def timed_roundtrips(port: int, wires: list[bytes]) -> list[float]:
    """Latency (ms) of sequential exchanges on one otherwise idle connection."""
    conn = _Connection(port)
    try:
        times = []
        for wire in wires:
            t0 = time.perf_counter()
            status, _ = conn.roundtrip(wire)
            if status == 200:
                times.append((time.perf_counter() - t0) * 1e3)
        return times
    finally:
        conn.close()


HEALTHZ_WIRE = _wire("GET", "/healthz")


@dataclass(frozen=True)
class Request:
    """One pre-built ``POST /classify`` and the body a right answer has."""

    wire: bytes
    expected: bytes
    n_reads: int


def build_requests(reads: list[tuple[str, str]], expected_tsv: list[bytes],
                   header_line: bytes, per_request: int) -> list[Request]:
    """Cut the read set into JSON requests, in file order.

    ``expected_tsv[i]`` is the line ``classify_files`` wrote for read
    ``i``; a response must equal the header plus those lines.
    """
    requests = []
    for i in range(0, len(reads) - per_request + 1, per_request):
        body = json.dumps({"reads": [list(r) for r in reads[i : i + per_request]]}).encode()
        requests.append(Request(
            wire=_wire("POST", "/classify", body, "application/json"),
            expected=header_line + b"".join(expected_tsv[i : i + per_request]),
            n_reads=per_request,
        ))
    return requests


@dataclass
class LoadResult:
    """What the generator observed; the lists have one entry per window."""

    sent: int = 0
    failed: int = 0  # not answered 200 (refused, errored, connection lost)
    wrong: int = 0  # answered 200 with a body that is not the expected one
    reads_per_s: list[float] = field(default_factory=list)  # closed-loop windows
    latencies_ms: list[list[float]] = field(default_factory=list)  # open-loop windows, good replies
    sent_per_window: int = 0  # open loop
    late_ms: list[float] = field(default_factory=list)  # open loop: sent - due

    def merge(self, other: "LoadResult") -> None:
        self.sent += other.sent
        self.failed += other.failed
        self.wrong += other.wrong
        self.reads_per_s += other.reads_per_s
        self.latencies_ms += other.latencies_ms
        self.sent_per_window = other.sent_per_window or self.sent_per_window
        self.late_ms += other.late_ms


class _Caller:
    """One generator thread's connection and its tallies."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: _Connection | None = None
        self.tally = LoadResult()

    def connect(self) -> None:
        """Connect ahead of the clock; a failure is left for ``send`` to meet."""
        try:
            self.conn = _Connection(self.port)
        except OSError:
            self.conn = None

    def send(self, request: Request) -> bool:
        """True iff the reply was 200 with the right body; reconnects after an error."""
        self.tally.sent += 1
        try:
            if self.conn is None:
                self.conn = _Connection(self.port)
            status, body = self.conn.roundtrip(request.wire)
        except (OSError, ValueError, IndexError):
            self.close()
            self.tally.failed += 1
            return False
        if status != 200:
            self.tally.failed += 1
        elif body != request.expected:
            self.tally.wrong += 1
        else:
            return True
        return False

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def warm_up(port: int, requests: list[Request], connections: int, each: int) -> LoadResult:
    """``each`` requests on each of ``connections`` connections, untimed."""
    result = LoadResult()
    lock = threading.Lock()

    def caller(k: int) -> None:
        me = _Caller(port)
        for i in range(each):
            me.send(requests[(k * each + i) % len(requests)])
        me.close()
        with lock:
            result.merge(me.tally)

    _run_threads(caller, connections)
    return result


def closed_window(port: int, requests: list[Request], connections: int,
                  window_s: float, first: int) -> LoadResult:
    """One window of ``connections`` callers, each sending as soon as its reply is in.

    Requests are dealt from ``requests[first:]`` in order (wrapping)
    to whichever caller is free; only reads whose reply arrived
    inside the window count.
    """
    result = LoadResult()
    lock = threading.Lock()
    cursor = [first]
    done_reads = [0] * connections
    start = time.perf_counter() + 0.02
    end = start + window_s

    def caller(k: int) -> None:
        me = _Caller(port)
        me.connect()
        time.sleep(max(0.0, start - time.perf_counter()))
        while time.perf_counter() < end:
            with lock:
                request = requests[cursor[0] % len(requests)]
                cursor[0] += 1
            if me.send(request) and time.perf_counter() < end:
                done_reads[k] += request.n_reads
        me.close()
        with lock:
            result.merge(me.tally)

    _run_threads(caller, connections)
    result.reads_per_s = [sum(done_reads) / window_s]
    return result


def open_window(port: int, requests: list[Request], connections: int,
                window_s: float, rate: float, first: int) -> LoadResult:
    """One window in which request ``j`` is due at ``start + j / rate``.

    Request ``j`` goes out on connection ``j % connections``.  A
    connection still busy when its next request falls due sends it
    late; the lateness is part of that request's latency (timed from
    the due instant), and is reported on its own as how far behind the
    generator ran.

    The first ``LEAD_IN`` requests of each connection are sent on the
    same schedule ahead of ``start`` and checked, but not timed: the
    first replies on a new connection, or after an idle spell, are
    ~2 ms slower -- two per connection and window is little, but it
    is a third of the samples beyond a pooled p95.
    """
    result = LoadResult(sent_per_window=int(window_s * rate))
    lock = threading.Lock()
    good: list[float] = []
    lead_in = LEAD_IN * connections
    start = time.perf_counter() + 0.02 + lead_in / rate

    def caller(k: int) -> None:
        me = _Caller(port)
        me.connect()
        mine: list[float] = []
        late: list[float] = []
        for j in range(k - lead_in, result.sent_per_window, connections):
            due = start + j / rate
            time.sleep(max(0.0, due - time.perf_counter()))
            sent_late = (time.perf_counter() - due) * 1e3
            right = me.send(requests[(first + j) % len(requests)])
            if j >= 0:
                late.append(sent_late)
                if right:
                    mine.append((time.perf_counter() - due) * 1e3)
        me.close()
        with lock:
            result.merge(me.tally)
            result.late_ms += late
            good.extend(mine)

    _run_threads(caller, connections)
    result.latencies_ms = [good]
    return result


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(k,)) for k in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; ``share`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(share * len(ordered)) - 1))]

"""Server processes, a blocking wire client and the closed-loop generator.

Every server is the unmodified ``python -m repro serve`` in its own
process (or, for a traced run, ``perfbench/launcher.py`` handing over
to the same command).  The load generator is this process: at most two
connections, each a closed loop on its own thread that sends the next
request only after the previous reply arrived.  Every request is built
before the clock starts, and replies are kept as raw bytes while the
clock runs and decoded afterwards, so the threads do nothing but socket
I/O and time stamps during the measured window.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (snapshots, data dirs, traces).
WORK = ROOT / ".perfbench_work"

#: How long a server may take to print its ``serving on`` line.
START_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run or a server misbehaved."""


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, args: list[str], *, name: str, log_dir: Path,
                 trace_file: Path | None = None) -> None:
        self.args = list(args)
        self.name = name
        self.log_path = log_dir / f"{name}.log"
        self.trace_file = trace_file
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self._log = None

    def start(self) -> "ServerProcess":
        serve = ["serve", *self.args, "--port", "0"]
        if self.trace_file is not None:
            command = [sys.executable, str(BENCH / "launcher.py"),
                       str(self.trace_file), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=server_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        line = self._read_line(START_TIMEOUT_S)
        if not line.startswith("serving on "):
            self.kill()
            raise BenchError(f"{self.name} did not start ({line}): "
                             f"{self.log_path.read_text()[-2000:]}")
        self.host, port = line.split()[-1].rsplit(":", 1)
        self.port = int(port)
        return self

    def _read_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        stream = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.05)
            if ready:
                return stream.readline().decode("utf-8", "replace").strip()
            if self.proc.poll() is not None:
                return f"exited with {self.proc.returncode}"
        return "timed out"

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process, MB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def dump_trace(self, timeout: float = 30.0) -> None:
        """Ask a traced server to write its spans now (before a kill)."""
        if self.trace_file is None:
            return
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.trace_file.exists():
                return
            time.sleep(0.01)
        raise BenchError(f"{self.name} wrote no trace")

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain (SIGTERM); SIGKILL if it does not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()

    def kill(self) -> None:
        """Crash the server: SIGKILL, no drain, no final journal."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None


class Connection:
    """A blocking client speaking the length-prefixed JSON frames."""

    def __init__(self, server: ServerProcess) -> None:
        self.sock = socket.create_connection((server.host, server.port),
                                             timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, request: dict) -> None:
        body = json.dumps(request, separators=(",", ":")).encode()
        self.sock.sendall(len(body).to_bytes(4, "big") + body)

    def receive(self) -> bytes:
        length = int.from_bytes(self._exact(4), "big")
        return self._exact(length)

    def _exact(self, count: int) -> bytes:
        buffer = bytearray(count)
        view = memoryview(buffer)
        got = 0
        while got < count:
            chunk = self.sock.recv_into(view[got:])
            if not chunk:
                raise BenchError("server closed the connection")
            got += chunk
        return bytes(buffer)

    def call(self, request: dict) -> dict:
        self.send(request)
        return json.loads(self.receive())

    def close(self) -> None:
        self.sock.close()


def call_ok(server: ServerProcess, request: dict) -> dict:
    """One request on a fresh connection; raises unless ``ok``."""
    connection = Connection(server)
    try:
        response = connection.call(request)
    finally:
        connection.close()
    if not response.get("ok"):
        raise BenchError(f"{request.get('op')} failed: {response}")
    return response


def stats(server: ServerProcess) -> dict:
    return call_ok(server, {"op": "stats"})["stats"]


class Sample:
    """One request of a closed loop: what was sent, when, what came back."""

    __slots__ = ("op", "round", "start", "end", "raw")

    def __init__(self, op, round_key: tuple, start: float, end: float,
                 raw: bytes) -> None:
        self.op = op
        #: ``(connection, round index)``
        self.round = round_key
        self.start = start
        self.end = end
        self.raw = raw


class Rounds:
    """The rounds one connection replays, built before the clock starts.

    ``make(i)`` returns the operations of round ``i``; each has a
    ``request`` dict.  ``count`` rounds are built up front, several
    times what the window is expected to use; should a much faster
    program run past them, later rounds are built on demand and
    ``late`` counts them.
    """

    def __init__(self, make, count: int) -> None:
        self.make = make
        self.built = [make(index) for index in range(count)]
        self.late = 0

    def __getitem__(self, index: int) -> list:
        if index < len(self.built):
            return self.built[index]
        self.late += 1
        return self.make(index)


def closed_loop(server: ServerProcess, rounds: Rounds, deadline: float,
                samples: list, errors: list, number: int) -> None:
    """Replay whole rounds until ``deadline``; one thread, one socket.

    A round is always finished, so every run attempts whole rounds
    whatever its length.
    """
    try:
        connection = Connection(server)
        clock = time.perf_counter
        index = 0
        try:
            while True:
                key = (number, index)
                for op in rounds[index]:
                    start = clock()
                    connection.send(op.request)
                    raw = connection.receive()
                    samples.append(Sample(op, key, start, clock(), raw))
                index += 1
                if clock() >= deadline:
                    return
        finally:
            connection.close()
    except Exception as error:  # noqa: BLE001 - reported by the caller
        errors.append(error)


class Window(NamedTuple):
    """``start`` to ``deadline`` is timed; ``end`` is when the last
    round (finished after the deadline) was answered; ``late`` counts
    the rounds that had to be built inside the window."""

    start: float
    deadline: float
    end: float
    late: int


def drive(loops: list[tuple], seconds: float) -> Window:
    """Run closed loops side by side.

    ``loops`` holds ``(server, rounds, samples)`` triples, one per
    connection.  The timed window is exactly ``seconds`` long; requests
    that finish after it (completing the last round) are attempted and
    checked but not timed.
    """
    start = time.perf_counter()
    deadline = start + seconds
    errors: list = []
    threads = [threading.Thread(target=closed_loop,
                                args=(server, rounds, deadline, samples,
                                      errors, number))
               for number, (server, rounds, samples) in enumerate(loops)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    return Window(start, deadline, time.perf_counter(),
                  sum(rounds.late for _, rounds, _ in loops))


def quartile(values: list[float]) -> float:
    """The first quartile (the median of a single value)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def round_figures(samples: list, window: Window) -> tuple[float, float]:
    """``(ops_per_s, read_p50_ms)`` from the faster quarter of the rounds.

    Every round of a connection has the same make-up, so each round
    that started and ended inside the timed window is one measurement
    of the same work.  The throughput sums, over the connections, a
    round's operations over the first quartile of its round durations;
    the latency is the first quartile of the rounds' median read
    latencies.  A stretch in which the shared host ran slow only ever
    lengthens rounds, so the faster quarter moves less with it than a
    mean or median over the window does.
    """
    rounds: dict[tuple, list] = {}
    for sample in samples:
        rounds.setdefault(sample.round, []).append(sample)
    spans = {key: (min(s.start for s in group), max(s.end for s in group))
             for key, group in rounds.items()}
    inside = [key for key, (first, last) in spans.items()
              if first >= window.start and last <= window.deadline]
    if not inside:
        # A window shorter than one round: every round it began counts.
        inside = [key for key, (first, _) in spans.items()
                  if first >= window.start]
    durations: dict[int, list] = {}
    size: dict[int, int] = {}
    latencies = []
    for key in inside:
        group = rounds[key]
        first, last = spans[key]
        durations.setdefault(key[0], []).append(last - first)
        size[key[0]] = len(group)
        reads = [(s.end - s.start) * 1000.0 for s in group
                 if s.op.kind != "write"]
        if reads:
            latencies.append(statistics.median(reads))
    return (sum(size[c] / quartile(d) for c, d in durations.items()),
            quartile(latencies))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(fraction * len(ordered) + 0.5)))
    return ordered[rank - 1]


#: Fewest samples of an operation a run needs for its p99 to be
#: reported, so that ten samples lie beyond it.
P99_SAMPLES = 1000


def latency_metrics(prefix: str, latencies_s: list[float]) -> dict:
    """``<prefix>_p50_ms`` of a non-empty list, and ``<prefix>_p99_ms``
    when it holds at least ``P99_SAMPLES`` latencies."""
    if not latencies_s:
        return {}
    ms = [value * 1000.0 for value in latencies_s]
    figures = {f"{prefix}_p50_ms": statistics.median(ms)}
    if len(ms) >= P99_SAMPLES:
        figures[f"{prefix}_p99_ms"] = percentile(ms, 0.99)
    return figures


def median_of(times: int, start, stop) -> tuple[float, object]:
    """Median seconds of ``times`` calls of ``start(last)``.

    Each result but the last is passed to ``stop`` before the next
    call, outside the timed part; the last one is returned.
    """
    durations = []
    result = None
    for attempt in range(times):
        if result is not None:
            stop(result)
        began = time.perf_counter()
        result = start(attempt == times - 1)
        durations.append(time.perf_counter() - began)
    return statistics.median(durations), result

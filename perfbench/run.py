"""The layered serving benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload company-paths --seed 1 \\
        --seconds 20 --trace 0

Builds its inputs from ``--seed``, starts the unmodified
``python -m repro serve`` as one process per server, drives it from
this process over at most two closed-loop connections for ``--seconds``
seconds, checks every answer against an oracle of its own, and prints
each metric by name with its unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
servers run under ``launcher.py`` and the metrics are the per-layer
ones of ``layers.py``).  ``--all-metrics 1`` adds the end-to-end
figures that carry no bound to an untraced run's ``metrics``.  See
README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import company  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import rebac  # noqa: E402
from harness import (BenchError, Connection, Rounds,  # noqa: E402
                     ServerProcess, call_ok, drive, latency_metrics,
                     median_of, stats)

#: End-to-end metrics every workload reports, with units; each has a
#: bound in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "server_rss_mb": "MB"}
#: End-to-end figures printed without a bound.  Some workloads lack
#: the write, tail and replica figures; throughput, latency and restart
#: time spread past the largest allowed bound (0.25) whenever the
#: shared host's disk or cores ran slow for a few runs (see README.md).
UNBOUNDED = {"ops_per_s": "1/s", "read_p50_ms": "ms", "read_p99_ms": "ms",
             "write_p50_ms": "ms", "write_p99_ms": "ms", "restart_s": "s",
             "replica_entries_per_s": "1/s", "wal_bytes_per_entry": "B"}

#: Set-ups (and crash restarts) per run; the median is reported.
SETUPS = 3
RESTARTS = 7

#: Rounds built before the clock starts, per second of the window and
#: connection: about four times what each workload uses on a 2-core
#: machine (company-paths 3.2 rounds/s; rebac-check 0.3 per
#: connection; durable-ingest 14 write rounds/s and 6 read rounds/s).
COMPANY_ROUNDS_PER_S = 13
REBAC_ROUNDS_PER_S = 1.2
INGEST_WRITE_ROUNDS_PER_S = 50
INGEST_READ_ROUNDS_PER_S = 25

#: durable-ingest: WAL size that triggers a background checkpoint, and
#: the batches written after the last checkpoint before the crash.
CHECKPOINT_BYTES = 512 * 1024
SUFFIX_BATCHES = 100

#: rebac-check: distinct (user, document) pairs, the hot head among
#: them, and the reads of one round drawn from the head and the tail.
#: A fixed split gives every round the same number of memo misses.
POOL_PAIRS = 1024
HOT_PAIRS = 8
HOT_READS = 68
TAIL_READS = 30


class Op:
    """One request of a closed loop; ``key`` is what the oracle needs."""

    __slots__ = ("kind", "request", "key")

    def __init__(self, kind: str, request: dict, key) -> None:
        self.kind = kind
        self.request = request
        self.key = key


def query(text: str) -> dict:
    return {"op": "query", "query": text}


def write(changes: list) -> dict:
    return {"op": "write", "changes": changes}


class Run:
    """State of one benchmark run: directory, servers, verdict."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = harness.WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.servers: list[ServerProcess] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.mismatches: list[str] = []
        self.e2e: dict[str, float] = {}
        self.client: dict = {"program": False}
        self.window: harness.Window | None = None
        #: Also put the unbounded end-to-end figures into ``metrics``.
        self.all_metrics = False
        self.traces: dict[str, list[str]] = {"readers": [], "writer": [],
                                             "restarts": []}

    def start(self, name: str, args: list[str], *, role: str | None = None
              ) -> ServerProcess:
        """Start a server; ``role`` names its trace group when tracing."""
        trace = None
        if self.trace and role is not None:
            trace = self.dir / f"{name}.trace.json"
            for group in role.split("+"):
                self.traces[group].append(trace)
        server = ServerProcess(args, name=name, log_dir=self.dir,
                               trace_file=trace).start()
        self.servers.append(server)
        return server

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.wrong += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(what)
        return ok

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- shared steps ----------------------------------------------------

    def warm(self, server: ServerProcess, ops: list[Op], check) -> None:
        """Fill the server's caches with ``ops``, checking each answer."""
        connection = Connection(server)
        try:
            for op in ops:
                response = connection.call(op.request)
                if not response.get("ok"):
                    raise BenchError(f"warm-up request failed: {response}")
                self.expect(check(op, response), f"warm-up {op.key}")
        finally:
            connection.close()

    def decode(self, samples: list) -> list[tuple]:
        """``(sample, response)`` for every request; counts failures."""
        decoded = []
        for sample in samples:
            response = json.loads(sample.raw)
            sample.raw = None
            self.attempted += 1
            if not response.get("ok"):
                self.failed += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(f"{sample.op.key}: {response}")
                continue
            decoded.append((sample, response))
        return decoded

    def write_checked(self, connection: Connection, changes: list,
                      what: str) -> None:
        """One write outside the measured window, counted and checked."""
        response = connection.call(write(changes))
        self.attempted += 1
        if not response.get("ok"):
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{what}: {response}")
            return
        self.expect(response["applied"] == len(changes),
                    f"{what} applied {response['applied']}")

    def timings(self, decoded: list[tuple], window: harness.Window) -> None:
        """Throughput and latency over the requests inside the window."""
        self.window = window
        timed = [(s, r) for s, r in decoded if s.start >= window.start
                 and s.end <= window.deadline]
        reads = [(s, r) for s, r in timed if s.op.kind != "write"]
        writes = [s for s, _ in timed if s.op.kind == "write"]
        self.e2e["ops_per_s"], self.e2e["read_p50_ms"] = \
            harness.round_figures([s for s, _ in decoded], window)
        read = latency_metrics("read", [s.end - s.start for s, _ in reads])
        if "read_p99_ms" in read:
            self.e2e["read_p99_ms"] = read["read_p99_ms"]
        self.e2e.update(latency_metrics(
            "write", [s.end - s.start for s in writes]))
        self.client["reads"] = len(reads)
        self.client["writes_timed"] = len(writes)
        self.client["overhead_ms"] = statistics.median(
            (s.end - s.start) * 1000.0 - r["elapsed_ms"] for s, r in reads)
        self.client["ops_per_s"] = self.e2e["ops_per_s"]

    def restart(self, args: list[str], probe: Op, check, *,
                prepare=None) -> ServerProcess:
        """Median seconds from spawning a crashed primary until its first
        correct answer; the last restarted server is returned running.

        ``prepare(args)`` runs before each spawn, outside the clock.
        """
        durations = []
        server = None
        for attempt in range(RESTARTS):
            if server is not None:
                server.stop()
            server_args = prepare(args) if prepare else args
            began = time.perf_counter()
            server = self.start(f"restart{attempt}", server_args,
                                role="restarts")
            response = call_ok(server, probe.request)
            durations.append(time.perf_counter() - began)
            self.expect(check(probe, response), f"restart probe {probe.key}")
        self.e2e["restart_s"] = statistics.median(durations)
        return server


# -- company-paths ----------------------------------------------------------

def company_paths(run: Run) -> None:
    text = company.build_snapshot(run.seed)
    snapshot = run.dir / "company.json"
    snapshot.write_text(text)
    facts = company.Facts(json.loads(text))
    del text
    expected: dict = {}

    def maker(stream):
        def make(index: int) -> list[Op]:
            rng = random.Random(f"company-{run.seed}-{stream}-{index}")
            names = list(company.ROUND)
            rng.shuffle(names)
            ops = []
            for name in names:
                template = company.TEMPLATES[name]
                constants = template.draw(rng)
                ops.append(Op(template.kind, query(template.query(constants)),
                              (name, tuple(sorted(constants.items())))))
            return ops
        return make

    def check(op: Op, response: dict) -> bool:
        if op.key not in expected:
            expected[op.key] = facts.answers(op.key[0], dict(op.key[1]))
        variables, want = expected[op.key]
        answers = response["answers"]
        rows = [tuple(a.get(v) for v in variables) for a in answers]
        # A path ending in an object denotes a set: no answer repeats.
        return (len(rows) == len(set(rows)) and set(rows) == want
                and all(len(a) == len(variables) for a in answers))

    args = ["--db", str(snapshot)]
    warm = maker("warm")(0)
    rounds = Rounds(maker(0), round(COMPANY_ROUNDS_PER_S * run.seconds))

    def setup(last: bool) -> ServerProcess:
        server = run.start("primary" if last else "setup", args,
                           role="readers+writer" if last else None)
        run.warm(server, warm, check)
        return server

    run.e2e["setup_s"], server = median_of(SETUPS, setup,
                                           ServerProcess.stop)
    # One connection: with no writes there is nothing for a second one
    # to interleave with, and two CPU-bound requests would only share
    # the server's interpreter lock, so latency would measure lock
    # hand-offs rather than the layers.
    samples: list = []
    window = drive([(server, rounds, samples)], run.seconds)
    run.e2e["server_rss_mb"] = server.peak_rss_mb()
    decoded = run.decode(samples)
    for sample, response in decoded:
        run.expect(check(sample.op, response), f"answer of {sample.op.key}")
    run.timings(decoded, window)
    server.dump_trace()
    server.kill()
    run.restart(args, warm[0], check).stop()


# -- rebac-check ------------------------------------------------------------

def rebac_check(run: Run) -> None:
    graph = rebac.Graph(run.seed)
    snapshot = run.dir / "rebac.json"
    snapshot.write_text(graph.snapshot())
    policy = run.dir / "policy.plog"
    policy.write_text(rebac.POLICY)
    run.client["program"] = True
    base = rebac.Oracle(graph)

    # A pool of distinct (user, document) pairs whose users and
    # documents are Zipf-skewed; its first HOT_PAIRS pairs are the hot
    # head, which fits the 16-entry demand memo, the rest the long tail.
    rng = random.Random(f"rebac-pairs-{run.seed}")
    users = list(graph.users)
    documents = list(graph.documents)
    rng.shuffle(users)
    rng.shuffle(documents)
    user_rank = rebac.Zipf(len(users), 1.0)
    document_rank = rebac.Zipf(len(documents), 1.0)
    pool: dict = {}
    while len(pool) < POOL_PAIRS:
        pool[(users[user_rank.draw(rng)],
              documents[document_rank.draw(rng)])] = None
    hot, tail = list(pool)[:HOT_PAIRS], list(pool)[HOT_PAIRS:]

    def read(pair) -> Op:
        return Op("read", query(f"{pair[0]}[canRead ->> {{{pair[1]}}}]"),
                  pair)

    def maker(stream: int):
        # Each connection toggles memberships of its own users only, so
        # two writes in flight never touch the same fact.
        own = [u for k, u in enumerate(graph.users) if k % 2 == stream]

        def make(index: int) -> list[Op]:
            rng = random.Random(f"rebac-{run.seed}-{stream}-{index}")
            ops = ([read(rng.choice(hot)) for _ in range(HOT_READS)]
                   + [read(rng.choice(tail)) for _ in range(TAIL_READS)])
            rng.shuffle(ops)
            first, second = rebac.toggle(graph.member, own, graph.groups,
                                         rng)
            ops.insert(33, Op("write", write([first]), first))
            ops.insert(66, Op("write", write([second]), second))
            return ops
        return make

    def check_base(op: Op, response: dict) -> bool:
        return bool(response["answers"]) == base.can_read(*op.key)

    args = [str(policy), "--db", str(snapshot)]
    warm = [read(pair) for pair in tail[:24] + hot]

    def setup(last: bool) -> ServerProcess:
        server = run.start("primary" if last else "setup", args,
                           role="readers+writer" if last else None)
        run.warm(server, warm, check_base)
        return server

    run.e2e["setup_s"], server = median_of(SETUPS, setup,
                                           ServerProcess.stop)
    version = stats(server)["version"]
    samples: list = [[], []]
    count = round(REBAC_ROUNDS_PER_S * run.seconds)
    window = drive([(server, Rounds(maker(0), count), samples[0]),
                    (server, Rounds(maker(1), count), samples[1])],
                   run.seconds)
    run.e2e["server_rss_mb"] = server.peak_rss_mb()
    decoded = run.decode(samples[0] + samples[1])
    run.timings(decoded, window)
    run.client["writes"] = sum(1 for s, _ in decoded if s.op.kind == "write")
    # Every write changes one fact and bumps the data version by one,
    # so a read's version names exactly the writes it must reflect.
    writes = sorted((r["version"], s.op.key) for s, r in decoded
                    if s.op.kind == "write")
    run.expect([v for v, _ in writes]
               == list(range(version + 1, version + 1 + len(writes))),
               "write versions are not one per write")
    for sample, response in decoded:
        if sample.op.kind == "write":
            run.expect(response["applied"] == 1,
                       f"write {sample.op.key} applied {response['applied']}")
    oracle = rebac.Oracle(graph)
    reads = sorted(((r["version"], s.op.key, bool(r["answers"]))
                    for s, r in decoded if s.op.kind == "read"),
                   key=lambda item: item[0])
    applied = 0
    for read_version, (user, document), answer in reads:
        while applied < len(writes) and writes[applied][0] <= read_version:
            oracle.apply(writes[applied][1])
            applied += 1
        run.expect(answer == oracle.can_read(user, document),
                   f"{user} canRead {document} at version {read_version}")
    server.dump_trace()
    server.kill()
    run.restart(args, warm[-1], check_base).stop()


# -- durable-ingest ---------------------------------------------------------

DUMPS = {
    "X[memberOf ->> {G}]": ("X", "G"),
    "G[reads ->> {D}]": ("G", "D"),
    "D[parent -> F]": ("D", "F"),
    "X : document": ("X",),
}


def dump_rows(model: rebac.Oracle, text: str) -> set:
    if text.startswith("X[memberOf"):
        return {(x, g) for x, gs in model.member.items() for g in gs}
    if text.startswith("G[reads"):
        return {(g, d) for g, ds in model.reads.items() for d in ds}
    if text.startswith("D[parent"):
        return set(model.parent.items())
    return {(x,) for x, cls in model.isa if cls == "document"}


def answer_rows(response: dict, variables) -> set:
    return {tuple(a[v] for v in variables) for a in response["answers"]}


def wait_applied(replica: ServerProcess, cursor: int,
                 timeout: float = 60.0) -> float:
    """Poll the replica until it applied ``cursor``; returns that time."""
    connection = Connection(replica)
    deadline = time.perf_counter() + timeout
    try:
        while time.perf_counter() < deadline:
            health = connection.call({"op": "health"})
            if health["applied_cursor"] >= cursor:
                return time.perf_counter()
            time.sleep(0.001)
    finally:
        connection.close()
    raise BenchError(f"replica did not reach cursor {cursor}")


def settle_checkpoints(run: Run, primary: ServerProcess,
                       connection: Connection, stream: rebac.IngestStream,
                       data_dir: Path) -> None:
    """Write until a checkpoint at the head leaves a short WAL.

    Each pass writes at least one batch, and on until the WAL reaches
    the checkpoint trigger, then waits for a snapshot at the durable
    cursor.  The trigger also counts the segments kept for the older of
    the two retained snapshots, so the WAL can still read over it after
    that checkpoint; the server then checkpoints again on every poll at
    the same cursor, and only a write lets the next checkpoint retire
    the older snapshot, so the next pass writes again.  Settling ends
    once a checkpoint at the head leaves less than half the trigger:
    the checkpointer is then idle, and the fixed suffix written next
    neither crosses the trigger nor shares its replay with earlier
    batches.
    """
    from repro.oodb.checkpoint import snapshot_files

    deadline = time.monotonic() + 60.0

    def head_checkpoint() -> dict | None:
        """The durability stats once a snapshot is at the head."""
        while time.monotonic() < deadline:
            time.sleep(0.05)
            durability = stats(primary)["durability"]
            if snapshot_files(data_dir)[0][0] == durability["durable_cursor"]:
                return durability
        return None

    while time.monotonic() < deadline:
        run.write_checked(connection, stream.batch(), "settle batch")
        while stats(primary)["durability"]["wal_size"] < CHECKPOINT_BYTES:
            run.write_checked(connection, stream.batch(), "settle batch")
        durability = head_checkpoint()
        if (durability is not None
                and durability["wal_size"] < CHECKPOINT_BYTES // 2):
            return
    raise BenchError("background checkpoints did not settle")


def durable_ingest(run: Run) -> None:
    graph = rebac.Graph(run.seed)
    snapshot = run.dir / "rebac.json"
    snapshot.write_text(graph.snapshot())
    stream = rebac.IngestStream(graph, run.seed)
    durable = ["--fsync", "batch", "--checkpoint-bytes",
               str(CHECKPOINT_BYTES)]

    def read_round(index: int) -> list[Op]:
        rng = random.Random(f"ingest-reads-{run.seed}-{index}")
        ops = []
        for _ in range(18):
            user = rng.choice(graph.users)
            ops.append(Op("read", query(f"{user}[memberOf ->> {{G}}]"),
                          ("memberships", user)))
        for _ in range(14):
            group = rng.choice(graph.groups)
            ops.append(Op("read", query(f"{group}[reads ->> {{D}}]"),
                          ("granted", group)))
        for _ in range(13):
            folder = rng.choice(graph.folders)
            ops.append(Op("read", query(f"D[parent -> {folder}]"),
                          ("children", folder)))
        # A tenth of the reads scan a whole relationship, so the tail
        # latency is set by work rather than by scheduling hiccups.
        for text in rng.sample(list(DUMPS), 3) + rng.sample(list(DUMPS), 2):
            ops.append(Op("read", query(text), ("dump", text)))
        rng.shuffle(ops)
        return ops

    def write_round(index: int) -> list[Op]:
        ops = []
        for _ in range(20):
            changes = stream.batch()
            ops.append(Op("write", write(changes), stream.batches))
        return ops

    base = rebac.Oracle(graph)

    def check_with(model: rebac.Oracle):
        def check(op: Op, response: dict) -> bool:
            kind, argument = op.key
            if kind == "dump":
                return (answer_rows(response, DUMPS[argument])
                        == dump_rows(model, argument))
            variable = "G" if kind == "memberships" else "D"
            return (answer_rows(response, [variable])
                    == getattr(model, kind)(argument))
        return check

    warm = read_round(-1)
    data_dir = run.dir / "data"

    def setup(last: bool):
        shutil.rmtree(data_dir, ignore_errors=True)
        primary = run.start("primary" if last else "setup",
                            ["--db", str(snapshot), "--data-dir",
                             str(data_dir), *durable],
                            role="writer" if last else None)
        replica = run.start("replica" if last else "setup-replica",
                            ["--replica-of", primary.endpoint],
                            role="readers" if last else None)
        run.warm(replica, warm, check_with(base))
        return primary, replica

    def stop(servers) -> None:
        for server in reversed(servers):
            server.stop()

    run.e2e["setup_s"], (primary, replica) = median_of(SETUPS, setup, stop)
    write_rounds = Rounds(write_round,
                          round(INGEST_WRITE_ROUNDS_PER_S * run.seconds))
    read_rounds = Rounds(read_round,
                         round(INGEST_READ_ROUNDS_PER_S * run.seconds))
    primary_before = stats(primary)
    replica_before = stats(replica)
    start_cursor = replica_before["replication"]["applied_cursor"]
    writes: list = []
    reads: list = []
    window = drive([(primary, write_rounds, writes),
                    (replica, read_rounds, reads)], run.seconds)
    primary_after = stats(primary)
    # Read before the crash preparation below: after the final dumps'
    # queries the primary keeps every later change-log entry, and how
    # many settle writes follow depends on the WAL's state.
    run.e2e["server_rss_mb"] = primary.peak_rss_mb()
    # The batches built ahead but not sent are taken back.
    stream.rewind(len(writes))
    batches = list(stream.made)
    decoded_writes = run.decode(writes)
    decoded_reads = run.decode(reads)
    run.timings(decoded_writes + decoded_reads, window)
    for sample, response in decoded_writes:
        run.expect(response["applied"] == rebac.IngestStream.ENTRIES,
                   f"batch {sample.op.key} applied {response['applied']}")
    entries = rebac.IngestStream.ENTRIES * len(batches)
    converged = wait_applied(replica, start_cursor + entries)
    first_write = min(s.start for s in writes)
    run.e2e["replica_entries_per_s"] = entries / (converged - first_write)
    replica_after = stats(replica)
    run.client.update(
        writes=len(writes),
        wal_syncs=(primary_after["durability"]["wal_syncs"]
                   - primary_before["durability"]["wal_syncs"]),
        repl_entries=(replica_after["repl_entries_applied"]
                      - replica_before["repl_entries_applied"]),
        repl_batches=(replica_after["repl_batches_applied"]
                      - replica_before["repl_batches_applied"]))

    # Every replica read at primary cursor c saw exactly the batches
    # that end at or before c.
    model = rebac.Oracle(graph)
    applied = 0
    for sample, response in sorted(decoded_reads,
                                   key=lambda sr: sr[1]["primary_cursor"]):
        done, partial = divmod(response["primary_cursor"] - start_cursor,
                               rebac.IngestStream.ENTRIES)
        if not run.expect(partial == 0 and done <= len(batches),
                          f"replica cursor {response['primary_cursor']}"):
            continue
        while applied < done:
            for change in batches[applied]:
                model.apply(change)
            applied += 1
        run.expect(check_with(model)(sample.op, response),
                   f"replica read {sample.op.key} at batch {done}")
    for text, variables in DUMPS.items():
        on_primary = answer_rows(call_ok(primary, query(text)), variables)
        on_replica = answer_rows(call_ok(replica, query(text)), variables)
        run.expect(on_primary == on_replica == dump_rows(stream.model, text),
                   f"replica and primary disagree on {text}")
    replica.stop()

    # Crash point: let a checkpoint land at the head, then write a fixed
    # suffix, so every run's restart replays the same number of entries.
    connection = Connection(primary)
    try:
        settle_checkpoints(run, primary, connection, stream, data_dir)
        for _ in range(SUFFIX_BATCHES):
            last_batch = stream.batch()
            run.write_checked(connection, last_batch, "suffix batch")
    finally:
        connection.close()
    primary.dump_trace()
    primary.kill()

    from repro.oodb.checkpoint import snapshot_files
    from repro.oodb.wal import segment_files

    newest = snapshot_files(data_dir)[0][0]
    suffix_bytes = sum(path.stat().st_size
                       for start, path in segment_files(data_dir)
                       if start >= newest)
    suffix_entries = SUFFIX_BATCHES * rebac.IngestStream.ENTRIES
    run.e2e["wal_bytes_per_entry"] = suffix_bytes / suffix_entries
    crashed = run.dir / "crashed"
    shutil.copytree(data_dir, crashed)
    user = next(c[2] for c in reversed(last_batch) if c[1] == "memberOf")
    probe = Op("read", query(f"{user}[memberOf ->> {{G}}]"),
               ("memberships", user))

    def fresh_copy(args: list[str]) -> list[str]:
        target = run.dir / f"restart-{time.monotonic_ns()}"
        shutil.copytree(crashed, target)
        return ["--data-dir", str(target), *durable]

    restarted = run.restart([], probe, check_with(stream.model),
                            prepare=fresh_copy)
    recovered = stats(restarted)["durability"]["recovered_entries"]
    run.expect(recovered == suffix_entries,
               f"restart replayed {recovered} entries, not {suffix_entries}")
    for text, variables in DUMPS.items():
        rows = answer_rows(call_ok(restarted, query(text)), variables)
        run.expect(rows == dump_rows(stream.model, text),
                   f"acknowledged writes missing after restart: {text}")
    restarted.stop()


WORKLOADS = {
    "company-paths": company_paths,
    "rebac-check": rebac_check,
    "durable-ingest": durable_ingest,
}


def result(run: Run) -> dict:
    """The final JSON object of a finished run."""
    if run.trace:
        loaded = {path: layers.load(path)
                  for paths in run.traces.values() for path in paths}
        groups = {group: [loaded[path] for path in paths]
                  for group, paths in run.traces.items()}
        values = layers.compute(client=run.client,
                                window=(run.window.start, run.window.end),
                                **groups)
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    else:
        units = dict(END_TO_END)
        if run.all_metrics:
            units.update((name, unit) for name, unit in UNBOUNDED.items()
                         if name in run.e2e)
        values = {name: run.e2e[name] for name in units}
    return {"correct": run.wrong == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def report(run: Run, outcome: dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    print(f"workload {run.workload} seed {run.seed} "
          f"seconds {run.seconds:g} trace {int(run.trace)}")
    print(f"reads timed {run.client['reads']}, "
          f"writes timed {run.client['writes_timed']}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    for name, unit in UNBOUNDED.items():
        if name in run.e2e and name not in outcome["metrics"]:
            print(f"  {name:40s} {run.e2e[name]:14.4f} {unit}")
    if run.window.late:
        print(f"  rounds built inside the window: {run.window.late} "
              f"(raise *_ROUNDS_PER_S)")
    for line in run.mismatches:
        print(f"  mismatch: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all-metrics", type=int, choices=(0, 1),
                        default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.all_metrics = bool(args.all_metrics) and not run.trace
    try:
        WORKLOADS[args.workload](run)
        outcome = result(run)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        run.close()
    report(run, outcome)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

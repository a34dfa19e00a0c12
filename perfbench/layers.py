"""Per-layer metrics from the traced servers' spans and ``stats``.

Each ``*_ms`` metric is the mean time per call of that layer's entry
point unless its description says otherwise; ratios and per-read or
per-write counts carry their base in the unit.  Only the measured
window counts (restarts apart, which come after it).  A layer the
workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: name -> (unit, description); the order is the report's order.
METRICS = {
    "lang.parse_ms": ("ms", "parse_query per read"),
    "flogic.flatten_ms": ("ms", "flatten_conjunction per read"),
    "engine.plan_hit_ratio": ("ratio", "query-time plan cache hits / lookups"),
    "engine.plan_invalidations": ("1/read", "plan cache drops per read"),
    "engine.solve_ms": ("ms", "time producing solve() rows, per read"),
    "engine.magic.eval_ms": ("ms", "DemandEngine.run per evaluation"),
    "engine.magic.evals_per_read": ("1/read", "demand evaluations per read"),
    "engine.magic.tuples_per_derived": ("ratio", "EngineStats tuples / derived"),
    "engine.incremental.maintain_ms": ("ms", "Query.sync per write"),
    "engine.incremental.evicted_per_write": ("1/write", "memo entries evicted by Query.sync"),
    "query.memo_hit_ratio": ("ratio", "reads answered by a memoised demand result"),
    "query.sort_ms": ("ms", "Query.all minus producing its answers, per read"),
    "query.answers_per_read": ("1/read", "answer rows per read"),
    "oodb.apply_ms": ("ms", "Database assert/retract time per write batch"),
    "oodb.wal.commit_ms": ("ms", "DurableStore.commit per write batch"),
    "oodb.wal.syncs_per_write": ("1/write", "WAL fsyncs per write batch"),
    "oodb.checkpoint_ms": ("ms", "DurableStore.checkpoint per background checkpoint"),
    "oodb.checkpoints": ("count", "background checkpoints in the measured window"),
    "oodb.recover_ms": ("ms", "recover() per restart"),
    "oodb.recovered_entries": ("count", "WAL entries replayed per restart"),
    "server.overhead_ms": ("ms", "median client latency minus server elapsed_ms, reads"),
    "server.encode_ms": ("ms", "encode_frame per response"),
    "server.response_bytes": ("B", "bytes per encoded frame"),
    "server.gate.read_wait_ms": ("ms", "wait to enter the gate shared"),
    "server.gate.write_wait_ms": ("ms", "wait to enter the gate exclusive"),
    "replication.entries_per_batch": ("1/batch", "entries per applied replica batch"),
    "replication.apply_ms_per_entry": ("ms", "replica batch apply time per entry"),
    "trace.ops_per_s": ("1/s", "throughput of the traced run"),
}


def load(path: Path) -> dict:
    return json.loads(path.read_text())


class Spans:
    """Spans of a set of traces, grouped by name.

    With a ``window`` of ``(start, end)`` times only the spans that lie
    wholly inside it are kept, so warm-up and the phases after the
    measured run do not enter the figures.
    """

    def __init__(self, documents: list[dict],
                 window: tuple[float, float] | None = None) -> None:
        self.by_name: dict[str, list] = defaultdict(list)
        for doc in documents:
            pid = doc["pid"]
            for sid, parent, name, start, end, extra in doc["spans"]:
                if window and not window[0] <= start <= end <= window[1]:
                    continue
                # Span ids count per process: qualify them by pid.
                self.by_name[name].append(((pid, sid), (pid, parent), name,
                                           start, end, extra))

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) * 1000.0 for s in self.by_name[name]]

    def mean_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return statistics.fmean(values) if values else 0.0

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def extra_sum(self, name: str, key: str) -> float:
        return sum(s[5][key] for s in self.by_name[name] if s[5])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(*, readers: list[dict], writer: list[dict],
            restarts: list[dict], client: dict,
            window: tuple[float, float]) -> dict:
    """Every metric in :data:`METRICS`.

    ``readers`` are the traces of the servers that answered reads,
    ``writer`` the primary's, ``restarts`` those of restarted primaries;
    ``client`` carries what the load generator saw and the ``stats``
    counters' change over the measured ``window``, to which the spans
    of the readers and the writer are cut as well.
    """
    reads = Spans(readers, window)
    write = Spans(writer, window)
    restart = Spans(restarts)
    serving = Spans(readers + [d for d in writer
                               if all(d is not r for r in readers)], window)
    n_reads = reads.count("query.all")
    n_writes = client.get("writes", 0)
    solutions_busy = {}
    for span in reads.by_name["query.solutions"]:
        solutions_busy[span[1]] = solutions_busy.get(span[1], 0.0) \
            + span[5]["busy"]
    sort_ms = [(s[4] - s[3] - solutions_busy.get(s[0], 0.0)) * 1000.0
               for s in reads.by_name["query.all"]]
    solve_busy = [s[5]["busy"] * 1000.0 for s in reads.by_name["engine.solve"]]
    evals = reads.count("engine.magic.eval")
    hits = reads.extra_sum("engine.plan_cache", "hits")
    misses = reads.extra_sum("engine.plan_cache", "misses")
    maintain = write.by_name["engine.incremental.maintain"]
    encode = serving.by_name["server.encode"]
    return {
        "lang.parse_ms": reads.mean_ms("lang.parse"),
        "flogic.flatten_ms": reads.mean_ms("flogic.flatten"),
        "engine.plan_hit_ratio": ratio(hits, hits + misses),
        "engine.plan_invalidations": ratio(
            reads.extra_sum("engine.plan_cache", "invalidations"), n_reads),
        "engine.solve_ms": statistics.fmean(solve_busy) if solve_busy else 0.0,
        "engine.magic.eval_ms": reads.mean_ms("engine.magic.eval"),
        "engine.magic.evals_per_read": ratio(evals, n_reads),
        "engine.magic.tuples_per_derived": ratio(
            reads.extra_sum("engine.magic.eval", "tuples"),
            reads.extra_sum("engine.magic.eval", "derived")),
        "engine.incremental.maintain_ms": (
            write.mean_ms("engine.incremental.maintain") if n_writes else 0.0),
        "engine.incremental.evicted_per_write": ratio(
            sum(s[5]["evicted"] for s in maintain if s[5]), len(maintain)),
        "query.memo_hit_ratio": (1.0 - ratio(evals, n_reads)
                                 if client.get("program") else 0.0),
        "query.sort_ms": statistics.fmean(sort_ms) if sort_ms else 0.0,
        "query.answers_per_read": ratio(
            reads.extra_sum("query.all", "rows"), n_reads),
        "oodb.apply_ms": ratio(
            sum(write.durations_ms("oodb.apply")), n_writes),
        "oodb.wal.commit_ms": write.mean_ms("oodb.wal.commit"),
        "oodb.wal.syncs_per_write": ratio(client.get("wal_syncs", 0),
                                          n_writes),
        "oodb.checkpoint_ms": write.mean_ms("oodb.checkpoint"),
        "oodb.checkpoints": float(write.count("oodb.checkpoint")),
        "oodb.recover_ms": restart.mean_ms("oodb.recover"),
        "oodb.recovered_entries": ratio(
            restart.extra_sum("oodb.recover", "entries"),
            restart.count("oodb.recover")),
        "server.overhead_ms": client.get("overhead_ms", 0.0),
        "server.encode_ms": serving.mean_ms("server.encode"),
        "server.response_bytes": ratio(sum(s[5]["bytes"] for s in encode),
                                       len(encode)),
        "server.gate.read_wait_ms": serving.mean_ms("server.gate.read_wait"),
        "server.gate.write_wait_ms": serving.mean_ms("server.gate.write_wait"),
        "replication.entries_per_batch": ratio(
            client.get("repl_entries", 0), client.get("repl_batches", 0)),
        "replication.apply_ms_per_entry": ratio(
            sum(reads.durations_ms("replication.apply")),
            reads.extra_sum("replication.apply", "entries")),
        "trace.ops_per_s": client["ops_per_s"],
    }

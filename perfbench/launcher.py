"""Traced launcher: wrap the layers' entry points, then run ``repro``.

Usage::

    python perfbench/launcher.py TRACE.json serve [serve options...]

Before handing over to the unmodified ``repro`` command line, this
wraps the public entry points of each layer -- ``parse_query``,
``flatten_conjunction``, ``solve``, ``DemandEngine.run``,
``Query.all``/``solutions``/``sync``, the ``Database`` assert/retract
calls, ``DurableStore.commit``/``checkpoint``, ``recover``,
``encode_frame``, ``ReadWriteGate`` and the replica's batch apply --
with spans ``(id, parent, name, start, end, extra)`` kept in memory;
each plan-cache lookup is a span too, carrying its hits, misses and
invalidations.  Times are ``time.perf_counter``, the system-wide
monotonic clock on Linux, so the load generator can keep only the
spans inside its measured window.  No source file changes.  The spans
are written to ``TRACE.json`` when the server exits, or at once on
``SIGUSR1`` (sent before a deliberate ``SIGKILL``).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
from contextlib import asynccontextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class Tracer:
    """In-memory spans, per process."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, after=None,
             top_level=False) -> None:
        """Replace ``owner.attr`` with a spanned call.

        ``after(args, result)`` extracts a span's ``extra``;
        ``top_level`` records only calls that no other span encloses
        and that run on a server worker thread (the write path's own
        assertions, not the engine's derivations or the start-up load).
        """
        original = getattr(owner, attr)
        spans, ids = self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self.stack()
            if top_level and (stack or not threading.current_thread()
                              .name.startswith("repro-server")):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else 0
            span = next(ids)
            stack.append(span)
            start = clock()
            done = False
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = (after(args, result)
                         if after is not None and done else None)
                spans.append((span, parent, name, start, end, extra))

        setattr(owner, attr, traced)

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Span a call returning an iterator; ``extra`` is its busy time.

        The span runs from the call to exhaustion; ``busy`` sums only
        the time spent producing items, not the consumer's time.
        """
        original = getattr(owner, attr)
        spans, ids = self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self.stack()
            parent = stack[-1] if stack else 0
            span = next(ids)
            start = clock()
            busy = 0.0
            rows = 0
            inner = iter(original(*args, **kwargs))
            try:
                while True:
                    stack.append(span)
                    began = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += clock() - began
                        stack.pop()
                    rows += 1
                    yield item
            finally:
                spans.append((span, parent, name, start, clock(),
                              {"busy": busy, "rows": rows}))

        setattr(owner, attr, traced)

    def wrap_gate(self, gate_class) -> None:
        """Span the wait to enter each side of the readers/writer gate."""
        spans, ids = self.spans, self._ids
        clock = time.perf_counter
        for side in ("read", "write"):
            original = getattr(gate_class, side)
            name = f"server.gate.{side}_wait"

            def make(original=original, name=name):
                @asynccontextmanager
                async def traced(gate):
                    start = clock()
                    async with original(gate):
                        spans.append((next(ids), 0, name, start, clock(),
                                      None))
                        yield

                return traced

            setattr(gate_class, side, make())

    def wrap_plan_cache(self, cache_class) -> None:
        """Span each lookup in a query-time cache with its hits, misses
        and invalidations, so they can be counted over a time window."""
        original = cache_class.get
        spans, ids = self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(cache, *args, **kwargs):
            if not cache._track_version:
                return original(cache, *args, **kwargs)
            before = (cache.hits, cache.misses, cache.invalidations)
            start = clock()
            try:
                return original(cache, *args, **kwargs)
            finally:
                spans.append((next(ids), 0, "engine.plan_cache", start,
                              clock(), {
                                  "hits": cache.hits - before[0],
                                  "misses": cache.misses - before[1],
                                  "invalidations": (cache.invalidations
                                                    - before[2])}))

        cache_class.get = traced

    def dump(self) -> None:
        document = {"pid": os.getpid(), "spans": list(self.spans)}
        partial = self.path.with_suffix(".partial")
        partial.write_text(json.dumps(document))
        partial.replace(self.path)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (imports ``repro`` lazily)."""
    from repro.engine.magic import DemandEngine
    from repro.engine.planner import PlanCache
    from repro.oodb import checkpoint
    from repro.oodb.database import Database
    from repro.query import query
    from repro.server import protocol
    from repro.server.gate import ReadWriteGate
    from repro.server.replication import Replicator

    tracer.wrap(query, "parse_query", "lang.parse")
    tracer.wrap(query, "flatten_conjunction", "flogic.flatten")
    tracer.wrap_iterator(query, "solve", "engine.solve")
    tracer.wrap(DemandEngine, "run", "engine.magic.eval",
                after=lambda args, result: {
                    "tuples": args[0].stats.tuples,
                    "derived": args[0].stats.derived_total})
    tracer.wrap(query.Query, "all", "query.all",
                after=lambda args, result: {"rows": len(result)})
    tracer.wrap_iterator(query.Query, "solutions", "query.solutions")
    tracer.wrap(query.Query, "sync", "engine.incremental.maintain",
                after=lambda args, result: dict(result))
    for method in ("assert_scalar", "retract_scalar", "assert_set_member",
                   "retract_set_member", "assert_isa", "retract_isa"):
        tracer.wrap(Database, method, "oodb.apply", top_level=True)
    tracer.wrap(checkpoint.DurableStore, "commit", "oodb.wal.commit")
    tracer.wrap(checkpoint.DurableStore, "checkpoint", "oodb.checkpoint")
    tracer.wrap(checkpoint, "recover", "oodb.recover",
                after=lambda args, result: {
                    "entries": result.recovered_entries})
    tracer.wrap(protocol, "encode_frame", "server.encode",
                after=lambda args, result: {"bytes": len(result)})
    tracer.wrap(Replicator, "_apply_entries", "replication.apply",
                after=lambda args, result: {"entries": len(args[1])})
    tracer.wrap_gate(ReadWriteGate)
    tracer.wrap_plan_cache(PlanCache)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launcher.py TRACE.json COMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    tracer = Tracer(Path(argv[0]))
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump())
    from repro.cli import run

    try:
        return run(argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

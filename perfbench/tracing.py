"""Span tracing installed from the benchmark's own files.

The program under test carries no benchmark spans.  A traced round
replaces a fixed list of layer entry points (module functions and
class methods of ``repro``) with thin wrappers that record one span per
call; :meth:`Tracer.uninstall` puts the originals back, so untraced
rounds run the unmodified program.

Every span records its name, start, end, its parent span id and the
id of the operation it belongs to.  Each operation the workload times
is itself a root span named ``op`` (opened by :meth:`Tracer.op`), so a
span's self time is its duration minus the time its direct children
cover, and the ``op`` span's self time is the *unattributed*
remainder: client-side glue and the layers this list does not wrap.
The per-layer table therefore adds up to the traced op time exactly.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

#: The root span of one timed operation.
OP = "op"

#: Rows of the self-time table: the unattributed remainder's label.
UNATTRIBUTED = "unattributed"


def layer_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Module-level functions are wrapped in the module the caller looks
    them up in: ``recover`` is wrapped twice, as ``storage.recover`` in
    :mod:`repro.storage.recovery` (the restart path) and as
    ``server.pin_materialize`` in :mod:`repro.server.snapshots` (the
    snapshot manager's materialization), which imports it by name.
    """
    from repro.algebra.conformance import ConformanceChecker
    from repro.mapping import doc_to_tree
    from repro.query.engine import StorageQueryEngine
    from repro.query.planner import QueryPlanner
    from repro.server import server as server_mod
    from repro.server import snapshots
    from repro.server.leases import LeaseManager
    from repro.storage import recovery
    from repro.storage.backends.base import StorageBackend
    from repro.storage.engine import StorageEngine
    from repro.storage.txn import TransactionManager
    from repro.xmlio import parser

    server = server_mod.DatabaseServer
    return [
        (parser, "parse_document", "xmlio.parse"),
        (doc_to_tree, "document_to_tree", "mapping.f"),
        (ConformanceChecker, "check", "algebra.conformance"),
        (recovery, "bulk_load", "storage.bulk_load"),
        (StorageEngine, "load_document", "storage.load"),
        (StorageEngine, "create_index", "storage.index_build"),
        (StorageBackend, "checkpoint", "storage.checkpoint"),
        (recovery, "recover", "storage.recover"),
        (server, "open_session", "server.open"),
        (server, "close_session", "server.close"),
        (server, "execute", "server.execute"),
        (server, "checkpoint_now", "server.checkpoint"),
        (snapshots.SnapshotManager, "current_key", "server.pin_key"),
        (snapshots, "recover", "server.pin_materialize"),
        (LeaseManager, "acquire", "server.lease"),
        (LeaseManager, "renew", "server.lease"),
        (LeaseManager, "check", "server.lease"),
        (LeaseManager, "release", "server.lease"),
        (server, "query_values", "storage.extract"),
        (StorageQueryEngine, "evaluate", "query.eval"),
        (QueryPlanner, "compile", "query.plan"),
        (TransactionManager, "commit", "storage.commit"),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, op_id, name, start_ns, end_ns)``.
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        #: ``op_id -> op kind`` for every traced operation.
        self.op_kinds: dict[int, str] = {}
        self._next_id = 1
        self._stack: list[int] = []
        self._op_id: Optional[int] = None
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run *fn* inside a span; outside an op it is not recorded."""
        op_id = self._op_id
        if op_id is None:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, op_id, name, start, end))

    def op(self, kind: str) -> "_OpSpan":
        """Context manager around one timed operation (the root span)."""
        return _OpSpan(self, kind)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* recording a span named *name* on every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, targets: Iterable[tuple[object, str, str]]) -> None:
        for owner, attribute, name in targets:
            own = attribute in vars(owner)
            original = getattr(owner, attribute) if not own \
                else vars(owner)[attribute]
            self._saved.append((owner, attribute, original, own))
            setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[tuple[int, str, int, int]]:
        """``(op_id, name, duration_ns, self_ns)`` for every span."""
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            covered[parent] += end - start
        return [(op_id, name, end - start,
                 end - start - covered.get(span_id, 0))
                for span_id, _, op_id, name, start, end in self.spans]

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[3] == name)

    def dump(self, path) -> None:
        """Write every span as one JSON line (at the end of the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op_id, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "op": op_id,
                     "kind": self.op_kinds.get(op_id), "name": name,
                     "start_ns": start, "end_ns": end}) + "\n")


class _OpSpan:
    __slots__ = ("tracer", "kind", "span_id", "start")

    def __init__(self, tracer: Tracer, kind: str) -> None:
        self.tracer = tracer
        self.kind = kind

    def __enter__(self) -> "_OpSpan":
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        tracer._op_id = self.span_id
        tracer.op_kinds[self.span_id] = self.kind
        tracer._stack = [self.span_id]
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer.spans.append((self.span_id, 0, self.span_id, OP,
                             self.start, end))
        tracer._op_id = None
        tracer._stack = []


def layer_table(tracer: Tracer) -> tuple[list[tuple[str, float]], float, int]:
    """Mean self time per traced op, by span name.

    Returns ``(rows, op_ms, ops)``: rows are ``(name, ms per op)``
    sorted by cost with the ``op`` root renamed *unattributed*; the
    rows add up to *op_ms*, the mean traced op time.
    """
    ops = len(tracer.op_kinds)
    totals: dict[str, int] = defaultdict(int)
    op_total = 0
    for _, name, duration, self_ns in tracer.self_times():
        totals[UNATTRIBUTED if name == OP else name] += self_ns
        if name == OP:
            op_total += duration
    if not ops:
        return [], 0.0, 0
    rows = sorted(((name, ns / ops / 1e6) for name, ns in totals.items()),
                  key=lambda row: -row[1])
    return rows, op_total / ops / 1e6, ops

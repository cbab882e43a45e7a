"""Workload ``mixed``: write bursts, point reads and operator checkpoints.

A :class:`~repro.server.DatabaseServer` holds one scale-500 library
document with both value indexes.  The client repeats one cycle:

* 10 write sessions, each one ``execute`` transaction, alternating
  between inserting a whole new book after the last one (title,
  author, issue/publisher/year: both indexes change) and deleting the
  book just inserted, so the document stays conforming and keeps a
  steady size;
* then 10 point-read sessions (the year probe).

Every 10 cycles (one *period*, the unit of a round) the client calls
``checkpoint_now()``, standing in for an operator, because the server
never checkpoints by itself.  The WAL therefore cycles between 0 and
100 commits, and the workload is steady for any run length; a run
always ends on a period boundary.

Why: it is the only workload where leases, transactions, the WAL,
snapshot-key derivation and materialization do the work.

``primary`` latency is the point-read session, ``secondary`` the
write session (open, lease, ``execute``, close).  The period's inputs
(the five inserted books and the 100 probe years) are drawn once from
the seed and repeated, so every period must log the same WAL bytes,
pay the same materializations and return the same results — the
benchmark checks that they do.
"""

from __future__ import annotations

import random

from perfbench import library
from perfbench.harness import CheckFailed, Run, scratch_dir

NAME = "mixed"
WHY = ("the only workload where leases, transactions, the WAL, "
       "snapshot-key derivation and materialization do the work")
#: At scale 1000 a period took ~10 s (each of its ten materializations
#: ~0.8 s), so a 30-second run held three periods and its p50/p95
#: spread by up to 25% between runs; scale 500 halves the period.
SCALE = 500
CYCLES = 10         # cycles per period (then one checkpoint)
WRITES = 10         # write sessions per cycle
READS = 10          # read sessions per cycle

PROBE = "/library/book/issue[year='{}']/publisher"
AUTHORS = ("Abiteboul", "Hull", "Vianu", "Date", "Codd", "Gray")
PUBLISHERS = ("Addison-Wesley", "Morgan Kaufmann", "Springer",
              "ACM Press")


def insert_book(book: tuple[str, str, str, str]):
    """The ``execute`` callback appending *book* after the last book."""
    from repro.xmlio.qname import QName
    title, author, publisher, year = book

    def element(engine, parent, index, name, text=None):
        node = engine.insert_child(parent, index, name=QName("", name))
        if text is not None:
            engine.insert_child(node, 0, text=text)
        return node

    def mutate(engine, _session):
        library_node = engine.children(engine.document)[0]
        new = element(engine, library_node, SCALE, "book")
        element(engine, new, 0, "title", title)
        element(engine, new, 1, "author", author)
        issue = element(engine, new, 2, "issue")
        element(engine, issue, 0, "publisher", publisher)
        element(engine, issue, 1, "year", year)
        return new
    return mutate


def delete_book(descriptor):
    """The ``execute`` callback deleting the book just inserted."""
    def mutate(engine, _session):
        return engine.delete_subtree(descriptor)
    return mutate


class Mixed:
    name = NAME
    primary, secondary = "point", "write"
    #: Writes alternate insert and delete: the write p50 weights the
    #: two medians equally.
    mix = {"write": {"insert": 0.5, "delete": 0.5}}

    def __init__(self, seed: int, types: dict[str, str]) -> None:
        self.seed = seed
        self.types = types
        self.server = None
        self.directory = None
        self.doc = None
        rng = random.Random(seed * 7919 + 2)
        self.books = [(rng.choice(library.TITLES), rng.choice(AUTHORS),
                       rng.choice(PUBLISHERS), rng.choice(library.YEARS))
                      for _ in range(WRITES // 2)]
        self.years = [rng.choice(library.YEARS)
                      for _ in range(CYCLES * READS)]
        self.expected: dict[str, list[str]] = {}
        self.nodes = 0
        self.queries = None
        self.snapshot = None
        self.plan = [0, 0]            # plan-cache hits, misses
        self.periods: list[dict] = []
        self.meta: dict = {}
        self.exact: dict = {}

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Generate the document, start the server, build the indexes,
        first checkpoint."""
        self.directory = scratch_dir("mixed-")
        self.doc = library.document(SCALE, self.seed)
        self.server = library.serve(self.directory, self.doc, self.types)

    def teardown(self) -> None:
        library.shutdown(self.server, self.directory)
        self.server = self.doc = self.snapshot = self.queries = None
        self.directory = None

    def prepare(self) -> None:
        from repro.query.engine import StorageQueryEngine
        self.queries = StorageQueryEngine(self.server.engine)
        self.expected = {
            PROBE.format(year): library.naive_values(
                self.queries, PROBE.format(year))
            for year in library.YEARS}
        self.nodes = self.server.engine.node_count()
        self.meta, self.exact = library.document_counts(
            self.server, self.doc, SCALE)
        self.doc = None
        # Warm-up (untimed): one read of the set-up snapshot, so the
        # process's one-off lazy set-up is not charged to period 0.
        self.snapshot = self._read(PROBE.format(library.YEARS[0]))[0]

    # -- operations ------------------------------------------------------

    def _write(self, run: Run, mutate):
        server = self.server
        session = server.open_session("write")
        try:
            return server.execute(session, run.wrap("storage.mutate",
                                                    mutate))
        finally:
            server.close_session(session)

    def _read(self, path: str):
        server = self.server
        session = server.open_session("read")
        try:
            return session.snapshot, server.query_values(session, path)
        finally:
            server.close_session(session)

    def _note_snapshot(self, snapshot, period: dict) -> None:
        """A pin that returned a snapshot not seen before materialized
        it; fold the previous snapshot's plan-cache counters in."""
        if snapshot is self.snapshot:
            return
        if self.snapshot is not None:
            self._fold_plan_stats()
        self.snapshot = snapshot
        period["materializations"] += 1

    def _fold_plan_stats(self) -> None:
        stats = self.snapshot.queries().cache_stats()
        self.plan[0] += stats["plan_hits"]
        self.plan[1] += stats["plan_misses"]

    def run_round(self, run: Run) -> None:
        """One period: 10 cycles of writes then reads, a checkpoint."""
        wal = self.server.wal
        period = {"wal_bytes": 0, "wal_records": 0, "writes": 0,
                  "materializations": 0, "reads": 0, "results": 0}
        for cycle in range(CYCLES):
            inserted = None
            for write in range(WRITES):
                mutate = (insert_book(self.books[write // 2])
                          if write % 2 == 0 else delete_book(inserted))
                before = (wal.bytes_written, wal.appends)
                result = run.op("write", lambda: self._write(run, mutate),
                                "delete" if write % 2 else "insert")
                period["wal_bytes"] += wal.bytes_written - before[0]
                period["wal_records"] += wal.appends - before[1]
                period["writes"] += 1
                if write % 2 == 0:
                    inserted = result
                    if result is None:
                        return  # a failed insert leaves nothing to delete
            self._check_burst(run, cycle)
            for read in range(READS):
                path = PROBE.format(self.years[cycle * READS + read])
                outcome = run.op("point", lambda: self._read(path))
                if outcome is None:
                    continue
                snapshot, values = outcome
                self._note_snapshot(snapshot, period)
                period["reads"] += 1
                period["results"] += len(values)
                run.check(values == self.expected[path],
                          f"{path}: {len(values)} values, expected "
                          f"{len(self.expected[path])}")
        run.op("checkpoint", self.server.checkpoint_now)
        self.periods.append(period)

    def _check_burst(self, run: Run, cycle: int) -> None:
        """After a burst (untimed): one probe by naive evaluation on the
        live engine, and the node count (each burst is net zero)."""
        path = PROBE.format(self.years[cycle * READS])
        run.check(library.naive_values(self.queries, path)
                  == self.expected[path],
                  f"live engine after burst: {path} differs")
        live = self.server.engine.node_count()
        run.check(live == self.nodes,
                  f"live engine after burst: {live} nodes, "
                  f"expected {self.nodes}")

    def finish(self, run: Run) -> None:
        """Restart check, then the per-period repeat check."""
        from repro.storage import recovery
        if self.snapshot is not None:
            self._fold_plan_stats()
        result = recovery.recover(self.server.backend,
                                  schema=library.schema())
        run.check(result.relabels == 0,
                  f"restart: {result.relabels} relabels")
        run.check(result.conformance_violations == 0,
                  "restart: recovered document violates §6.2")
        live = self.server.engine.node_count()
        run.check(result.engine.node_count() == live,
                  f"restart: {result.engine.node_count()} nodes, live "
                  f"engine has {live}")
        if not self.periods:
            raise CheckFailed("no complete period ran")
        first = self.periods[0]
        for index, period in enumerate(self.periods[1:], 1):
            if period != first:
                raise CheckFailed(
                    f"period {index} differs from period 0: {period} "
                    f"vs {first}")
        self.exact.update(first, relabels=result.relabels)

    # -- results ---------------------------------------------------------

    def plan_stats(self) -> tuple[int, int]:
        """Plan-cache hits and misses summed over every snapshot read."""
        return self.plan[0], self.plan[1]

    def layer_counts(self, run: Run) -> dict[str, float]:
        exact = self.exact
        return {
            "storage.image_bytes": exact["image_bytes"],
            "storage.relabels": exact["relabels"],
            "storage.wal_records_per_write":
                exact["wal_records"] / exact["writes"],
            "storage.wal_bytes_per_write":
                exact["wal_bytes"] / exact["writes"],
            "query.point_results_per_op": exact["results"] / exact["reads"],
        }

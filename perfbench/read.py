"""Workload ``read``: read sessions against a never-written snapshot.

A :class:`~repro.server.DatabaseServer` holds one scale-2000 library
document with both value indexes, checkpointed and never written, so
the WAL stays empty and every snapshot pin is a cache hit.  Each
operation is one read session, ``open_session("read")`` ->
``query_values(path)`` -> close, timed from open to close.

Operations are 90% *point* and 10% *scan*.  Point operations are
half ``/library/book/issue[year='Y']/publisher`` (an index probe over
36 literals), a quarter ``/library/paper[N]/title`` and a quarter
``/library/book[N]/author`` (N uniform in 1..2000): about 4000
distinct strings, far beyond the 256-entry plan cache and the
512-entry parse cache, while the 36 probe strings fit.  Scans are
``//author``, ``/library/book/title``, ``//title/text()`` and
``/library/book[title='T']/author`` (6 literals).

Why: plan lookup and compile, the executor and value extraction do
nearly all the work, and the pin does almost none.

``primary`` latency is the point session, ``secondary`` the scan
session.  Every result is compared with values computed in set-up by
the naive navigator (``evaluate_naive``).
"""

from __future__ import annotations

import random

from perfbench import library
from perfbench.harness import CheckFailed, Run, scratch_dir

NAME = "read"
WHY = ("plan lookup and compile, the executor and value extraction do "
       "nearly all the work, and the pin does almost none")
SCALE = 2000
POINT_SHARE = 0.9
#: Sessions per round (a traced round and an untraced one alternate).
ROUND_OPS = 250
#: Exact result counts are taken over this fixed prefix of the
#: schedule, so they repeat for a seed whatever the run length.
EXACT_PREFIX = 1000

PROBE = "/library/book/issue[year='{}']/publisher"
SCANS = ("//author", "/library/book/title", "//title/text()",
         "/library/book[title='{}']/author")

#: Share of each query template within its kind (the schedule draws
#: exactly these); the p50 metrics weight per-template medians by it.
MIX = {
    "point": {"probe": 0.5, "paper": 0.25, "book": 0.25},
    "scan": {scan: 1 / len(SCANS) for scan in SCANS},
}


class Read:
    name = NAME
    primary, secondary = "point", "scan"
    mix = MIX

    def __init__(self, seed: int, types: dict[str, str]) -> None:
        self.seed = seed
        self.types = types
        self.server = None
        self.directory = None
        self.doc = None
        self.rng = random.Random(seed * 7919 + 1)
        self.expected: dict[str, list[str]] = {}
        self.paper_titles: list[list[str]] = []
        self.book_authors: list[list[str]] = []
        self.issued = 0
        self.snapshot = None
        self.prefix_results = {"point": [0, 0], "scan": [0, 0]}
        self.meta: dict = {}
        self.exact: dict = {}

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Generate the document, start the server, build the indexes,
        first checkpoint."""
        self.directory = scratch_dir("read-")
        self.doc = library.document(SCALE, self.seed)
        self.server = library.serve(self.directory, self.doc, self.types)

    def teardown(self) -> None:
        library.shutdown(self.server, self.directory)
        self.server = self.doc = self.snapshot = self.directory = None

    def prepare(self) -> None:
        """Expected values from the naive navigator, plus metadata."""
        from repro.query.engine import StorageQueryEngine
        queries = StorageQueryEngine(self.server.engine)
        paths = [PROBE.format(year) for year in library.YEARS]
        paths += [scan for scan in SCANS if "{}" not in scan]
        paths += [SCANS[-1].format(title) for title in library.TITLES]
        self.expected = {path: library.naive_values(queries, path)
                         for path in paths}
        self.paper_titles = library.naive_children(
            queries, "/library/paper", "title")
        self.book_authors = library.naive_children(
            queries, "/library/book", "author")
        self.meta, self.exact = library.document_counts(
            self.server, self.doc, SCALE)
        self.doc = None
        # Warm-up (untimed): the snapshot's first query pays one-off
        # lazy set-up that users pay once per server, not per request.
        for path in paths:
            self._session(path)

    # -- the schedule ----------------------------------------------------

    def next_op(self) -> tuple[str, str, str, list[str]]:
        """``(kind, template, path, expected values)`` of the next
        session."""
        rng = self.rng
        if rng.random() < POINT_SHARE:
            pick = rng.random()
            if pick < 0.5:
                path = PROBE.format(rng.choice(library.YEARS))
                return "point", "probe", path, self.expected[path]
            n = rng.randint(1, SCALE)
            if pick < 0.75:
                return ("point", "paper", f"/library/paper[{n}]/title",
                        self.paper_titles[n - 1])
            return ("point", "book", f"/library/book[{n}]/author",
                    self.book_authors[n - 1])
        template = rng.choice(SCANS)
        path = template
        if "{}" in template:
            path = template.format(rng.choice(library.TITLES))
        return "scan", template, path, self.expected[path]

    def _session(self, path: str) -> list[str]:
        server = self.server
        session = server.open_session("read")
        self.snapshot = session.snapshot
        try:
            return server.query_values(session, path)
        finally:
            server.close_session(session)

    def run_round(self, run: Run) -> None:
        for _ in range(ROUND_OPS):
            kind, template, path, expected = self.next_op()
            values = run.op(kind, lambda: self._session(path), template)
            if values is None:
                continue
            run.check(values == expected,
                      f"{path}: {len(values)} values, expected "
                      f"{len(expected)}")
            if self.issued < EXACT_PREFIX:
                tally = self.prefix_results[kind]
                tally[0] += 1
                tally[1] += len(values)
            self.issued += 1

    def finish(self, run: Run) -> None:
        if self.issued < EXACT_PREFIX:
            raise CheckFailed(f"only {self.issued} sessions ran; the "
                              f"exact counts need {EXACT_PREFIX}")
        for kind, (ops, results) in self.prefix_results.items():
            self.exact[f"{kind}_ops"] = ops
            self.exact[f"{kind}_results"] = results

    # -- results ---------------------------------------------------------

    def plan_stats(self) -> tuple[int, int]:
        """Plan-cache hits and misses of the one snapshot read."""
        stats = self.snapshot.queries().cache_stats()
        return stats["plan_hits"], stats["plan_misses"]

    def layer_counts(self, run: Run) -> dict[str, float]:
        counts = {"storage.image_bytes": self.exact["image_bytes"]}
        for kind in ("point", "scan"):
            ops = self.exact[f"{kind}_ops"]
            counts[f"query.{kind}_results_per_op"] = (
                self.exact[f"{kind}_results"] / ops if ops else 0.0)
        return counts

"""Workload ``ingest``: one pre-serialized document per operation.

Each operation ingests one scale-1000 library document (~200 KB of
XML, ~14.5k nodes; a new seed per operation) into a fresh backend:
``parse_document`` -> ``document_to_tree(..., LIBRARY_SCHEMA)`` (the
mapping f) -> ``ConformanceChecker.check`` (§6.2) -> ``bulk_load``
(load, LOAD marker, checkpoint) -> both value indexes built once ->
checkpoint, so the image holds the indexes.  Then comes a restart:
``recover(backend, schema=...)``.

Why: it is the only workload where xmlio, mapping, algebra.conformance
and the storage load, index build and checkpoint do the work.

``primary`` latency is the ingest (parse to the final checkpoint),
``secondary`` the restart.
"""

from __future__ import annotations

import time

from perfbench import library
from perfbench.harness import CheckFailed, Run, remove_dir, scratch_dir

NAME = "ingest"
WHY = ("the only workload where xmlio, mapping, algebra.conformance "
       "and storage load, index build and checkpoint do the work")
#: Documents of scale 2000 take ~5 s each (ingest + restart), so a run
#: held only six and its medians spread by ~18% between runs; scale
#: 1000 doubles the documents per run.
SCALE = 1000


class Ingest:
    name = NAME
    primary, secondary = "ingest", "recover"
    mix: dict = {}

    def __init__(self, seed: int, types: dict[str, str]) -> None:
        self.seed = seed
        self.types = types
        self.schema = None
        self.first_xml: str | None = None
        self.directory = None
        self.exact: dict = {}
        self.meta: dict = {}
        self.round_tripped = False

    def _serialize(self, index: int) -> str:
        from repro.xmlio import serialize_document
        return serialize_document(
            library.document(SCALE, self.seed * 1000 + index))

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """The first input: schema, first document, backend directory."""
        self.schema = library.schema()
        self.first_xml = self._serialize(0)
        self.directory = scratch_dir("ingest-")

    def teardown(self) -> None:
        remove_dir(self.directory)
        self.directory = None

    def prepare(self) -> None:
        pass

    # -- the operation ---------------------------------------------------

    def _ingest(self, xml: str, backend):
        from repro.algebra.conformance import ConformanceChecker
        from repro.mapping import doc_to_tree
        from repro.storage import StorageEngine, recovery
        from repro.xmlio import parser
        started = time.perf_counter()
        document = parser.parse_document(xml)
        tree = doc_to_tree.document_to_tree(document, self.schema)
        violations = ConformanceChecker(self.schema).check(tree)
        engine = StorageEngine()
        wal = backend.open_wal(sync=library.SYNC_WAL)
        recovery.bulk_load(engine, document, backend, wal)
        for path in library.INDEX_PATHS:
            engine.create_index(path, value_type=self.types[path])
        backend.checkpoint(engine, wal=wal)
        wal.close()
        ingested = time.perf_counter()
        recovered = recovery.recover(backend, schema=self.schema)
        finished = time.perf_counter()
        return (document, engine, violations, recovered,
                ingested - started, finished - ingested)

    def run_round(self, run: Run) -> None:
        index = run.rounds
        xml = self.first_xml if index == 0 else self._serialize(index)
        self.first_xml = None
        directory = scratch_dir("doc-", parent=self.directory)
        backend = library.open_backend(directory)
        try:
            result = run.op("document", lambda: self._ingest(xml, backend))
            if result is None:
                return
            document, engine, violations, recovered, t_in, t_rec = result
            if not run.tracing:
                run.samples[self.primary].append(t_in)
                run.samples[self.secondary].append(t_rec)
            self._check(run, index, xml, document, engine, violations,
                        recovered, backend)
        finally:
            backend.close()
            remove_dir(directory)

    def _check(self, run, index, xml, document, engine, violations,
               recovered, backend) -> None:
        nodes = engine.node_count()
        run.check(not violations,
                  f"document {index}: {len(violations)} §6.2 violations")
        run.check(recovered.relabels == 0,
                  f"document {index}: {recovered.relabels} relabels")
        run.check(recovered.conformance_violations == 0,
                  f"document {index}: recovered document violates §6.2")
        run.check(recovered.engine.node_count() == nodes,
                  f"document {index}: recovered {recovered.engine.node_count()}"
                  f" nodes, ingested {nodes}")
        run.check(recovered.index_definitions == len(library.INDEX_PATHS),
                  f"document {index}: {recovered.index_definitions} "
                  "indexes after restart")
        if not self.round_tripped:
            # §8: g(f(X)) =_c X, through storage and a restart.
            from repro.mapping import content_equal, store_to_document
            from repro.storage.store import StorageNodeStore
            restored = store_to_document(StorageNodeStore(recovered.engine))
            run.check(content_equal(restored, document),
                      f"document {index}: §8 round trip differs")
            self.round_tripped = True
        if index == 0:
            xml_size = len(xml.encode("utf-8"))
            stored = library.stored_bytes(backend)
            self.exact = {
                "stored_bytes": stored,
                "image_bytes": backend.image_path.stat().st_size,
                "xml_bytes": xml_size,
                "relabels": recovered.relabels,
            }
            self.meta = {"scale": SCALE, "xml_bytes": xml_size,
                         "nodes": nodes}

    def finish(self, run: Run) -> None:
        if not self.exact:
            raise CheckFailed("document 0 was never ingested")

    # -- results ---------------------------------------------------------

    def plan_stats(self) -> tuple[int, int]:
        return 0, 0  # no query runs here

    def layer_counts(self, run: Run) -> dict[str, float]:
        return {"storage.image_bytes": self.exact["image_bytes"],
                "storage.relabels": self.exact["relabels"]}

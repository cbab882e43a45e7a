"""The library corpus, its schema, indexes and served set-up.

Every workload stores the conforming library corpus
(``make_library_document`` without ``year_attrs``), which passes the
mapping f and the §6.2 check with zero violations, in a
:class:`~repro.storage.FileBackend` (image + WAL) under the run's
scratch directory, with the WAL flushed but not fsynced per record
(``sync_wal=False``, the server default).
"""

from __future__ import annotations

import os
from pathlib import Path

from perfbench.harness import remove_dir
from repro.schema import parse_schema
from repro.storage import FileBackend, StorageEngine
from repro.storage.store import StorageNodeStore
from repro.query.engine import StorageQueryEngine
from repro.server import DatabaseServer
from repro.workloads import make_library_document
from repro.workloads.fixtures import LIBRARY_SCHEMA
from repro.xmlio import serialize_document

#: The flush policy, identical on every side of every comparison.
SYNC_WAL = False

#: The two value indexes (schema paths); their value types are read
#: from ``LIBRARY_SCHEMA`` by :func:`index_types`.
INDEX_PATHS = ("library/book/title", "library/book/issue/year")

#: Probe literals: every gYear the generator draws for issue/year.
YEARS = tuple(str(year) for year in range(1970, 2006))

#: Title literals: every title the generator draws.
TITLES = ("Foundations of Databases", "Principles of Systems",
          "Transaction Processing", "Query Evaluation Techniques",
          "The Art of Indexing", "Semistructured Data")


def schema():
    return parse_schema(LIBRARY_SCHEMA)


def index_types() -> dict[str, str]:
    """Value type of each index path, as ``LIBRARY_SCHEMA`` types it
    (read through the typed §6.2 accessor view of a tiny library)."""
    engine = StorageEngine()
    engine.load_document(make_library_document(books=2, papers=2))
    store = StorageNodeStore.typed(engine, schema())
    queries = StorageQueryEngine(engine)
    return {path: store.type_name(queries.evaluate_naive("/" + path)[0])
            .local for path in INDEX_PATHS}


def document(scale: int, seed: int):
    return make_library_document(books=scale, papers=scale, seed=seed)


def xml_bytes(doc) -> int:
    return len(serialize_document(doc).encode("utf-8"))


def open_backend(directory: Path) -> FileBackend:
    return FileBackend(directory / "library.img",
                       wal_path=directory / "library.wal")


def stored_bytes(backend: FileBackend) -> int:
    """The recovery state's size: checkpoint image plus WAL (retained
    snapshot-version copies are history, not the stored document)."""
    total = os.path.getsize(backend.image_path)
    if backend.wal_path is not None and backend.wal_path.exists():
        total += os.path.getsize(backend.wal_path)
    return total


def document_counts(server: DatabaseServer, doc,
                    scale: int) -> tuple[dict, dict]:
    """Run metadata and exact byte counts of a served document."""
    xml = xml_bytes(doc)
    meta = {"scale": scale, "xml_bytes": xml,
            "nodes": server.engine.node_count()}
    exact = {"stored_bytes": stored_bytes(server.backend),
             "xml_bytes": xml,
             "image_bytes": server.backend.image_path.stat().st_size}
    return meta, exact


def shutdown(server: DatabaseServer | None, directory: Path | None) -> None:
    """Close a served set-up and remove its directory."""
    if server is not None:
        server.close()
        server.backend.close()
    remove_dir(directory)


def serve(directory: Path, doc, types: dict[str, str]) -> DatabaseServer:
    """A server holding *doc* with both indexes, checkpointed.

    The indexes are declared through a write session (logged DDL, as
    any client would), then the operator checkpoint folds them into
    the image so the WAL starts empty.  One request-loop worker: the
    benchmark calls sessions directly and never submits to the loop.
    """
    server = DatabaseServer(open_backend(directory), doc, workers=1,
                            sync_wal=SYNC_WAL)
    session = server.open_session("write")
    try:
        server.execute(session, lambda engine, _: [
            engine.create_index(path, value_type=types[path])
            for path in INDEX_PATHS])
    finally:
        server.close_session(session)
    server.checkpoint_now()
    return server


def naive_values(queries: StorageQueryEngine, path: str) -> list[str]:
    """String values of *path* by the independent naive navigator."""
    engine = queries.engine
    return [engine.string_value(d) for d in queries.evaluate_naive(path)]


def naive_children(queries: StorageQueryEngine, parents: str,
                   child: str) -> list[list[str]]:
    """For each node of *parents* (document order), the string values
    of its *child* children — two naive evaluations grouped by parent,
    so positional lookups need no per-position evaluation."""
    engine = queries.engine
    owners = queries.evaluate_naive(parents)
    grouped: dict[int, list[str]] = {id(owner): [] for owner in owners}
    for descriptor in queries.evaluate_naive(f"{parents}/{child}"):
        grouped[id(descriptor.parent)].append(
            engine.string_value(descriptor))
    return [grouped[id(owner)] for owner in owners]

"""Reader snapshots roll forward in place instead of re-running
recovery, and the snapshot key is published rather than derived.

The contract under test:

* a rolled snapshot is indistinguishable from a fresh ``recover()`` of
  the same backend — labels in document order, string values, index
  contents — with zero relabels (Proposition 1: replaying a logged
  update re-derives exactly the logged label), on every backend, across
  inserts, attribute replaces, deletes, index DDL, a rolled-back
  transaction and a checkpoint;
* it keeps its query engine, so plans cached before a roll still answer
  like the naive navigator after it;
* a pinned snapshot is never mutated, and a snapshot whose WAL delta
  went with a checkpoint's log reset falls back to a full recovery;
* a cache-hit pin does no backend I/O, however long the WAL is;
* a server restarted over an existing backend boots from the committed
  WAL tail, not from the image alone.
"""

import random

import pytest

from repro import obs
from repro.server import DatabaseServer
from repro.storage import (
    FileBackend,
    MemoryBackend,
    SqliteBackend,
    recover,
    recovery,
    wal,
)
from repro.workloads.library import make_library_document
from repro.xmlio.qname import QName

TITLES = "/library/book/title"
YEAR_INDEX = "library/book/@year"
QUERIES = (TITLES, "/library/book[@year='1999']/title",
           "/library/book/issue/year")


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def make_backend(name, tmp_path):
    if name == "file":
        return FileBackend(tmp_path / "store.img",
                           wal_path=tmp_path / "store.wal")
    if name == "sqlite":
        return SqliteBackend(tmp_path / "store.db")
    return MemoryBackend()


def make_server(backend, books=6):
    return DatabaseServer(
        backend, make_library_document(books=books, papers=2, seed=5,
                                       year_attrs=True), workers=1)


def state(engine):
    """Everything a reader can observe: labels and string values in
    document order, and the contents of every index."""
    return ([(d.nid.symbols(), engine.string_value(d))
             for d in engine.iter_document_order()],
            engine.indexes.snapshot())


def counter(name):
    return obs.REGISTRY.value(name)


def books_of(engine):
    library = engine.children(engine.document)[0]
    return [child for child in engine.children(library)
            if engine.node_name(child) == QName("", "book")]


def titles_of(engine):
    return sorted(engine.string_value(engine.children(book)[0])
                  for book in books_of(engine))


def add_book(title):
    def mutate(engine, _session):
        library = engine.children(engine.document)[0]
        book = engine.insert_child(library, 0, name=QName("", "book"))
        node = engine.insert_child(book, 0, name=QName("", "title"))
        engine.insert_child(node, 0, text=title)
    return mutate


def random_write(rng, step):
    """One seeded mutation of the library document."""
    choice = rng.randrange(4)

    def mutate(engine, _session):
        books = books_of(engine)
        book = rng.choice(books)
        if choice == 0 or len(books) < 4:
            add_book(f"T{step}")(engine, _session)
        elif choice == 1:
            engine.set_attribute(book, QName("", "year"),
                                 rng.choice(("1975", "1999", "2004")),
                                 replace=True)
        elif choice == 2:
            author = engine.insert_child(book, 1,
                                         name=QName("", "author"))
            engine.insert_child(author, 0, text=f"A{step}")
        else:
            engine.delete_subtree(book)
    return mutate


def read(server):
    """Pin, read every query, release; the snapshot and its answers."""
    with server.open_session("read") as session:
        return session.snapshot, [session.query_values(path)
                                  for path in QUERIES]


def assert_matches_recovery(server, snapshot):
    fresh = recover(server.backend)
    assert fresh.relabels == 0 and snapshot.relabels == 0
    assert snapshot.engine.relabel_count == 0
    assert state(snapshot.engine) == state(fresh.engine)
    assert snapshot.key == server.snapshots.current_key()


@pytest.mark.parametrize("backend_name", ["file", "sqlite", "memory"])
def test_rolled_snapshot_equals_a_fresh_recovery(backend_name, tmp_path):
    backend = make_backend(backend_name, tmp_path)
    rng = random.Random(13)
    with make_server(backend) as server:
        first, _ = read(server)
        queries = first.queries()
        for path in QUERIES:
            queries.evaluate(path)  # cache plans before any roll
        steps = ["write"] * 4 + ["create-index"] + ["write"] * 3 + \
            ["rollback", "checkpoint"] + ["write"] * 3 + \
            ["drop-index"] + ["write"] * 3
        for step, kind in enumerate(steps):
            if kind == "checkpoint":
                server.checkpoint_now()
            else:
                with server.open_session("write") as writer:
                    if kind == "write":
                        writer.execute(random_write(rng, step))
                    elif kind == "create-index":
                        writer.execute(lambda engine, _: engine.create_index(
                            YEAR_INDEX, value_type="integer"))
                    elif kind == "drop-index":
                        writer.execute(lambda engine, _: engine.drop_index(
                            YEAR_INDEX))
                    else:
                        def doomed(engine, session):
                            add_book("DOOMED")(engine, session)
                            raise RuntimeError("abort")
                        with pytest.raises(RuntimeError):
                            writer.execute(doomed)
            snapshot, answers = read(server)
            # Rolled in place: the same object, plan cache and all.
            assert snapshot is first
            assert_matches_recovery(server, snapshot)
            for path, values in zip(QUERIES, answers):
                naive = [snapshot.engine.string_value(d)
                         for d in queries.evaluate_naive(path)]
                assert values == naive, path
        assert "DOOMED" not in titles_of(first.engine)
        assert queries.cache_stats()["plan_hits"] > 0
    # One full materialization (the first pin); every other pin rolled,
    # except after the rollback, which published nothing (a cache hit).
    assert counter("server.snapshot.materializations") == 1
    assert counter("server.snapshot.roll_forwards") == len(steps) - 1
    assert counter("server.snapshot.roll_forward.records") > 0


def test_pinned_snapshot_is_never_rolled():
    with make_server(MemoryBackend()) as server:
        reader_a = server.open_session("read")
        before = state(reader_a.snapshot.engine)
        key = reader_a.snapshot.key
        with server.open_session("write") as writer:
            writer.execute(add_book("NEW"))
        with server.open_session("read") as reader_b:
            assert reader_b.snapshot is not reader_a.snapshot
            assert "NEW" in reader_b.query_values(TITLES)
            assert_matches_recovery(server, reader_b.snapshot)
        assert counter("server.snapshot.materializations") == 2
        assert counter("server.snapshot.roll_forwards") == 0
        # Reader A is frozen: same key, same state.
        assert reader_a.snapshot.key == key
        assert state(reader_a.snapshot.engine) == before
        assert "NEW" not in reader_a.query_values(TITLES)
        reader_a.close()


def test_rolls_across_a_checkpoint_with_zero_records():
    with make_server(MemoryBackend()) as server:
        with server.open_session("write") as writer:
            writer.execute(add_book("PRE"))
        snapshot, _ = read(server)
        server.checkpoint_now()
        rolled, _ = read(server)
        assert rolled is snapshot
        assert rolled.key == server.snapshots.current_key()
        assert rolled.key[0] == rolled.key[1]
        with server.open_session("write") as writer:
            writer.execute(add_book("POST"))
        rolled, answers = read(server)
        assert rolled is snapshot and "POST" in answers[0]
        assert_matches_recovery(server, rolled)
        assert counter("server.snapshot.materializations") == 1
        assert counter("server.snapshot.roll_forwards") == 2


def test_gap_across_a_checkpoint_falls_back_to_recovery():
    """A snapshot older than the last pre-checkpoint horizon cannot
    roll: the records between lived in the log the checkpoint reset."""
    with make_server(MemoryBackend()) as server:
        stale, _ = read(server)
        with server.open_session("write") as writer:
            writer.execute(add_book("UNREAD"))
        server.checkpoint_now()
        with server.open_session("write") as writer:
            writer.execute(add_book("AFTER"))
        snapshot, answers = read(server)
        assert snapshot is not stale
        assert {"UNREAD", "AFTER"} <= set(answers[0])
        assert_matches_recovery(server, snapshot)
        assert counter("server.snapshot.materializations") == 2
        assert counter("server.snapshot.roll_forwards") == 0


def test_a_roll_decodes_only_the_frames_past_its_cursor(monkeypatch):
    from repro.server import snapshots

    decoded = []

    def counting(data, start, backend="file"):
        for record, end in wal.iter_records(data, start, backend):
            decoded.append(record.lsn)
            yield record, end
    monkeypatch.setattr(snapshots, "iter_records", counting)
    with make_server(MemoryBackend()) as server:
        read(server)
        with server.open_session("write") as writer:
            for index in range(20):
                writer.execute(add_book(f"OLD{index}"))
        read(server)  # the first roll decodes the log from its start
        decoded.clear()
        horizon = server.snapshots.current_key()[1]
        with server.open_session("write") as writer:
            writer.execute(add_book("NEW"))
        snapshot, answers = read(server)
        assert "NEW" in answers[0]
        # BEGIN, three inserts, COMMIT — nothing at or before the
        # previous horizon is decoded again.
        assert decoded == list(range(horizon + 1, horizon + 6))
        assert counter("server.snapshot.roll_forwards") == 2


@pytest.mark.parametrize("books", [0, 240])
def test_cache_hit_pins_do_no_backend_io(books, monkeypatch):
    """Pin-hit cost is flat in WAL length: zero backend calls at an
    empty log and at ~1200 records (240 five-record transactions)."""
    backend = MemoryBackend()
    with make_server(backend) as server:
        with server.open_session("write") as writer:
            for index in range(books):
                writer.execute(add_book(f"B{index}"))
        records = len(wal.read_wal_store(backend.wal_store()).records)
        assert records >= books * 5
        read(server)  # materialize (untimed, uncounted)
        calls = []

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(backend, "wal_store")
        counted(backend, "list_snapshots")
        counted(wal, "read_wal_store")
        counted(recovery, "read_wal_store")
        for _ in range(5):
            snapshot, answers = read(server)
            assert len(answers[0]) == 6 + books
        assert calls == []
        assert snapshot.key == server.snapshots.current_key()


@pytest.mark.parametrize("backend_name", ["file", "sqlite", "memory"])
def test_restart_over_an_existing_backend_keeps_the_wal_tail(
        backend_name, tmp_path):
    backend = make_backend(backend_name, tmp_path)
    server = make_server(backend, books=3)
    with server.open_session("write") as writer:
        writer.execute(add_book("BEFORE-RESTART"))
    expected = titles_of(server.engine)
    server.close()
    if backend_name != "memory":
        backend.close()
        backend = make_backend(backend_name, tmp_path)
    with DatabaseServer(backend, workers=1) as restarted:
        # The live engine and a reader agree, tail included.
        assert titles_of(restarted.engine) == expected
        with restarted.open_session("read") as reader:
            assert sorted(reader.query_values(TITLES)) == expected
        with restarted.open_session("write") as writer:
            writer.execute(add_book("AFTER-RESTART"))
        result = recover(restarted.backend)
        assert result.relabels == 0
        assert titles_of(result.engine) == sorted(
            expected + ["AFTER-RESTART"])
    if backend_name != "memory":
        backend.close()


def test_readers_racing_a_writer_see_exactly_their_key():
    """Stress: more reader threads than cores against one writer that
    commits and checkpoints, with a short switch interval.  Every pin
    must hold exactly the state of the key it is served under, frozen
    for the session; a lost or torn update of the published key, the
    checkpoint bridge or the cache would break the count check."""
    import sys
    import threading

    readers, commits = 3, 60
    expected = {}     # published key -> book count, by the writer
    observed = []     # (key, count) per read session
    errors = []
    with make_server(MemoryBackend(), books=3) as server:
        expected[server.snapshots.current_key()] = 3
        done = threading.Event()

        def writer():
            try:
                for index in range(commits):
                    with server.open_session("write") as session:
                        session.execute(add_book(f"S{index}"))
                    expected[server.snapshots.current_key()] = 4 + index
                    if index % 15 == 14:
                        server.checkpoint_now()
                        expected[server.snapshots.current_key()] = \
                            4 + index
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(repr(exc))
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    with server.open_session("read") as session:
                        first = session.query_values(TITLES)
                        assert session.query_values(TITLES) == first
                        observed.append((session.snapshot.key,
                                         len(first)))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader) for _ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert observed
        for key, count in observed:
            assert expected[key] == count, key
        result = recover(server.backend)
        assert result.relabels == 0
        assert len(books_of(result.engine)) == 3 + commits

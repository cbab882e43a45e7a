"""MVCC-lite reader snapshots over a storage backend.

A reader must see a frozen, committed state while the writer keeps
appending — without either blocking the other.

A **snapshot key** is the pair ``(checkpoint_lsn, horizon)``: the
checkpoint image a state grew from and the LSN of the last COMMIT it
includes.  The owning server is the only writer in the process, so it
*publishes* the key rather than leaving readers to derive it from
bytes: after every commit it publishes ``(checkpoint_lsn, commit
lsn)`` (:meth:`SnapshotManager.committed`), after every checkpoint
``(lsn, lsn)`` (:meth:`SnapshotManager.checkpointed`), each inside the
critical section that made the change durable — at boot included, where
the server checkpoints before the first reader can arrive.
:meth:`SnapshotManager.current_key` just returns the published tuple,
so a pin that hits the cache does no backend I/O at all.

A snapshot at a new key is produced in one of two ways:

* **roll forward** (the normal case): the newest cached snapshot, if no
  reader pins it, is taken out of the cache and advanced *in place*.
  Only the CRC-checked WAL frames past the byte offset it already
  consumed are decoded; the committed records with LSN in (old
  horizon, new horizon] are replayed through the recovery redo loop
  (:func:`repro.storage.recovery.replay`), which re-derives each
  logged label and asserts equality (Proposition 1: labels survive
  updates, so replay onto a materialized state yields exactly the
  engine a fresh recovery would); then the same post-replay checks as
  :func:`~repro.storage.recovery.recover` run — no relabel, the §9
  invariants, index bisimulation.  The snapshot keeps its query
  engine, so its plan cache stays warm.  A checkpoint changes no
  content: the manager remembers that its ``(lsn, lsn)`` names the
  state of the key published just before it, and a snapshot at that
  key rolls across the checkpoint with zero records into the fresh
  log.
* **full materialization** (cold start, a pinned newest snapshot, or
  an LSN gap — e.g. a snapshot older than the last pre-checkpoint
  horizon, whose records went with the reset log): the checkpoint
  image plus the committed log prefix, which is
  :func:`~repro.storage.recovery.recover` verbatim.  It runs the same
  redo loop and checks; no §6.2 conformance check runs here (the
  manager holds no schema).

Either way a snapshot shares no mutable object with the live engine,
and a pinned snapshot is never written: rolling touches only unpinned
snapshots, so version *k* stays frozen for its readers while the
writer builds version *k+1*.  Uncommitted and torn suffixes are
unobservable by construction — replay stops at a published COMMIT, and
the WAL's CRC framing makes a half-appended record indistinguishable
from a torn tail.

Snapshots are cached by key with pin counts: concurrent readers at the
same horizon share one engine (pin is O(1)).  Unpinned stale snapshots
are evicted when the cache grows past ``max_cached``; the newest is
always retained as the next reader's hit or roll-forward base.

A full materialization reads whatever is durable when it runs, so a
commit or checkpoint landing between the key read and :func:`recover`
could make its engine differ from the key (or pair the old image with
an already-reset log).  :meth:`SnapshotManager.pin` keeps the
optimistic verify-and-retry as an O(1) comparison: a recovered
snapshot is keyed by what :func:`recover` actually replayed (image
LSN, last replayed COMMIT), and the pin publishes it only when that
equals the key it asked for; after a few lost races it serializes
with the writer through the *write latch* the server holds across
commit and checkpoint.  A roll forward replays exactly up to its key;
a log reset under its feet shows up as an LSN gap, which falls back
to the full path.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.errors import StorageError
from repro.server.session import SessionError
from repro.storage.recovery import (
    RecoveryResult,
    check_replayed,
    recover,
    replay,
)
from repro.storage.wal import HEADER_LEN, WalRecord, iter_records

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.engine import StorageQueryEngine
    from repro.storage.backends.base import StorageBackend
    from repro.storage.engine import StorageEngine

#: Distinct snapshot versions kept around by default (the newest is
#: never evicted while unpinned; pinned versions are never evicted).
DEFAULT_MAX_CACHED = 4

#: Optimistic key-verify rounds before a pin serializes with the
#: writer through the shared write latch.
PIN_OPTIMISTIC_ATTEMPTS = 3

Key = tuple[int, int]


class Snapshot:
    """One committed-only view of the database, frozen while pinned."""

    __slots__ = ("key", "engine", "pins", "relabels", "_queries",
                 "_cursor", "_index")

    def __init__(self, key: Key, engine: "StorageEngine",
                 relabels: int) -> None:
        #: ``(checkpoint_lsn, committed_wal_horizon)`` — the version id.
        self.key = key
        #: The materialized engine.  It has no transaction manager
        #: attached; only the manager's roll-forward writes it, and
        #: only while no reader pins it.
        self.engine = engine
        self.pins = 0
        #: Relabels during materialization — always 0 (Proposition 1);
        #: recorded so sessions can assert it without re-deriving.
        self.relabels = relabels
        self._queries: "Optional[StorageQueryEngine]" = None
        #: ``(byte offset, lsn)`` of the last WAL frame replay has
        #: consumed: the next frame starts at the offset and must carry
        #: lsn + 1.  A fresh materialization starts at the first frame
        #: of the log its checkpoint image reset.
        self._cursor = (HEADER_LEN, key[0])
        #: Label symbols -> live descriptor, for replay (built on the
        #: first roll forward).
        self._index: Optional[dict] = None

    @property
    def checkpoint_lsn(self) -> int:
        return self.key[0]

    @property
    def horizon(self) -> int:
        return self.key[1]

    @property
    def version(self) -> str:
        """Human/JSON shape of the key."""
        return f"lsn{self.key[0]}+wal{self.key[1]}"

    def queries(self) -> "StorageQueryEngine":
        """A (lazily built, shared) query engine over the snapshot —
        readers at the same horizon share its plan cache too."""
        if self._queries is None:
            from repro.query.engine import StorageQueryEngine
            self._queries = StorageQueryEngine(self.engine)
        return self._queries

    def __repr__(self) -> str:
        return (f"Snapshot({self.version}, pins={self.pins}, "
                f"{self.engine.node_count()} nodes)")


class SnapshotManager:
    """Pin-counted cache of snapshots over one backend, keyed by the
    horizon its owner publishes."""

    def __init__(self, backend: "StorageBackend",
                 max_cached: int = DEFAULT_MAX_CACHED,
                 write_latch: Optional[threading.Lock] = None) -> None:
        self.backend = backend
        self.max_cached = max_cached
        #: Lock the owning server holds across every commit and
        #: checkpoint.  Pins fall back to it when optimistic
        #: key-verification keeps losing races against the writer;
        #: holding it makes reading the key + materialization atomic
        #: with respect to horizon moves.  ``None`` (no concurrent
        #: writer) disables the fallback.
        self._write_latch = write_latch
        self._lock = threading.Lock()
        self._cache: dict[Key, Snapshot] = {}
        #: Insertion order of keys (oldest first) for eviction.
        self._order: list[Key] = []
        #: The published key (see :meth:`committed`/:meth:`checkpointed`).
        self._key: Key = (0, 0)
        #: ``(key before the last checkpoint, key it published)`` — two
        #: names of one state, the bridge a roll forward crosses.
        self._rebase: Optional[tuple[Key, Key]] = None

    # -- the version key --------------------------------------------------

    def current_key(self) -> Key:
        """The key a snapshot pinned *now* would get: the last one the
        owner published.  O(1), no backend I/O."""
        return self._key

    def committed(self, horizon: int) -> None:
        """Publish a commit whose COMMIT record has LSN *horizon*.

        Called by the writer inside the critical section of the commit
        (under the write latch), after the COMMIT reached the log."""
        self._key = (self._key[0], horizon)

    def checkpointed(self, lsn: int) -> None:
        """Publish a checkpoint covering the log through *lsn*.

        Called under the write latch right after the image landed and
        the log was reset.  The image holds exactly the state of the
        key published before it, which the manager records so the
        newest snapshot can roll across with zero records."""
        self._rebase = (self._key, (lsn, lsn))
        self._key = (lsn, lsn)

    # -- pin / release ----------------------------------------------------

    def pin(self) -> Snapshot:
        """A frozen snapshot of the current committed state.

        Cache hit: O(1) under the lock.  Miss: :meth:`_materialize`
        (outside the lock — readers at other horizons are not
        blocked) rolls the newest unpinned snapshot forward, or else
        runs :func:`~repro.storage.recovery.recover`.  The result is
        published only if the state it holds is the key asked for: a
        commit or checkpoint that landed mid-recovery may have put
        state the key does not claim into the engine (or paired the
        old image with the reset log), and the pin retries.  After
        :data:`PIN_OPTIMISTIC_ATTEMPTS` lost races it serializes with
        the writer through the shared write latch instead of starving.
        """
        for _ in range(PIN_OPTIMISTIC_ATTEMPTS):
            key = self.current_key()
            snapshot = self._pin_cached(key)
            if snapshot is not None:
                return snapshot
            try:
                materialized = self._materialize(key)
            except StorageError:
                if self.current_key() == key:
                    raise  # stable horizon: a genuine recovery failure
                continue  # a checkpoint raced recover(); re-read
            if materialized.key != key:
                continue  # the writer moved: contents differ from key
            return self._publish(key, materialized)
        # Sustained contention: the writer keeps moving the horizon
        # under us.  Take the latch it holds across commit/checkpoint
        # so key + materialization are atomic this round.
        if self._write_latch is None:
            raise SessionError(
                "could not pin a stable snapshot: the committed "
                f"horizon moved {PIN_OPTIMISTIC_ATTEMPTS} times "
                "during materialization and no write latch is "
                "configured to serialize with the writer")
        with self._write_latch:
            key = self.current_key()
            snapshot = self._pin_cached(key)
            if snapshot is not None:
                return snapshot
            materialized = self._materialize(key)
        return self._publish(materialized.key, materialized)

    def _pin_cached(self, key: Key) -> Optional[Snapshot]:
        """Pin the cached snapshot at *key*, or None on a miss."""
        with self._lock:
            snapshot = self._cache.get(key)
            if snapshot is not None:
                snapshot.pins += 1
                if obs.RECORDING:
                    obs.REGISTRY.counter(
                        "server.snapshot.cache_hits").inc()
                    self._record_pins()
            return snapshot

    def _publish(self, key: Key, materialized: Snapshot) -> Snapshot:
        """Cache *materialized* under *key* (unless another reader
        raced the materialization) and pin the cached copy."""
        with self._lock:
            snapshot = self._cache.get(key)
            if snapshot is None:
                snapshot = materialized
                self._cache[key] = snapshot
                self._order.append(key)
                self._evict_stale()
            snapshot.pins += 1
            if obs.RECORDING:
                self._record_pins()
            return snapshot

    def release(self, snapshot: Snapshot) -> None:
        """Drop one pin; unpinned stale versions become evictable."""
        with self._lock:
            if snapshot.pins <= 0:
                raise SessionError(
                    f"snapshot {snapshot.version} is not pinned")
            snapshot.pins -= 1
            self._evict_stale()
            if obs.RECORDING:
                self._record_pins()

    def pinned(self) -> int:
        """Total pins across cached snapshots."""
        with self._lock:
            return sum(s.pins for s in self._cache.values())

    def cached(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- internals --------------------------------------------------------

    def _materialize(self, key: Key) -> Snapshot:
        """A snapshot keyed by the state it actually holds: *key* when
        rolled forward, else whatever :func:`recover` found durable."""
        rolled = self._roll_forward(key)
        if rolled is not None:
            return rolled
        # recover() asserts relabels == 0 and the §9 invariants, and by
        # construction replays only the committed prefix — the two
        # halves of the reader-isolation guarantee.
        result = recover(self.backend)
        if obs.RECORDING:
            obs.REGISTRY.counter(
                "server.snapshot.materializations").inc()
        return Snapshot((result.checkpoint_lsn, result.horizon),
                        result.engine, result.relabels)

    def _roll_forward(self, key: Key) -> Optional[Snapshot]:
        """Advance the newest cached snapshot to *key* in place, or
        None when it is pinned, absent or cannot reach *key* from the
        log (the caller then materializes in full)."""
        with self._lock:
            if not self._order:
                return None
            snapshot = self._cache[self._order[-1]]
            start, rebase = snapshot.key, self._rebase
            crosses = start[0] != key[0]
            if crosses:
                reachable = (rebase is not None and rebase[0] == start
                             and rebase[1][0] == key[0])
            else:
                reachable = start[1] < key[1]
            if snapshot.pins or not reachable:
                return None
            # Out of the cache while it changes: no reader can pin it.
            del self._cache[start]
            self._order.pop()
        if crosses:
            # The checkpoint image holds exactly this state; the
            # records past it live in the fresh log.
            lsn = key[0]
            snapshot.key = (lsn, lsn)
            snapshot.engine.checkpoint_lsn = lsn
            snapshot._cursor = (HEADER_LEN, lsn)
        records = self._wal_delta(snapshot, key[1])
        if records is None:
            return None  # LSN gap: this log no longer holds the delta
        result = RecoveryResult(
            engine=snapshot.engine, image_path=self.backend.describe(),
            wal_path=None, checkpoint_lsn=key[0],
            backend=self.backend.name)
        if records:
            if snapshot._index is None:
                snapshot._index = {
                    d.nid.symbols(): d
                    for d in snapshot.engine.iter_document_order()}
            replay(snapshot.engine, records, snapshot._index, result,
                   floor=snapshot.horizon)
        if result.replayed:
            check_replayed(snapshot.engine, result)
        snapshot.key = key
        snapshot.relabels = snapshot.engine.relabel_count
        if obs.RECORDING:
            registry = obs.REGISTRY
            registry.counter("server.snapshot.roll_forwards").inc()
            registry.counter(
                "server.snapshot.roll_forward.records").inc(
                    result.replayed)
            # A roll forward reuses a cached snapshot: it is a hit for
            # the cache's purpose (no full materialization).
            registry.counter("server.snapshot.cache_hits").inc()
        return snapshot

    def _wal_delta(self, snapshot: Snapshot,
                   horizon: int) -> Optional[list[WalRecord]]:
        """The log records from *snapshot*'s cursor through LSN
        *horizon*, advancing the cursor; None unless they are all
        present with consecutive LSNs (a reset log, or a horizon not
        in this log, is a gap)."""
        offset, lsn = snapshot._cursor
        if lsn == horizon:
            return []
        store = self.backend.wal_store()
        if store is None:
            return None
        records: list[WalRecord] = []
        for record, end in iter_records(store.load(), offset,
                                        backend=store.backend):
            if record.lsn != lsn + 1:
                return None
            records.append(record)
            lsn = record.lsn
            if lsn == horizon:
                snapshot._cursor = (end, lsn)
                return records
        return None

    def _record_pins(self) -> None:
        obs.REGISTRY.gauge("server.snapshot.pinned").set(
            sum(s.pins for s in self._cache.values()))
        obs.REGISTRY.gauge("server.snapshot.cached").set(
            len(self._cache))

    def _evict_stale(self) -> None:
        """Under the lock: drop old unpinned versions past the bound
        (the newest version survives even unpinned — it is the next
        reader's cache hit or roll-forward base)."""
        while len(self._order) > self.max_cached:
            for key in list(self._order[:-1]):
                snapshot = self._cache[key]
                if snapshot.pins == 0:
                    del self._cache[key]
                    self._order.remove(key)
                    break
            else:
                return  # everything old is pinned; nothing to evict

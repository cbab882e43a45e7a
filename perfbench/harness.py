"""Run bookkeeping shared by the three workloads.

A :class:`Run` drives one workload for a time budget as a closed loop:
one client thread issues the next operation only after the previous
one returned.  Each operation is timed on its own (``perf_counter``);
throughput is completed operations over the time spent inside
operations, so input generation and the benchmark's own correctness
checks (which run between operations) never count as program time.

With tracing on, rounds alternate between untraced and traced, so
the two halves see the same mix and the same drift; the ratio of
their throughputs is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from perfbench.tracing import Tracer, layer_targets

#: The checkout root (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: Everything a run leaves behind: span dumps, exact-count records and
#: the temporary storage directories (removed at the end of a run).
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up is repeated at least this many times per run, and until
#: SETUP_MIN_S seconds of set-up were measured (at most
#: SETUP_MAX_REPEATS times), so a set-up of a few tens of ms is not
#: one scheduling hiccup away from a different median.  ``setup_s`` is
#: the median, and only the last built state is measured.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25


class CheckFailed(Exception):
    """A benchmark-side correctness check failed."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_fingerprint() -> str:
    """Digest of the program's and the benchmark's sources: exact counts
    are compared only between runs of the same code."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"),
             *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def scratch_dir(prefix: str, parent: Optional[Path] = None) -> Path:
    """A fresh temporary directory inside the checkout."""
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent or OUT_DIR))


def remove_dir(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


class Run:
    """Samples, failures and (optionally) spans of one measured run."""

    def __init__(self, seconds: float, trace: bool) -> None:
        self.seconds = seconds
        self.trace = trace
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self._targets = layer_targets() if trace else []
        #: Whether the current round records spans.
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: op kind -> durations (seconds) in untraced rounds.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Time inside operations and op counts, by traced-ness.
        self.busy = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self.rounds = 0
        #: Telemetry counter deltas over the traced rounds.
        self.telemetry: dict[str, float] = defaultdict(float)

    # -- rounds ----------------------------------------------------------

    def rounds_until_done(self, run_round: Callable[[], None]) -> None:
        """Run rounds until the budget is spent (always at least two
        when tracing, so both halves have data)."""
        started = time.perf_counter()
        while (time.perf_counter() - started < self.seconds
               or (self.trace and self.rounds < 2)):
            self.tracing = self.trace and self.rounds % 2 == 1
            if self.tracing:
                before = _telemetry()
                self.tracer.install(self._targets)
            try:
                run_round()
            finally:
                if self.tracing:
                    self.tracer.uninstall()
                    for name, value in _telemetry().items():
                        self.telemetry[name] += value - before[name]
                self.tracing = False
            self.rounds += 1

    # -- operations ------------------------------------------------------

    def op(self, kind: str, fn: Callable[[], object],
           variant: Optional[str] = None):
        """Time one operation; a library error counts it as failed and
        returns None (the caller skips its result check).  *variant*
        names the operation's template within *kind* (see
        :meth:`p50_ms`)."""
        from repro.errors import ReproError
        self.attempted += 1
        tracing = self.tracing
        started = time.perf_counter()
        try:
            if tracing:
                with self.tracer.op(kind):
                    result = fn()
            else:
                result = fn()
        except ReproError as error:
            self.fail(f"{kind}: {type(error).__name__}: {error}")
            return None
        finally:
            elapsed = time.perf_counter() - started
            self.busy[tracing] += elapsed
            self.ops[tracing] += 1
        if not tracing:
            self.samples[kind].append(elapsed)
            if variant is not None:
                self.samples[f"{kind}:{variant}"].append(elapsed)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn*, recording a span named *name* in traced rounds (for
        layer code the benchmark itself passes in, such as an
        ``execute`` callback)."""
        return self.tracer.wrap(name, fn) if self.tracing else fn

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, condition: bool, message: str) -> None:
        """A wrong result: counts against the last operation."""
        if not condition:
            self.fail(message)

    # -- summaries -------------------------------------------------------

    def ops_per_s(self, traced: bool = False) -> float:
        busy = self.busy[traced]
        return self.ops[traced] / busy if busy else 0.0

    def _values(self, kind: str) -> list[float]:
        values = self.samples.get(kind)
        if not values:
            raise CheckFailed(f"no untraced {kind!r} samples")
        return values

    def p50_ms(self, kind: str,
               mix: Optional[dict[str, float]] = None) -> float:
        """Median latency of *kind*.  With a *mix* (variant -> share of
        the schedule), the median of each variant weighted by its
        share: a pooled median of a multi-modal mix sits in the gap
        between two modes and jumps with the sampled proportions."""
        if not mix:
            return median(self._values(kind)) * 1e3
        return sum(share * median(self._values(f"{kind}:{variant}"))
                   for variant, share in mix.items()) * 1e3

    def p95_ms(self, kind: str) -> float:
        """Pooled nearest-rank p95 of *kind* (its slowest mode)."""
        return percentile(self._values(kind), 0.95) * 1e3

    def overhead_pct(self) -> float:
        base = self.ops_per_s(False)
        return (base - self.ops_per_s(True)) / base * 100 if base else 0.0


#: Telemetry counters the traced run is cross-checked against.
TELEMETRY_COUNTERS = ("server.snapshot.materializations",
                      "server.snapshot.cache_hits")


def _telemetry() -> dict[str, float]:
    from repro import obs
    return {name: obs.REGISTRY.value(name) for name in TELEMETRY_COUNTERS}


def check_exact_counts(workload: str, seed: int, counts: dict) -> None:
    """Fail when a previous run of the same program and seed recorded
    different exact counts; otherwise record these."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"exact-{workload}-{seed}-{source_fingerprint()}.json"
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous != counts:
            changed = sorted(k for k in counts
                             if previous.get(k) != counts[k])
            raise CheckFailed(
                f"exact counts differ from an earlier run of seed "
                f"{seed}: {', '.join(changed)}")
        return
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")

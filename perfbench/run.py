"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {ingest,read,mixed} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from
``src/``.  One client process and one client thread drive ``repro``'s
public API as a closed loop (see ``perfbench/README.md`` for the
workloads, the metrics and the seeds).

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer
metrics: self time per layer from spans recorded around each layer's
entry points, the unattributed remainder, ratios and exact counts,
and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without the program's sources the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Seed used while the benchmark and later changes are developed.
DEV_SEED = 1
#: Seed kept out of development, for confirming a claim afterwards.
HELD_OUT_SEED = 9173

#: Per-layer time metrics: (metric, span name).  Each value is the
#: span's mean self time per traced operation, in ms.
LAYER_TIMES = (
    ("xmlio.parse_ms", "xmlio.parse"),
    ("mapping.f_ms", "mapping.f"),
    ("algebra.conformance_ms", "algebra.conformance"),
    ("storage.bulk_load_ms", "storage.bulk_load"),
    ("storage.load_ms", "storage.load"),
    ("storage.index_build_ms", "storage.index_build"),
    ("storage.checkpoint_ms", "storage.checkpoint"),
    ("storage.recover_ms", "storage.recover"),
    ("server.open_ms", "server.open"),
    ("server.close_ms", "server.close"),
    ("server.pin_key_ms", "server.pin_key"),
    ("server.pin_materialize_ms", "server.pin_materialize"),
    ("server.lease_ms", "server.lease"),
    ("server.execute_ms", "server.execute"),
    ("server.checkpoint_ms", "server.checkpoint"),
    ("storage.mutate_ms", "storage.mutate"),
    ("storage.commit_ms", "storage.commit"),
    ("query.plan_ms", "query.plan"),
    ("query.exec_ms", "query.eval"),
    ("storage.extract_ms", "storage.extract"),
    ("trace.unattributed_ms", "unattributed"),
)

END_TO_END_UNITS = {
    "setup_s": "s", "ops_s": "ops/s", "peak_rss_mb": "MB",
    "stored_bytes_per_xml_byte": "ratio",
    "primary_p50_ms": "ms", "primary_p95_ms": "ms",
    "secondary_p50_ms": "ms", "secondary_p95_ms": "ms",
}

def _workloads():
    from perfbench import ingest, mixed, read
    return {module.NAME: (module, cls) for module, cls in (
        (ingest, ingest.Ingest), (read, read.Read), (mixed, mixed.Mixed))}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "read", "mixed"))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build(cls, seed: int, types: dict):
    """Set up repeatedly (see SETUP_REPEATS); keep the last state,
    return it with the median set-up time."""
    from perfbench.harness import (
        SETUP_MAX_REPEATS, SETUP_MIN_S, SETUP_REPEATS)
    times = []
    workload = None
    while (len(times) < SETUP_REPEATS
           or (sum(times) < SETUP_MIN_S
               and len(times) < SETUP_MAX_REPEATS)):
        if workload is not None:
            workload.teardown()
            workload = None
        gc.collect()
        workload = cls(seed, types)
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return workload, median(times), times


def end_to_end(workload, run, setup_s: float) -> dict[str, float]:
    from perfbench.harness import peak_rss_mb
    return {
        "setup_s": setup_s,
        "ops_s": run.ops_per_s(),
        "peak_rss_mb": peak_rss_mb(),
        "stored_bytes_per_xml_byte":
            workload.exact["stored_bytes"] / workload.exact["xml_bytes"],
        "primary_p50_ms": run.p50_ms(
            workload.primary, workload.mix.get(workload.primary)),
        "primary_p95_ms": run.p95_ms(workload.primary),
        "secondary_p50_ms": run.p50_ms(
            workload.secondary, workload.mix.get(workload.secondary)),
        "secondary_p95_ms": run.p95_ms(workload.secondary),
    }


def per_layer(workload, run, parse_delta) -> tuple[dict, list[str]]:
    """The per-layer metrics of a traced run, and the report lines."""
    from perfbench.tracing import layer_table
    tracer = run.tracer
    rows, op_ms, ops = layer_table(tracer)
    by_name = dict(rows)
    metrics = {metric: by_name.get(span, 0.0)
               for metric, span in LAYER_TIMES}
    metrics["trace.op_ms"] = op_ms
    # evaluate(), inclusive of plan lookup, per op of each read kind.
    eval_ns = {"point": 0, "scan": 0}
    kind_ops = {"point": 0, "scan": 0}
    for kind in tracer.op_kinds.values():
        if kind in kind_ops:
            kind_ops[kind] += 1
    for op_id, name, duration, _ in tracer.self_times():
        kind = tracer.op_kinds[op_id]
        if name == "query.eval" and kind in eval_ns:
            eval_ns[kind] += duration
    for kind in ("point", "scan"):
        metrics[f"query.{kind}_eval_ms"] = (
            eval_ns[kind] / kind_ops[kind] / 1e6 if kind_ops[kind] else 0.0)
    # Snapshot pins: every read-session open pins once.
    pins = sum(1 for span in tracer.spans
               if span[3] == "server.open"
               and tracer.op_kinds[span[2]] in kind_ops)
    materialized = tracer.count("server.pin_materialize")
    hits = pins - materialized
    metrics["server.snapshot_hit_ratio"] = hits / pins if pins else 0.0
    plan_hits, plan_misses = workload.plan_stats()
    metrics["query.plan_hit_ratio"] = (
        plan_hits / (plan_hits + plan_misses)
        if plan_hits + plan_misses else 0.0)
    parse_hits, parse_misses = parse_delta
    metrics["query.parse_hit_ratio"] = (
        parse_hits / (parse_hits + parse_misses)
        if parse_hits + parse_misses else 0.0)
    metrics.update({name: 0.0 for name in (
        "query.point_results_per_op", "query.scan_results_per_op",
        "storage.wal_records_per_write", "storage.wal_bytes_per_write",
        "storage.relabels")})
    metrics.update(workload.layer_counts(run))
    metrics["trace.overhead_pct"] = run.overhead_pct()

    lines = [f"per-layer self time, {ops} traced ops "
             f"(ms per op; rows + unattributed = traced op time)"]
    total = 0.0
    for name, ms in rows:
        total += ms
        lines.append(f"  {name:<26} {ms:10.4f} ms  "
                     f"{ms / op_ms * 100 if op_ms else 0:5.1f}%")
    lines.append(f"  {'sum of rows':<26} {total:10.4f} ms")
    lines.append(f"  {'traced op time':<26} {op_ms:10.4f} ms")
    lines.append(f"trace.overhead_pct {metrics['trace.overhead_pct']:.2f} "
                 f"(ops/s untraced {run.ops_per_s(False):.3f}, traced "
                 f"{run.ops_per_s(True):.3f})")
    telemetry_mat = run.telemetry["server.snapshot.materializations"]
    telemetry_hits = run.telemetry["server.snapshot.cache_hits"]
    agree = (telemetry_mat == materialized and telemetry_hits == hits)
    lines.append(
        f"telemetry cross-check: trace materializations {materialized}, "
        f"cache hits {hits}; obs.REGISTRY "
        f"server.snapshot.materializations {telemetry_mat:g}, "
        f"server.snapshot.cache_hits {telemetry_hits:g} -> "
        + ("agree" if agree else "DISAGREE"))
    return metrics, lines


def report_end_to_end(workload, metrics: dict, run) -> list[str]:
    """The end-to-end table, latencies also under the workload's own
    operation names (``point_p50_ms``, ``write_p95_ms``, ...)."""
    primary, secondary = workload.primary, workload.secondary
    lines = ["end-to-end (untraced):"]
    aliases = {"primary_p50_ms": f"{primary}_p50_ms",
               "primary_p95_ms": f"{primary}_p95_ms",
               "secondary_p50_ms": f"{secondary}_p50_ms",
               "secondary_p95_ms": f"{secondary}_p95_ms"}
    for metric, value in metrics.items():
        alias = aliases.get(metric)
        label = f"{alias} ({metric})" if alias else metric
        lines.append(f"  {label:<40} {value:14.4f} "
                     f"{END_TO_END_UNITS[metric]}")
    for kind in (primary, secondary):
        lines.append(f"  samples: {kind} n={len(run.samples[kind])}")
    if workload.name == "ingest":
        lines.append(f"  ingest_s {metrics['primary_p50_ms'] / 1e3:.4f} s,"
                     f" recover_s {metrics['secondary_p50_ms'] / 1e3:.4f} s")
    rate = run.failed / run.attempted if run.attempted else 0.0
    lines.append(f"  {'error_rate':<40} {rate:14.4f} fraction")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # the program under test
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}:"
              f" {error}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: measuring {repro.__file__}, not the checkout's "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import library
    from perfbench.harness import (
        OUT_DIR, CheckFailed, Run, check_exact_counts)
    from repro.query.cache import (
        PARSE_CACHE_CAPACITY, PLAN_CACHE_CAPACITY, parse_cache_stats)
    from repro.server.snapshots import DEFAULT_MAX_CACHED

    module, cls = _workloads()[args.workload]
    types = library.index_types()
    workload, setup_s, setup_times = build(cls, args.seed, types)
    run = Run(args.seconds, bool(args.trace))
    correct = True
    problems: list[str] = []
    metrics: dict = {}
    lines: list[str] = []
    try:
        workload.prepare()
        gc.collect()
        parse_before = parse_cache_stats()
        run.rounds_until_done(lambda: workload.run_round(run))
        parse_after = parse_cache_stats()
        workload.finish(run)
        check_exact_counts(args.workload, args.seed, workload.exact)
        if args.trace:
            metrics, lines = per_layer(
                workload, run,
                (parse_after.hits - parse_before.hits,
                 parse_after.misses - parse_before.misses))
        else:
            metrics = end_to_end(workload, run, setup_s)
            lines = report_end_to_end(workload, metrics, run)
    except CheckFailed as error:
        correct = False
        problems.append(str(error))
    finally:
        workload.teardown()
        if run.tracer is not None:
            OUT_DIR.mkdir(exist_ok=True)
            run.tracer.dump(OUT_DIR / f"trace-{args.workload}-"
                                      f"{args.seed}.jsonl")
    correct = correct and run.failed == 0

    print(f"workload {args.workload}: {module.WHY}")
    meta = dict(workload.meta)
    meta.update({
        "seed": args.seed, "dev_seed": DEV_SEED,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "rounds": run.rounds,
        "plan_cache": PLAN_CACHE_CAPACITY,
        "parse_cache": PARSE_CACHE_CAPACITY,
        "snapshot_cache": DEFAULT_MAX_CACHED,
        "flush_policy": f"sync_wal={library.SYNC_WAL}",
        "setup_runs_s": [round(t, 4) for t in setup_times],
        "exact_counts": workload.exact,
        "python": platform.python_version(),
    })
    print("run: " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    for failure in run.failures + problems:
        print(f"FAILED: {failure}")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed + len(problems),
        "metrics": {name: {"value": value,
                           "unit": END_TO_END_UNITS.get(
                               name, _layer_unit(name))}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes") or name.endswith("_bytes_per_write"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

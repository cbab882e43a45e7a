"""Query plan compilation against the descriptive schema.

Section 9's pitch is that the descriptive schema lets the engine
answer a path query by scanning only the blocks of the matching schema
nodes.  The evaluator used to re-derive that match on every call; this
module compiles a path **once** into a :class:`CompiledPlan` — the
matched schema nodes plus an execution strategy — and caches the plan
keyed by the path and stamped with the schema's growth version.
Because every document path has exactly one schema path (the defining
property of Section 9.1), a plan stays valid until the schema itself
grows: pure data inserts add descriptors to existing block lists,
which the plan's live block scan picks up for free.

Strategies, from fastest to slowest:

* ``empty`` — no schema node can match (including structural pruning:
  a predicate like ``[@isbn]`` on a schema node with no ``@isbn``
  schema child can never hold, Section 9.1 again), so the result is
  ``[]`` with no data access at all;
* ``scan`` — scan the block lists of the matched schema nodes and
  apply final-step predicates per instance;
* ``hybrid`` — the path has predicates on an *inner* step: scan the
  blocks for the prefix ending at that step, filter instances, then
  navigate only the remaining steps (the old code fell back to naive
  navigation from the root for the whole path);
* ``naive`` — per-descriptor navigation; required only for positional
  predicates on ``//`` steps, whose whole-selection grouping a flat
  block scan cannot reproduce.

With declared secondary indexes (:mod:`repro.storage.indexes`) a
fifth strategy slots in above ``scan``:

* ``index`` — the step's first value predicate is answered by a
  typed-value index probe (equality or existence) instead of scanning
  and testing every instance, or the whole predicate-free path is
  answered by a path index's pre-merged posting list.  Remaining
  predicates and suffix steps run exactly as in ``scan``/``hybrid``.

One routine plans every path: :func:`_candidate_plans` enumerates
**every** applicable candidate — the scan/hybrid baseline, one
value-index probe per eligible predicate, the path-index probe, and
naive — and marks the one the fixed structural precedence picks
(probe on the first predicate > scan/hybrid).  With engine statistics
available (the default through :class:`QueryPlanner`) the cheapest
candidate under the :mod:`repro.query.cost` model wins; the forced
policies and the statistics-free path take fixed picks from the same
enumeration.

Each plan carries one freshness **stamp**, ``(schema version, index
epoch, statistics epoch)``, set once when the plan compiles.  A cached
plan whose stamp matches the engine's is handed out after one
comparison.  On a mismatch, a grown schema invalidates the plan;
DDL (CREATE/DROP INDEX) or drift in a schema node whose statistics
the plan priced recompiles it and keeps it (restamped) if its
decision did not change; statistics drift elsewhere restamps it in
place without recompiling — so DDL and statistics invalidate exactly
the affected plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro import obs
from repro.obs import explain as _explain
from repro.query.cache import (
    LRUCache,
    PLAN_CACHE_CAPACITY,
    CacheStats,
    cached_parse_path,
)
from repro.query.paths import (
    AttributePredicate,
    ChildPredicate,
    Path,
    PositionPredicate,
    Step,
)
from repro.storage.dschema import SchemaNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.engine import StorageQueryEngine
    from repro.storage.dschema import DescriptiveSchema
    from repro.storage.engine import NodeDescriptor


# ----------------------------------------------------------------------
# Schema matching (shared by the planner and the public
# ``matching_schema_nodes`` of the query engine).


def _schema_candidates(schema_node: SchemaNode,
                       step: Step) -> Iterator[SchemaNode]:
    if step.axis == "child":
        yield from schema_node.children
    else:
        def walk(node: SchemaNode) -> Iterator[SchemaNode]:
            yield node
            for child in node.children:
                yield from walk(child)
        yield from walk(schema_node)


def _schema_accepts(schema_node: SchemaNode, step: Step) -> bool:
    if step.kind == "text":
        return schema_node.node_type == "text"
    if step.kind == "attribute":
        return (schema_node.node_type == "attribute"
                and step.matches_name(schema_node.name.local))
    if schema_node.node_type != "element":
        return False
    return step.matches_name(schema_node.name.local)


def match_step(schema_nodes: "list[SchemaNode]",
               step: Step) -> "list[SchemaNode]":
    """Schema nodes reached from *schema_nodes* by one *step*.

    Deduplication holds the schema nodes themselves (identity hash),
    not their transient ``id()``s.
    """
    bucket: list[SchemaNode] = []
    seen: set[SchemaNode] = set()
    for schema_node in schema_nodes:
        for candidate in _schema_candidates(schema_node, step):
            if candidate not in seen and _schema_accepts(candidate, step):
                seen.add(candidate)
                bucket.append(candidate)
    return bucket


def match_schema_nodes(root: SchemaNode,
                       steps: tuple[Step, ...]) -> list[SchemaNode]:
    """Schema nodes reached from *root* along *steps* (predicates are
    ignored — this is the pure Section 9.1 path match)."""
    current: list[SchemaNode] = [root]
    for step in steps:
        current = match_step(current, step)
    return current


def structurally_feasible(schema_node: SchemaNode, predicates) -> bool:
    """Can *any* instance of this schema node satisfy the predicates?

    ``[@name…]`` needs an ``@name`` attribute schema child and
    ``[name…]`` an element schema child ``name`` — if the descriptive
    schema has no such child, no instance anywhere has one (the
    node→schema-node mapping is surjective), so the schema node can be
    pruned without touching a single block.  Positional predicates
    never prune.
    """
    for predicate in predicates:
        if isinstance(predicate, AttributePredicate):
            if not any(child.node_type == "attribute"
                       and child.name.local == predicate.name
                       for child in schema_node.children):
                return False
        elif isinstance(predicate, ChildPredicate):
            if not any(child.node_type == "element"
                       and child.name is not None
                       and child.name.local == predicate.name
                       for child in schema_node.children):
                return False
    return True


# ----------------------------------------------------------------------
# Compiled plans.


def _doc_order_key(descriptor: "NodeDescriptor") -> bytes:
    """Memoized packed document-order key (§9.3) — C-level bytewise
    comparisons instead of per-comparison tuple walks."""
    return descriptor.nid.sort_key()


class CompiledPlan:
    """One path compiled against one descriptive-schema version."""

    __slots__ = ("path", "stamp", "strategy", "scan_nodes", "split",
                 "pruned_schema_nodes", "probe", "rest_predicates",
                 "index_used", "executor", "stats_nodes", "cost",
                 "cost_table")

    def __init__(self, path: Path, strategy: str,
                 scan_nodes: tuple[SchemaNode, ...],
                 split: Optional[int],
                 pruned_schema_nodes: int,
                 probe: Optional[tuple] = None,
                 rest_predicates: tuple = (),
                 index_used: str = "") -> None:
        self.path = path
        #: ``(schema version, index epoch, statistics epoch)`` the plan
        #: was compiled under — set by :func:`compile_plan`, restamped
        #: in place by the cache when a recheck keeps the plan.
        self.stamp: tuple = ()
        #: "empty" | "index" | "scan" | "hybrid" | "naive".
        self.strategy = strategy
        #: Schema nodes whose block lists the plan scans ("scan": the
        #: full path; "hybrid": the prefix ending at the predicate
        #: step).
        self.scan_nodes = scan_nodes
        #: For "hybrid": index of the first inner step with predicates.
        self.split = split
        #: Schema nodes discarded by structural predicate pruning.
        self.pruned_schema_nodes = pruned_schema_nodes
        #: "index" strategy: ("eq", index, key, via_parent),
        #: ("exists", index, None, via_parent) or ("path", index).
        self.probe = probe
        #: Predicates of the probed step still tested per instance.
        self.rest_predicates = rest_predicates
        #: "value:<path>" / "path:<path>" (EXPLAIN), "" otherwise.
        self.index_used = index_used
        #: Lazily lowered closure chain (:mod:`repro.query.compiled`);
        #: built on the first cached execution, dropped whenever the
        #: plan is restamped after DDL (the probe bindings may differ).
        self.executor = None
        #: Schema nodes whose statistics the cost model consulted when
        #: choosing this plan — the exact re-plan scope of a
        #: statistics-epoch bump.  Empty for structurally-forced plans
        #: (their decision never depends on statistics).
        self.stats_nodes: tuple[SchemaNode, ...] = ()
        #: The chosen candidate's :class:`~repro.query.cost.CostEstimate`
        #: (None when the plan was picked structurally).
        self.cost = None
        #: Every priced candidate, chosen one flagged — the EXPLAIN
        #: cost table.
        self.cost_table: tuple = ()

    def execute(self, queries: "StorageQueryEngine"
                ) -> "list[NodeDescriptor]":
        """Run the plan over the engine's *current* data.

        The block scan is live, so descriptors inserted after
        compilation are found as long as the schema has not grown
        (which the plan cache checks before handing out a plan).
        """
        if self.strategy == "naive":
            return queries.evaluate_naive(self.path)
        if self.strategy == "empty":
            return []
        if self.strategy == "index":
            return self._execute_probe(queries)
        engine = queries.engine
        if len(self.scan_nodes) == 1:
            result = list(engine.scan_schema_node(self.scan_nodes[0]))
        else:
            # Each per-schema-node scan is already in document order;
            # sorting the concatenation restores global order in one
            # linear galloping merge (Timsort recognizes the runs),
            # which beats a Python-level k-way heap merge.
            result = [descriptor
                      for schema_node in self.scan_nodes
                      for descriptor in engine.scan_schema_node(
                          schema_node)]
            result.sort(key=_doc_order_key)
        context = _explain.ACTIVE
        if context is not None:
            context.nodes_visited += len(result)
        steps = self.path.steps
        scan_step = steps[-1] if self.split is None else steps[self.split]
        if scan_step.predicates:
            result = queries._apply_final_predicates(result,
                                                     scan_step.predicates)
        if self.strategy == "hybrid":
            result = queries._navigate_steps(result,
                                             steps[self.split + 1:])
        return result

    def execute_compiled(self, queries: "StorageQueryEngine"
                         ) -> "list[NodeDescriptor]":
        """Run the plan through its lowered closure chain.

        Lowering happens once, on the first cached execution, and the
        resulting :class:`~repro.query.compiled.CompiledExecutor` is
        pinned to the plan: the cache drops the whole plan when the
        schema grows and nulls :attr:`executor` when a DDL restamp
        keeps the plan, so a live executor is always consistent with
        the bindings it closed over.  Every strategy lowers.
        """
        executor = self.executor
        if executor is None:
            from repro.query.compiled import lower
            executor = lower(self, queries)
            self.executor = executor
        context = _explain.ACTIVE
        if context is not None:
            return executor.run_explained(context)
        return executor.run()

    def _execute_probe(self, queries: "StorageQueryEngine"
                       ) -> "list[NodeDescriptor]":
        """Answer the probed step from the index posting lists."""
        probe = self.probe
        assert probe is not None
        if probe[0] == "path":
            result = probe[1].probe()
        else:
            mode, index, key, via_parent = probe
            owners = (index.probe_eq(key) if mode == "eq"
                      else index.probe_exists())
            if via_parent:
                # An element-value index posts the children; the
                # predicate selects their parents (deduplicated,
                # document order preserved — equal-depth paths keep
                # parent order aligned with child order).
                seen: set[bytes] = set()
                result = []
                for owner in owners:
                    parent = owner.parent
                    if parent is None:  # pragma: no cover - defensive
                        continue
                    parent_key = parent.nid.sort_key()
                    if parent_key not in seen:
                        seen.add(parent_key)
                        result.append(parent)
            else:
                result = owners
        context = _explain.ACTIVE
        if context is not None:
            context.nodes_visited += len(result)
        if self.rest_predicates:
            result = queries._apply_final_predicates(
                result, self.rest_predicates)
        if self.split is not None:
            result = queries._navigate_steps(
                result, self.path.steps[self.split + 1:])
        return result

    def __repr__(self) -> str:
        return (f"CompiledPlan({self.path!r}, {self.strategy}, "
                f"{len(self.scan_nodes)} schema nodes, "
                f"stamp {self.stamp})")


#: Deterministic tie-break when candidates price equal: the historical
#: structural precedence (probe > scan/hybrid > naive).
_STRATEGY_RANK = {"empty": 0, "index": 1, "scan": 2, "hybrid": 3,
                  "naive": 4}

#: Planner policies: ``cost`` prices every candidate and takes the
#: cheapest (falling back to ``structural`` without statistics);
#: ``structural`` takes the enumeration's fixed-precedence pick;
#: ``scan`` takes the baseline of an index-free enumeration; ``naive``
#: always navigates.  The forced policies exist for the benchmark
#: harness and the parity tests — every policy returns the same rows.
POLICIES = ("cost", "structural", "scan", "naive")


def compile_plan(path: Path, schema: "DescriptiveSchema",
                 indexes=None, stats=None, block_capacity: int = 64,
                 policy: str = "cost") -> CompiledPlan:
    """Compile *path* against the current schema (no caching here).

    *indexes* is the engine's :class:`IndexManager` (or None for the
    pure scan planner, e.g. the index-free ``evaluate_schema_driven``
    baseline).  *stats* is the engine's
    :class:`~repro.obs.statistics.StatisticsCollector`; when given
    (and *policy* is ``cost``) every applicable candidate strategy is
    priced under :mod:`repro.query.cost` and the cheapest wins,
    otherwise the enumeration's structural pick applies.  The plan's
    :attr:`~CompiledPlan.stamp` is set here, once.
    """
    if obs.ENABLED:
        with obs.TRACER.span("query.plan.compile", path=str(path)):
            plan = _plan_for_policy(path, schema, indexes, stats,
                                    block_capacity, policy)
    else:
        plan = _plan_for_policy(path, schema, indexes, stats,
                                block_capacity, policy)
    plan.stamp = (schema.version,
                  indexes.epoch if indexes is not None else 0,
                  stats.epoch if stats is not None else 0)
    if not obs.RECORDING:
        return plan
    obs.REGISTRY.counter("query.plan.compiles").inc()
    obs.REGISTRY.counter(
        f"query.plan.strategy.{plan.strategy}").inc()
    if plan.pruned_schema_nodes:
        obs.REGISTRY.counter("query.plan.pruned_schema_nodes").inc(
            plan.pruned_schema_nodes)
    return plan


def _plan_for_policy(path: Path, schema: "DescriptiveSchema", indexes,
                     stats, block_capacity: int,
                     policy: str) -> CompiledPlan:
    if policy == "naive":
        return CompiledPlan(path, "naive", (), None, 0)
    if policy == "scan":
        return _candidate_plans(path, schema, None)[0][0]
    candidates, structural_pick = _candidate_plans(path, schema, indexes)
    if policy == "structural" or stats is None:
        return candidates[structural_pick]
    return _costed_plan(candidates, structural_pick, schema, stats,
                        block_capacity)


def _candidate_plans(path: Path, schema: "DescriptiveSchema", indexes
                     ) -> "tuple[list[CompiledPlan], int]":
    """Every strategy that can answer *path*, plus the index of the
    candidate the structural precedence picks (a probe on the first
    predicate, else the scan/hybrid baseline).

    The first entry is always the structurally-forced plan when one
    exists (naive-on-``//``-positional, or ``empty``), in which case
    it is the only entry.  Otherwise the list holds the scan/hybrid
    baseline, one ``index`` candidate per eligible value-index probe
    (any prefix of non-positional predicates may be probed, not just
    the first — the remaining predicates commute as pure filters), the
    path-index candidate, and a priced ``naive`` — all sharing the
    plan shapes :mod:`repro.query.compiled` already lowers.
    """
    steps = path.steps
    naive = CompiledPlan(path, "naive", (), None, 0)
    for step in steps:
        if (step.axis == "descendant-or-self"
                and any(isinstance(p, PositionPredicate)
                        for p in step.predicates)):
            # Positional predicates on ``//`` steps have
            # whole-selection semantics no block scan (or probe)
            # reproduces, so the whole query navigates.
            return [naive], 0
    split: Optional[int] = None
    for index, step in enumerate(steps[:-1]):
        if step.predicates:
            split = index
            break
    prefix = steps if split is None else steps[:split + 1]
    matched = match_schema_nodes(schema.root, prefix)
    pruned = 0
    if prefix[-1].predicates:
        feasible = [node for node in matched
                    if structurally_feasible(node, prefix[-1].predicates)]
        pruned = len(matched) - len(feasible)
        matched = feasible
    if not matched:
        return [CompiledPlan(path, "empty", (), split, pruned)], 0
    base_strategy = "scan" if split is None else "hybrid"
    predicates = prefix[-1].predicates
    candidates = [CompiledPlan(path, base_strategy, tuple(matched),
                               split, pruned)]
    structural_pick = 0
    if indexes is not None and indexes.active:
        if predicates and len(matched) == 1:
            for position, predicate in enumerate(predicates):
                if isinstance(predicate, PositionPredicate):
                    # A probe answers its predicate *first*; value
                    # predicates commute around it, positional ones do
                    # not — stop at the first positional.
                    break
                probe = indexes.plan_probe(matched[0], predicate)
                if probe is None:
                    continue
                rest = predicates[:position] + predicates[position + 1:]
                candidate = CompiledPlan(
                    path, "index", tuple(matched), split, pruned,
                    probe=probe, rest_predicates=rest,
                    index_used=f"value:{probe[1].definition.path}")
                candidates.append(candidate)
                if position == 0:
                    # Structural precedence probed the first predicate.
                    structural_pick = len(candidates) - 1
        elif not predicates and split is None and len(matched) > 1:
            path_index = indexes.path_probe(matched)
            if path_index is not None:
                candidates.append(CompiledPlan(
                    path, "index", tuple(matched), split, pruned,
                    probe=("path", path_index),
                    index_used=f"path:{path_index.definition.path}"))
                structural_pick = len(candidates) - 1
    candidates.append(naive)
    return candidates, structural_pick


def _costed_plan(candidates: "list[CompiledPlan]", structural_pick: int,
                 schema: "DescriptiveSchema", stats,
                 block_capacity: int) -> CompiledPlan:
    """Price each candidate, take the cheapest."""
    from repro.query.cost import CostModel
    model = CostModel(stats, block_capacity)
    table = []
    for candidate in candidates:
        estimate = model.price(candidate, schema)
        candidate.cost = estimate
        table.append(estimate)
    best = min(
        range(len(candidates)),
        key=lambda i: (table[i].total,
                       _STRATEGY_RANK[candidates[i].strategy], i))
    plan = candidates[best]
    table[best].chosen = True
    plan.cost_table = tuple(table)
    plan.stats_nodes = tuple(model.consulted)
    if obs.RECORDING:
        registry = obs.REGISTRY
        registry.counter("query.cost.priced").inc()
        registry.counter("query.cost.candidates").inc(len(table))
        registry.counter(f"query.cost.chosen.{plan.strategy}").inc()
        if best != structural_pick:
            registry.counter("query.cost.overrides").inc()
    return plan


def _same_decision(fresh: CompiledPlan, stale: CompiledPlan) -> bool:
    """Did a recompile reach the same strategic decision?  Probe mode
    participates because two predicates can probe the *same* index
    differently (eq vs exists)."""
    return (fresh.strategy == stale.strategy
            and fresh.index_used == stale.index_used
            and (fresh.probe[0] if fresh.probe else None)
            == (stale.probe[0] if stale.probe else None))


def _adopt(stale: CompiledPlan, fresh: CompiledPlan,
           drop_executor: bool) -> None:
    """Restamp *stale* in place from an equivalent *fresh* compile."""
    stale.stamp = fresh.stamp
    stale.stats_nodes = fresh.stats_nodes
    stale.cost = fresh.cost
    stale.cost_table = fresh.cost_table
    if drop_executor or stale.probe != fresh.probe \
            or stale.rest_predicates != fresh.rest_predicates:
        stale.probe = fresh.probe
        stale.rest_predicates = fresh.rest_predicates
        stale.executor = None


class QueryPlanner:
    """Per-engine plan compiler with an LRU (path → plan) cache.

    A cached plan is handed out after one comparison of its stamp
    with the engine's.  On a mismatch, a grown schema invalidates
    exactly the stale entry (the paper's claim that the descriptive
    schema is small and *stable* makes invalidations rare in
    practice); DDL or drift in a priced schema node recompiles and
    compares, restamping in place when the decision stands; a plan
    none of whose priced schema nodes drifted is restamped without
    recompiling at all.
    """

    def __init__(self, engine, capacity: int = PLAN_CACHE_CAPACITY,
                 policy: str = "cost") -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown planner policy {policy!r} "
                             f"(expected one of {POLICIES})")
        self._engine = engine
        self.policy = policy
        self._plans: LRUCache[Path, CompiledPlan] = LRUCache(
            capacity, prefix="query.plan_cache")

    def _compile(self, path: Path) -> CompiledPlan:
        engine = self._engine
        return compile_plan(path, engine.schema, engine.indexes,
                            stats=engine.stats,
                            block_capacity=engine.block_capacity,
                            policy=self.policy)

    def compile(self, path: "Path | str") -> CompiledPlan:
        if isinstance(path, str):
            path = cached_parse_path(path)
        engine = self._engine
        stats = engine.stats
        stamp = (engine.schema.version, engine.indexes.epoch, stats.epoch)
        invalidated = False
        fresh: Optional[CompiledPlan] = None
        stale = self._plans.peek(path)
        if stale is not None and stale.stamp != stamp:
            ddl = stale.stamp[1] != stamp[1]
            if stale.stamp[0] != stamp[0]:
                self._plans.invalidate(path)
                invalidated = True
            elif not ddl and not stats.drifted_since(stale.stats_nodes,
                                                     stale.stamp[2]):
                # Statistics drifted, but in none of the schema nodes
                # this plan priced: the pricing inputs are unchanged,
                # so the decision is — restamp without recompiling.
                stale.stamp = stamp
                if obs.RECORDING:
                    obs.REGISTRY.counter(
                        "query.cost.stats_restamps").inc()
            else:
                # DDL, or drift in a priced schema node.  Recompile
                # and compare: an unchanged decision is restamped in
                # place (a hit), a changed one is invalidated.  After
                # DDL the closure chain is always dropped, because the
                # probe may bind a *new* index object.
                fresh = self._compile(path)
                if not ddl and obs.RECORDING:
                    obs.REGISTRY.counter(
                        "query.cost.stats_replans").inc()
                if _same_decision(fresh, stale):
                    _adopt(stale, fresh, drop_executor=ddl)
                    fresh = None
                else:
                    self._plans.invalidate(path)
                    invalidated = True
        plan = self._plans.get(path)
        hit = plan is not None
        if plan is None:
            plan = fresh if fresh is not None else self._compile(path)
            self._plans.put(path, plan)
        context = _explain.ACTIVE
        if context is not None:
            context.plan_cache = ("hit" if hit
                                  else "invalidated" if invalidated
                                  else "miss")
            context.strategy = plan.strategy
            context.schema_nodes_scanned = len(plan.scan_nodes)
            context.pruned_schema_nodes = plan.pruned_schema_nodes
            context.index_used = plan.index_used
            if plan.cost is not None:
                context.cost_total = plan.cost.total
                context.cost_estimated_rows = plan.cost.output_rows
                context.cost_table = [estimate.as_dict()
                                      for estimate in plan.cost_table]
        if obs.RECORDING:
            # Aggregate plan-cache counters across all engines (each
            # cache also keeps its private per-engine instruments).
            registry = obs.REGISTRY
            registry.counter("query.plan_cache.hits" if hit
                             else "query.plan_cache.misses").inc()
            if invalidated:
                registry.counter("query.plan_cache.invalidations").inc()
        return plan

    def stats(self) -> CacheStats:
        return self._plans.stats()

    def clear(self) -> None:
        self._plans.clear()
        self._plans.reset_stats()

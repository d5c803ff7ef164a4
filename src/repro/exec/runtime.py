"""The executor facade: run a plan, return rows plus charged-cost metrics.

There is one execution engine, the batch-at-a-time columnar tree of
:mod:`repro.exec.vector`; every run — observed, contained or adaptive —
goes through it. Whatever watches a run listens on its execution event
stream (:mod:`repro.obs.events`). The tuple-at-a-time iterator tree the
engine replaced survives only as the test suite's reference oracle,
which pins the engine's rows and charges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.adaptive.controller import AdaptiveController, AdaptivePolicy
from repro.errors import BudgetExceededError, UdfError
from repro.exec.cache import CacheStats, PredicateCache
from repro.exec.containment import (
    ContainmentState,
    FailurePolicy,
    QuarantineReport,
)
from repro.exec.operators import OperatorStats, RuntimeContext
from repro.exec.vector import AnalyzeListener, VectorPlanRunner
from repro.storage.columnar import DEFAULT_BATCH_ROWS
from repro.faults.clock import SimulatedClock
from repro.expr.expressions import QualifiedColumn, Scope
from repro.obs.events import EventStream
from repro.obs.profile import NULL_PROFILER
from repro.obs.provenance import NULL_LEDGER
from repro.obs.tracer import NULL_TRACER
from repro.plan.display import _node_label
from repro.plan.nodes import Plan, PlanNode

@dataclass
class QueryResult:
    """Rows plus the charged-cost ledger of one execution.

    ``charged`` is the paper's "running time": random I/Os + weighted
    sequential I/Os + function invocations × per-call cost. ``completed``
    is ``False`` when the run was aborted by the cost budget — the
    reproduction's analogue of the paper's "never completed" plans.
    """

    rows: list[tuple]
    scope: Scope | None
    completed: bool
    charged: float
    metrics: dict[str, float] = field(default_factory=dict)
    cache_stats: CacheStats | None = None
    cache_entries: int = 0
    wall_seconds: float = 0.0
    #: Per-plan-node actuals keyed by ``id(plan_node)``; filled only when
    #: the execution was instrumented (EXPLAIN ANALYZE).
    node_stats: dict[int, OperatorStats] | None = None
    #: Batch-granular actuals keyed by ``id(plan_node)`` (values are
    #: :class:`~repro.exec.vector.BatchNodeStats`); filled, like
    #: ``node_stats``, only when the execution was instrumented. They
    #: add to ``node_stats`` and never replace it: the per-node totals
    #: there are the parity-gated figures and never change shape.
    batch_stats: dict[int, object] | None = None
    #: Structured DNF reason when ``completed`` is ``False`` — e.g.
    #: ``"budget: charged 1234.0 > budget 1000.0"`` or
    #: ``"udf: UDF 'costly100' failed on call #5 (permanent): ..."``.
    error: str = ""
    #: Degraded-run ledger: tuples whose predicate verdicts came from the
    #: failure policy rather than evaluation. ``None`` unless the executor
    #: ran with a :class:`FailurePolicy`.
    quarantine: QuarantineReport | None = None
    #: Per-query resource roll-up
    #: (:class:`~repro.obs.runtime_telemetry.QueryResourceReport`).
    #: ``None`` unless a live telemetry monitor listened to the run.
    resources: object | None = None
    #: What the mid-query re-optimization loop did
    #: (:class:`~repro.adaptive.controller.AdaptiveReport`). ``None``
    #: unless the executor ran with an :class:`AdaptivePolicy`.
    adaptive: object | None = None

    @property
    def degraded(self) -> bool:
        """Completed, but with policy-decided tuples in quarantine."""
        return (
            self.completed
            and self.quarantine is not None
            and self.quarantine.quarantined > 0
        )

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column(self, table: str, attribute: str) -> list[object]:
        """Extract one output column (for assertions in tests/examples)."""
        assert self.scope is not None
        slot = self.scope.slot(table, attribute)
        return [row[slot] for row in self.rows]


class Executor:
    """Runs plans against a :class:`~repro.database.Database`."""

    #: The engine every execution runs on (reported by callers that
    #: record which engine produced a result).
    executor = "vector"

    def __init__(
        self,
        db,
        caching: bool = False,
        budget: float | None = None,
        cache_limit: int | None = None,
        cache_mode: str = "predicate",
        cache_replacement: str = "fifo",
        cache_bypass: bool = False,
        cache_bypass_threshold: float = 0.95,
        tracer=None,
        profiler=None,
        failure_policy: FailurePolicy | None = None,
        clock: SimulatedClock | None = None,
        listeners=(),
        batch_rows: int = DEFAULT_BATCH_ROWS,
        cache_capacity: int | None = None,
        adaptive: AdaptivePolicy | None = None,
        ledger=None,
        adaptive_stats_store=None,
        adaptive_stats_meta: dict | None = None,
    ) -> None:
        """``cache_mode`` selects predicate-level (Montage) or
        function-level ([Jhi88]) memoisation; ``cache_bypass`` enables the
        paper's Section 5.1 heuristic of not caching predicates whose
        distinct-bindings-to-tuples ratio exceeds the threshold (caching
        such predicates costs memory and buys nothing).
        ``cache_capacity`` bounds the predicate cache's *total* entry
        count across all predicates (global LRU/FIFO per
        ``cache_replacement``), composing with the per-predicate
        ``cache_limit``. ``batch_rows`` sizes the engine's column batches
        (rows and charges do not depend on it).

        ``tracer`` records execute-phase spans (default: the
        zero-overhead null tracer); ``profiler`` accumulates build/run
        wall-clock plus, on instrumented runs, per-operator actuals
        (``exec.op.<label>``).

        ``listeners`` hear every run's execution event stream
        (:mod:`repro.obs.events`), in order: any
        :class:`~repro.obs.events.ExecutionListener`, such as a
        :class:`~repro.obs.feedback.FeedbackCollector`, a
        :class:`~repro.obs.flightrec.FlightRecorder` or a
        :class:`~repro.obs.runtime_telemetry.RuntimeMonitor`. With none
        (the default) the engine builds no observing operator and its
        hot paths carry no observation branch.

        ``failure_policy`` enables UDF failure containment (bounded
        retries with simulated-clock backoff, then the policy's
        on-exhaustion action); ``clock`` is the
        :class:`~repro.faults.clock.SimulatedClock` backoff and injected
        latency accrue on (a private one is created when omitted).

        ``adaptive`` enables mid-query re-optimization under the given
        :class:`~repro.adaptive.controller.AdaptivePolicy`: the plan's
        predicate placement may be re-planned and spliced in place at
        safe leaf boundaries (power-of-two leaf-row milestones) when
        observed selectivities drift from the declarations; ``ledger``
        (a :class:`~repro.obs.ProvenanceLedger`) receives the mandatory
        ``plan.replan``/``stats.drift`` events; ``adaptive_stats_store``
        plus ``adaptive_stats_meta`` (a
        :class:`~repro.obs.feedback.StatsFeedbackStore` and
        ``strategy``/``scale``/``seed`` metadata) make each applied
        re-plan snapshot its observations as a mid-query stats epoch."""
        self.db = db
        self.batch_rows = batch_rows
        self.cache_capacity = cache_capacity
        self.caching = caching
        self.budget = budget
        self.cache_limit = cache_limit
        self.cache_mode = cache_mode
        self.cache_replacement = cache_replacement
        self.cache_bypass = cache_bypass
        self.cache_bypass_threshold = cache_bypass_threshold
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.profiler = NULL_PROFILER if profiler is None else profiler
        self.failure_policy = failure_policy
        self.clock = clock
        self.listeners = tuple(listeners)
        self.adaptive = adaptive
        self.ledger = ledger
        self.adaptive_stats_store = adaptive_stats_store
        self.adaptive_stats_meta = adaptive_stats_meta

    def _bypass_ids(self, node: PlanNode) -> frozenset[int]:
        """Predicates not worth caching: nearly every binding is distinct.

        The estimate follows the paper: compare the predicate's distinct
        input bindings against the tuples that will reach it — approximated
        here by its relation's cardinality, an upper bound on either.
        """
        if not self.cache_bypass:
            return frozenset()
        bypass: set[int] = set()
        catalog = self.db.catalog
        for predicate in node.all_predicates():
            if not predicate.is_expensive:
                continue
            distinct = 1.0
            for table, attribute in predicate.input_columns():
                distinct *= max(
                    1, catalog.table(table).stats.ndistinct(attribute)
                )
            tuples = max(
                catalog.table(table).stats.cardinality
                for table in predicate.tables
            ) if predicate.tables else 1
            if distinct >= self.cache_bypass_threshold * tuples:
                bypass.add(predicate.pred_id)
        return frozenset(bypass)

    def execute(
        self,
        plan: Plan | PlanNode,
        project: list[QualifiedColumn] | None = None,
        raise_on_budget: bool = False,
        instrument: bool = False,
    ) -> QueryResult:
        """Execute ``plan`` cold (fresh meter, empty buffer pool, reset
        function counters) and return rows plus metrics.

        When the cost budget is exceeded, returns a ``completed=False``
        result (or re-raises if ``raise_on_budget``). ``instrument=True``
        attaches an EXPLAIN ANALYZE listener that collects per-node
        actuals (rows, charged cost, cache hits) into
        :attr:`QueryResult.node_stats` and :attr:`QueryResult.batch_stats`.
        The event stream's listeners hear, in order: the adaptive
        controller (when armed), the EXPLAIN ANALYZE listener, then the
        executor's own ``listeners``.
        """
        node = plan.root if isinstance(plan, Plan) else plan
        db = self.db
        tracer = self.tracer
        profiler = self.profiler
        db.meter.reset()
        previous_budget = db.meter.budget
        db.meter.budget = self.budget
        db.pool.clear()
        db.pool.reset_stats()
        db.catalog.functions.reset_counters()

        cache = (
            PredicateCache(
                max_entries_per_predicate=self.cache_limit,
                replacement=self.cache_replacement,
                max_total_entries=self.cache_capacity,
            )
            if self.caching
            else None
        )
        controller: AdaptiveController | None = None
        if self.adaptive is not None:
            controller = AdaptiveController(
                node,
                catalog=db.catalog,
                params=db.params,
                meter=db.meter,
                caching=self.caching,
                policy=self.adaptive,
                ledger=self.ledger if self.ledger is not None else NULL_LEDGER,
                stats_store=self.adaptive_stats_store,
                stats_meta=self.adaptive_stats_meta,
            )
        # A controller the plan shape disarmed up front neither listens
        # nor feeds: the run is then identical to a non-adaptive one.
        feed = (
            controller
            if controller is not None and controller.active
            else None
        )
        analyze = AnalyzeListener() if instrument else None
        events = EventStream(
            [listener for listener in (feed, analyze) if listener is not None]
            + list(self.listeners)
        )
        containment = (
            ContainmentState(
                self.failure_policy,
                clock=self.clock,
                tracer=tracer,
                events=events,
            )
            if self.failure_policy is not None
            else None
        )
        clock = self.clock
        if clock is None and containment is not None:
            clock = containment.clock
        ctx = RuntimeContext(
            catalog=db.catalog,
            meter=db.meter,
            params=db.params,
            caching=self.caching,
            cache=cache,
            cache_mode=self.cache_mode,
            bypass_ids=self._bypass_ids(node),
            events=events,
            containment=containment,
            clock=clock,
            feed=feed,
        )
        # Listeners register the plan before any operator is built
        # (operators open at construction).
        events.start(node, ctx)
        started = time.perf_counter()
        rows: list[tuple] = []
        completed = True
        error = ""
        escaped: BudgetExceededError | None = None
        scope: Scope | None = None
        with tracer.span(
            "execute", caching=self.caching, instrumented=instrument
        ) as span:
            try:
                with tracer.span("executor.build"), \
                        profiler.phase("exec.build"):
                    runner = VectorPlanRunner(node, ctx, self.batch_rows)
                scope = runner.scope
                with tracer.span("executor.run"), \
                        profiler.phase("exec.run"):
                    runner.run_into(rows)
            except BudgetExceededError as exc:
                error = (
                    f"budget: charged {exc.charged:.1f} > "
                    f"budget {exc.budget:.1f}"
                )
                completed = False
                if raise_on_budget:
                    escaped = exc
            except UdfError as exc:
                # Only the ``abort`` exhaustion policy lets a UdfError
                # escape the operators; surface it as a structured DNF
                # rather than a traceback.
                completed = False
                error = f"udf: {exc}"
            finally:
                # Restore whatever budget the shared Database carried
                # before this execution, not unconditionally None.
                db.meter.budget = previous_budget
            span.set(
                rows=len(rows),
                completed=completed,
                charged=db.meter.charged,
                error=error,
            )
        elapsed = time.perf_counter() - started
        node_stats = analyze.node_stats if analyze is not None else None
        batch_stats = analyze.batch_stats if analyze is not None else None

        if profiler.enabled and node_stats is not None:
            # Fold the instrumented per-node actuals into the profiler so
            # operator hotspots rank alongside the optimizer's phases.
            # wall_seconds is inclusive of each node's subtree, so only
            # record()-style totals (no self-time split) make sense here.
            for plan_node in node.walk():
                stats = node_stats.get(id(plan_node))
                if stats is not None:
                    profiler.record(
                        f"exec.op.{_node_label(plan_node)}",
                        stats.wall_seconds,
                    )

        if profiler.enabled and batch_stats is not None:
            # Per-kernel self time: each predicate's evaluate_batch wall
            # clock, measured exclusively (masking included, children
            # excluded), so kernels rank against operators and optimizer
            # phases in the hotspot report.
            for plan_node in node.walk():
                stats = batch_stats.get(id(plan_node))
                if stats is None:
                    continue
                for pred_stats in stats.predicates:
                    profiler.record(
                        f"exec.kernel.{pred_stats.predicate}",
                        pred_stats.kernel_seconds,
                    )

        if project is not None and scope is not None and completed:
            slots = [scope.slot(table, attribute) for table, attribute in project]
            rows = [tuple(row[slot] for slot in slots) for row in rows]
            scope = Scope(list(project))

        metrics = db.meter.snapshot()
        if containment is not None:
            metrics.update(containment.metrics())

        result = QueryResult(
            rows=rows,
            scope=scope,
            completed=completed,
            charged=db.meter.charged,
            metrics=metrics,
            cache_stats=cache.stats if cache is not None else None,
            cache_entries=cache.total_entries() if cache is not None else 0,
            wall_seconds=elapsed,
            node_stats=node_stats,
            batch_stats=batch_stats,
            error=error,
            quarantine=(
                containment.report if containment is not None else None
            ),
            adaptive=(
                controller.report if controller is not None else None
            ),
        )
        events.end(result)
        if escaped is not None:
            raise escaped
        return result

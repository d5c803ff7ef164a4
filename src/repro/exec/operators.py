"""Runtime context and per-row predicate evaluation.

The batch engine (:mod:`repro.exec.vector`) is the only executor; this
module holds what it shares with the per-row fallbacks it keeps:

* :class:`RuntimeContext` — catalog, meter, cache and the execution
  event stream every operator reads at run time;
* :class:`OperatorStats` — one plan node's EXPLAIN ANALYZE actuals;
* :func:`evaluate_predicate` — one predicate on one row, with charging,
  caching and UDF failure containment. The batch engine's containment
  path evaluates tuple by tuple through it, so retry, backoff and
  quarantine behave the same under batching.

Charging rules mirror :mod:`repro.cost.model`: every expensive-predicate
evaluation charges the predicate's per-call cost, unless the predicate
cache already holds the binding's result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.cost.params import CostParams
from repro.errors import ExecutionError, UdfError
from repro.exec.cache import PredicateCache
from repro.exec.containment import ContainmentState
from repro.expr.expressions import Scope
from repro.expr.predicates import BoolBranch, BoolLeaf, Predicate
from repro.faults.clock import SimulatedClock
from repro.obs.events import NO_EVENTS, EventStream
from repro.storage.meter import CostMeter


@dataclass
class OperatorStats:
    """Actuals for one plan node, collected by EXPLAIN ANALYZE.

    All charge figures are *inclusive* of the node's subtree — the same
    convention the cost model uses for estimates, so the two compare
    directly. ``rows_out`` counts rows the node's output (after its own
    filters) produced.

    ``charged`` is derived from the component ledgers exactly the way
    :attr:`repro.storage.meter.CostMeter.charged` is (I/O + join CPU +
    function cost), never accumulated independently: a node's total is
    always self-consistent with its breakdown, and the per-node actuals
    do not depend on the batch size the meter deltas were bracketed at.
    """

    rows_out: int = 0
    io_charged: float = 0.0
    cpu_charged: float = 0.0
    function_charged: float = 0.0
    cache_hits: int = 0
    wall_seconds: float = 0.0

    @property
    def charged(self) -> float:
        """Total charged cost attributed to this node's subtree."""
        return self.io_charged + self.cpu_charged + self.function_charged

    def as_dict(self) -> dict[str, float]:
        return {
            "rows_out": self.rows_out,
            "charged": self.charged,
            "io_charged": self.io_charged,
            "function_charged": self.function_charged,
            "cache_hits": self.cache_hits,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class RuntimeContext:
    """Everything operators need at run time."""

    catalog: Catalog
    meter: CostMeter
    params: CostParams
    caching: bool = False
    cache: PredicateCache | None = None
    #: "predicate" caches the whole predicate result per input binding
    #: (Montage's choice); "function" caches each UDF's value per argument
    #: tuple (the [Jhi88]/[HS93a] alternative).
    cache_mode: str = "predicate"
    #: Predicates whose caching is bypassed because nearly every binding is
    #: distinct (the paper's Section 5.1 planned optimisation).
    bypass_ids: frozenset[int] = frozenset()
    #: The run's execution event stream (:mod:`repro.obs.events`): EXPLAIN
    #: ANALYZE, feedback, telemetry, flight recording and the adaptive
    #: controller all listen on it. With no listeners (the default) the
    #: build adds no observing operator and every hot path stays free of
    #: observation branches; predicate evaluation stays on its fast
    #: paths while no listener acts on verdicts.
    events: EventStream = NO_EVENTS
    #: When not ``None``, predicate evaluation runs under UDF failure
    #: containment: bounded retries with simulated-clock backoff, then the
    #: policy's on-exhaustion action, with quarantine bookkeeping.
    containment: ContainmentState | None = None
    #: The run's simulated clock — where containment backoff and injected
    #: UDF latency accrue — when it has one.
    clock: SimulatedClock | None = None
    #: When not ``None``, the adaptive mid-query re-optimization feed
    #: (duck-typed: normally a
    #: :class:`repro.adaptive.controller.AdaptiveController`). The build
    #: cuts the spine leaf's raw batches at the feed's safe splice
    #: boundaries (``feed.on_boundary`` fires once every earlier leaf
    #: row has flowed through the whole pipeline, *before* the next
    #: row enters any filter). With a feed installed, scans and joins
    #: always get a filter operator, even when their filter list is
    #: currently empty — a re-plan may move predicates onto them
    #: mid-query, and the filter re-reads the live list per batch.
    #: ``None`` (always, unless ``--adaptive``) keeps every hot path and
    #: the built operator shapes byte-identical to the baselines.
    feed: object | None = None

    def __post_init__(self) -> None:
        if self.cache_mode not in ("predicate", "function"):
            raise ExecutionError(
                f"unknown cache_mode: {self.cache_mode!r}"
            )
        if self.caching and self.cache is None:
            self.cache = PredicateCache()
        self._function_cache_registry = None

    def caching_functions(self):
        """A function registry whose UDF calls are memoised per argument
        tuple (function-level cache mode)."""
        if self._function_cache_registry is None:
            self._function_cache_registry = _CachingFunctions(self)
        return self._function_cache_registry


class _CachingFunctions:
    """FunctionRegistry adapter adding per-function memoisation."""

    def __init__(self, ctx: RuntimeContext) -> None:
        self._ctx = ctx
        self._wrappers: dict[str, object] = {}

    def get(self, name: str):
        wrapper = self._wrappers.get(name)
        if wrapper is None:
            ctx = self._ctx
            function = ctx.catalog.functions.get(name)
            cache = ctx.cache
            assert cache is not None

            def wrapped(*args: object) -> object:
                found, value = cache.lookup(name, args)
                if found:
                    return value
                value = function(*args)
                if function.cost_per_call > 0:
                    ctx.meter.charge_function(function.cost_per_call)
                cache.store(name, args, value)
                return value

            wrapper = wrapped
            self._wrappers[name] = wrapper
        return wrapper


def evaluate_predicate(
    predicate: Predicate, row: tuple, scope: Scope, ctx: RuntimeContext
) -> bool:
    """Evaluate one predicate on one row, with charging, caching, and —
    when the context carries a :class:`ContainmentState` — UDF failure
    containment (bounded retries, then the on-exhaustion policy).

    Returns ``False`` for SQL NULL results (a WHERE conjunct only passes
    rows for which it is true).
    """
    events = ctx.events
    if not events.verdict_listeners:
        return _evaluate_contained(predicate, row, scope, ctx)
    # The meter delta brackets the whole contained evaluation, so the
    # observed per-call cost is what this row *actually* charged: zero on
    # cache hits and on quarantined rows, partial under function-level
    # caching.
    before = ctx.meter.function_charged
    value = _evaluate_contained(predicate, row, scope, ctx)
    events.verdicts(
        predicate, 1, int(value), (ctx.meter.function_charged - before,)
    )
    return value


def _evaluate_contained(
    predicate: Predicate, row: tuple, scope: Scope, ctx: RuntimeContext
) -> bool:
    """Evaluation under the containment retry loop (no verdict event)."""
    containment = ctx.containment
    if containment is None:
        return _evaluate_once(predicate, row, scope, ctx)
    attempts = 0
    while True:
        try:
            value = _evaluate_once(predicate, row, scope, ctx)
        except UdfError as error:
            containment.note_failure()
            if attempts < containment.policy.retries:
                containment.wait_before_retry(attempts, error)
                attempts += 1
                continue
            # Exhausted: quarantine the tuple and apply the policy
            # (``abort`` re-raises; the executor turns it into a
            # structured DNF result).
            return containment.quarantine(
                predicate, row, error, attempts + 1
            )
        if attempts:
            containment.note_recovered()
        return value


def _evaluate_once(
    predicate: Predicate, row: tuple, scope: Scope, ctx: RuntimeContext
) -> bool:
    """One uncontained evaluation attempt (the pre-containment body)."""
    functions = ctx.catalog.functions
    caching = (
        ctx.caching
        and predicate.is_expensive
        and predicate.pred_id not in ctx.bypass_ids
    )
    compound = predicate.is_compound
    if caching and ctx.cache_mode == "function":
        registry = ctx.caching_functions()
        if compound:
            # Short-circuit walk; the memoising wrappers charge per
            # actual (uncached) UDF call, so no leaf-level charges here.
            return _evaluate_tree(predicate.tree, row, scope, registry, None)
        value = predicate.expr.evaluate(row, scope, registry)
        return value is True
    if caching:
        assert ctx.cache is not None
        key = tuple(
            row[scope.slot(table, attribute)]
            for table, attribute in predicate.input_columns()
        )
        found, value = ctx.cache.lookup(predicate.pred_id, key)
        if not found:
            if compound:
                value = _evaluate_tree(
                    predicate.tree, row, scope, functions, ctx.meter
                )
            else:
                value = predicate.expr.evaluate(row, scope, functions)
                ctx.meter.charge_function(predicate.cost_per_tuple)
            ctx.cache.store(predicate.pred_id, key, value)
        return value is True
    if compound:
        return _evaluate_tree(predicate.tree, row, scope, functions, ctx.meter)
    value = predicate.expr.evaluate(row, scope, functions)
    if predicate.is_expensive:
        ctx.meter.charge_function(predicate.cost_per_tuple)
    return value is True


def _evaluate_tree(
    tree: BoolBranch, row: tuple, scope: Scope, functions, meter
) -> bool:
    """Short-circuit a cost-ordered boolean tree on one row.

    Children run in the tree's (rank-ordered) sequence; AND stops at the
    first non-true child, OR at the first true one. Each expensive leaf
    that actually runs charges its own per-call cost — evaluate first,
    then charge, so a UDF failure leaves the leaf uncharged, exactly
    like the whole-predicate path. SQL NULL collapses to ``False``,
    which is sound for filtering (a WHERE conjunct only passes rows it
    is *true* for). When ``meter`` is ``None`` the caller's function
    registry does its own charging (function-level cache mode).
    """
    conjunctive = tree.op == "AND"
    for child in tree.children:
        if isinstance(child, BoolLeaf):
            value = child.expr.evaluate(row, scope, functions)
            if meter is not None and child.is_expensive:
                meter.charge_function(child.cost)
            passed = value is True
        else:
            passed = _evaluate_tree(child, row, scope, functions, meter)
        if passed is not conjunctive:
            return passed
    return conjunctive


def _scope_width(scope: Scope, catalog: Catalog) -> int:
    tables = sorted({table for table, _ in scope.columns})
    return sum(catalog.table(name).schema.tuple_width for name in tables)

"""Batch-at-a-time (vectorized) execution: the program's one executor.

Operators here consume and produce :class:`~repro.storage.columnar.
ColumnBatch` objects instead of single rows, with three speed levers:

* **compiled kernels** — each predicate's expression tree is compiled
  once into nested closures over binding-slot indices, replacing the
  per-row recursive AST walk (and its per-column ``scope.slot`` dict
  lookups) with direct indexing;
* **selection vectors** — filters fill a byte mask and gather survivors
  column-at-a-time, so each expensive-UDF call is made (and charged)
  only for selection-vector survivors;
* **bulk metering** — per-tuple CPU and rescan-I/O charges accrue once
  per batch (``cost × n``) instead of once per row, and equijoin
  nested-loop primaries are matched by hash partitioning instead of
  evaluating the equality on every pair.

Charging follows the paper's tuple-at-a-time discipline exactly: a
completed run charges what a row-at-a-time iterator tree charges (same
``charged``, ``io_charged``, ``function_charged``, ``function_calls``,
and — with unbounded caches — the same hit/miss counts), and produces
the identical row multiset. The test suite keeps such a tree as its
reference oracle. Bulk charges respect the **budget frontier**: before
each one the meter works out how many units fit under the budget
(:meth:`~repro.storage.meter.CostMeter.affordable`), and the engine
evaluates and charges only up to the unit that crosses it. A budget
abort therefore lands within one charge quantum (one UDF call, one page
I/O, one per-tuple CPU charge) of where the tuple-at-a-time tree stops,
never a whole batch past it.

Failure containment (`ctx.containment`) switches predicate evaluation to
the per-tuple contained loop of
:func:`~repro.exec.operators.evaluate_predicate`, so retry/quarantine
semantics — and the chaos suite's subset/superset audits — are
preserved under batching. Observation goes through the context's
execution event stream (:mod:`repro.obs.events`): with listeners, one
:class:`ObservedBatchOperator` per plan node reports its pulls; filters
report per-batch chain densities, and predicate evaluation verdicts
with exact per-call charges, only while some listener acts on those
events. With no listeners no observing code runs at all.

Adaptive re-optimization (``ctx.feed``) splices a re-planned predicate
placement in at *leaf boundaries*: the spine leaf's batches are cut at
the controller's power-of-two milestones, a :data:`LEAF_BOUNDARY`
marker travels up the spine behind the last batch before each one,
every spine join flushes its partial output ahead of the marker, and
whoever absorbs the marker (the plan root or a pipeline breaker) calls
``feed.on_boundary()``. At that instant every earlier leaf row has
flowed as far as it can go and no later row has entered a filter —
exactly the observations a tuple-at-a-time pipeline has at that leaf
row. Filters re-read their node's live filter list per batch.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Callable, Iterator

from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    PlanError,
    UdfError,
)
from repro.exec.operators import (
    OperatorStats,
    RuntimeContext,
    _scope_width,
    evaluate_predicate,
)
from repro.expr.expressions import (
    _ARITHMETIC,
    _COMPARATORS,
    BinaryOp,
    Column,
    Comparison,
    Const,
    Expr,
    FuncCall,
    Logical,
    Not,
    Scope,
)
from repro.expr.predicates import BoolBranch, BoolLeaf, Predicate
from repro.obs.events import ExecutionListener
from repro.obs.histograms import StreamingHistogram
from repro.obs.quality import fmt_stat
from repro.plan.nodes import Join, JoinMethod, PlanNode, Scan
from repro.storage.columnar import (
    DEFAULT_BATCH_ROWS,
    ColumnBatch,
    batches_from_heap,
    batches_from_rows,
)
from repro.storage.meter import IOKind


# -- kernel compilation ------------------------------------------------------


def compile_kernel(
    expr: Expr, scope: Scope, functions
) -> Callable[[tuple], object]:
    """Compile an expression into a closure over binding tuples.

    Semantics mirror ``Expr.evaluate`` exactly (including three-valued
    NULL propagation); the only difference is that column slots and
    function objects are resolved once, at compile time.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda binding: value
    if isinstance(expr, Column):
        slot = scope.slot(expr.table, expr.attribute)
        return lambda binding: binding[slot]
    if isinstance(expr, FuncCall):
        fn = functions.get(expr.name)
        kernels = tuple(
            compile_kernel(arg, scope, functions) for arg in expr.args
        )
        if len(kernels) == 1:
            arg0 = kernels[0]
            return lambda binding: fn(arg0(binding))
        if len(kernels) == 2:
            arg0, arg1 = kernels
            return lambda binding: fn(arg0(binding), arg1(binding))
        return lambda binding: fn(*(k(binding) for k in kernels))
    if isinstance(expr, (Comparison, BinaryOp)):
        table = _COMPARATORS if isinstance(expr, Comparison) else _ARITHMETIC
        op = table[expr.op]
        left = compile_kernel(expr.left, scope, functions)
        right = compile_kernel(expr.right, scope, functions)

        def binary(binding):
            a = left(binding)
            b = right(binding)
            if a is None or b is None:
                return None
            return op(a, b)

        return binary
    if isinstance(expr, Logical):
        kernels = tuple(
            compile_kernel(operand, scope, functions)
            for operand in expr.operands
        )
        conjunctive = expr.op == "AND"

        def logical(binding):
            # All operands evaluate (three-valued), like Logical.evaluate.
            values = [k(binding) for k in kernels]
            if conjunctive:
                if any(value is False for value in values):
                    return False
                if any(value is None for value in values):
                    return None
                return True
            if any(value is True for value in values):
                return True
            if any(value is None for value in values):
                return None
            return False

        return logical
    if isinstance(expr, Not):
        inner = compile_kernel(expr.operand, scope, functions)

        def negate(binding):
            value = inner(binding)
            if value is None:
                return None
            return not value

        return negate
    raise ExecutionError(
        f"cannot compile expression type: {type(expr).__name__}"
    )


def _compile_tree_walk(
    tree: BoolBranch, scope: Scope, functions, meter
) -> Callable[[tuple], bool]:
    """Compile a cost-ordered boolean tree into a short-circuit closure.

    Each expensive leaf charges its per-call cost right after it
    evaluates (evaluate-then-charge, like the per-row
    ``_evaluate_tree``); pass ``meter=None`` under function-level
    caching, where the memoising wrappers do their own charging.
    """

    def build(node) -> Callable[[tuple], bool]:
        if isinstance(node, BoolLeaf):
            kernel = compile_kernel(node.expr, scope, functions)
            if meter is not None and node.is_expensive:
                cost = node.cost

                def leaf(binding):
                    value = kernel(binding)
                    meter.charge_function(cost)
                    return value is True

                return leaf
            return lambda binding: kernel(binding) is True
        children = tuple(build(child) for child in node.children)
        conjunctive = node.op == "AND"

        def branch(binding):
            for child in children:
                passed = child(binding)
                if passed is not conjunctive:
                    return passed
            return conjunctive

        return branch

    return build(tree)


# -- batch-granular actuals (EXPLAIN ANALYZE companion data) -----------------


class BatchPredicateStats:
    """Batch-granular actuals for one predicate in a filter chain.

    ``rows_in`` counts rows that reached this predicate (survivors of the
    predicates before it in the chain), ``rows_out`` the rows its
    selection mask kept — so ``rows_in / chain_rows`` is the selection-
    vector density *before* the predicate and ``rows_out / chain_rows``
    the density after it. ``kernel_seconds`` is the wall-clock spent
    inside ``evaluate_batch`` (the compiled kernel plus masking), and the
    cache deltas give this predicate's hit rate under caching runs.
    """

    __slots__ = (
        "predicate",
        "batches",
        "rows_in",
        "rows_out",
        "kernel_seconds",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = str(predicate)
        self.batches = 0
        self.rows_in = 0
        self.rows_out = 0
        self.kernel_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def selectivity(self) -> float:
        if self.rows_in <= 0:
            return float("nan")
        return self.rows_out / self.rows_in

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups <= 0:
            return float("nan")
        return self.cache_hits / lookups

    def as_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "batches": self.batches,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "selectivity": fmt_stat(self.selectivity),
            "kernel_seconds": self.kernel_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


class BatchNodeStats:
    """Batch-granular actuals for one plan node.

    The batch-level companion of
    :class:`~repro.exec.operators.OperatorStats` — it never replaces the
    per-node totals (those do not depend on the batch size); it *adds*
    what only exists under batching: how many batches flowed,
    their size distribution, and how the selection vector decayed
    through the node's filter chain.
    """

    __slots__ = ("batches", "rows_in", "rows_out", "predicates")

    def __init__(self) -> None:
        #: Batches the node emitted (empty post-filter batches are
        #: dropped, so this can be lower than the input batch count,
        #: which is ``rows_in.count``).
        self.batches = 0
        #: Per-batch rows entering the node's filter chain.
        self.rows_in = StreamingHistogram()
        #: Per-batch rows the node emitted.
        self.rows_out = StreamingHistogram()
        #: Chain-ordered per-predicate stats (empty for filterless nodes).
        self.predicates: list[BatchPredicateStats] = []

    @property
    def chain_rows(self) -> int:
        """Total rows that entered the filter chain."""
        return int(self.rows_in.finite_sum)

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "rows_in": self.rows_in.as_dict(),
            "rows_out": self.rows_out.as_dict(),
            "predicates": [p.as_dict() for p in self.predicates],
        }


class AnalyzeListener(ExecutionListener):
    """EXPLAIN ANALYZE as an event listener: per-node
    :class:`~repro.exec.operators.OperatorStats` plus their
    :class:`BatchNodeStats` companions, both keyed by ``id(plan_node)``.
    ``Executor.execute(instrument=True)`` attaches one."""

    def __init__(self) -> None:
        self.node_stats: dict[int, OperatorStats] = {}
        self.batch_stats: dict[int, BatchNodeStats] = {}
        #: Per node, ``pred_id`` → that predicate's stats (a predicate
        #: a re-plan moves away and back keeps its entry).
        self._chains: dict[int, dict[int, BatchPredicateStats]] = {}

    def _register(self, key: int, chain) -> dict[int, BatchPredicateStats]:
        known = self._chains[key]
        for predicate in chain:
            if predicate.pred_id not in known:
                pstats = known[predicate.pred_id] = BatchPredicateStats(
                    predicate
                )
                self.batch_stats[key].predicates.append(pstats)
        return known

    def on_open(self, node) -> None:
        key = id(node)
        self.node_stats[key] = OperatorStats()
        self.batch_stats[key] = BatchNodeStats()
        self._chains[key] = {}
        self._register(key, node.filters)

    def on_batch(self, key, rows, seconds, delta) -> None:
        self.on_done(key, seconds, delta)  # every pull's time and charges
        if rows is not None:
            self.node_stats[key].rows_out += rows
            batch = self.batch_stats[key]
            batch.batches += 1
            batch.rows_out.observe(float(rows))

    def on_done(self, key, seconds, delta) -> None:
        stats = self.node_stats[key]
        io, cpu, function, hits = delta
        stats.wall_seconds += seconds
        stats.io_charged += io
        stats.cpu_charged += cpu
        stats.function_charged += function
        stats.cache_hits += hits

    def on_filter(
        self, key, chain, rows_in, rows_out, declared, kernels
    ) -> None:
        self.batch_stats[key].rows_in.observe(float(rows_in))
        known = self._register(key, chain)
        for predicate, kernel in zip(chain, kernels):
            pstats = known[predicate.pred_id]
            n_in, n_out, seconds, hits, misses = kernel
            pstats.batches += 1
            pstats.rows_in += n_in
            pstats.rows_out += n_out
            pstats.kernel_seconds += seconds
            pstats.cache_hits += hits
            pstats.cache_misses += misses


# -- batch predicate evaluation ----------------------------------------------


class PredicateRunner:
    """Evaluates one predicate over binding batches with charging,
    caching, and observation totals identical to the per-row
    ``_evaluate_once``.

    Bindings are tuples of the predicate's ``input_columns()`` values in
    declaration order — exactly the per-row cache key — so predicate-
    cache contents and hit/miss totals match a tuple-at-a-time run
    whenever the cache is unbounded (bounded caches are order-sensitive).

    Function costs charge in bulk per batch (``cost × evaluations``,
    via ``charge_function(cost, calls=n)``) up to the budget frontier:
    total charge, call count, and the completed/DNF verdict match a
    tuple-at-a-time run, and a batch that crosses the budget evaluates
    and charges nothing past the crossing call. While a listener acts on
    verdicts, evaluation drops to a per-binding bracket so verdict
    events carry exact per-call costs.
    """

    def __init__(self, predicate: Predicate, ctx: RuntimeContext) -> None:
        self.predicate = predicate
        self.ctx = ctx
        self.scope = Scope(list(predicate.input_columns()))
        self.caching = (
            ctx.caching
            and predicate.is_expensive
            and predicate.pred_id not in ctx.bypass_ids
        )
        self.function_mode = self.caching and ctx.cache_mode == "function"
        functions = (
            ctx.caching_functions()
            if self.function_mode
            else ctx.catalog.functions
        )
        tree = predicate.tree
        self.compound = isinstance(tree, BoolBranch)
        if self.compound:
            meter = None if self.function_mode else ctx.meter
            self._walk = _compile_tree_walk(tree, self.scope, functions, meter)
            self._kernel = None
        else:
            self._walk = None
            self._kernel = compile_kernel(predicate.expr, self.scope, functions)
        # Batchable-UDF shape: a lone function call whose arguments are
        # exactly the binding columns, in order — then bindings *are*
        # the call's argument tuples and the registry's vectorized
        # entry point applies. Gated on the implementation actually
        # carrying a ``batch`` form (bool-per-binding contract); a
        # fault-injector wrapper strips it, restoring per-call
        # dispatch. (Not under function-level caching, where the
        # memoising wrappers must see each call.)
        expr = predicate.expr
        self._direct_function = None
        if (
            not self.compound
            and not self.function_mode
            and isinstance(expr, FuncCall)
            and all(isinstance(arg, Column) for arg in expr.args)
            and [(arg.table, arg.attribute) for arg in expr.args]
            == list(predicate.input_columns())
        ):
            function = ctx.catalog.functions.get(expr.name)
            if getattr(function.fn, "batch", None) is not None:
                self._direct_function = function
        # Free column-vs-constant comparisons (`t10.a20 < 5`) evaluate
        # column-at-a-time: one packed-column scan into the mask, no
        # binding tuples, no charges (the predicate is free).
        self._column_compare = None
        if (
            not self.compound
            and not predicate.is_expensive
            and isinstance(expr, Comparison)
        ):
            left, right = expr.left, expr.right
            op = _COMPARATORS[expr.op]
            if isinstance(left, Column) and isinstance(right, Const):
                self._column_compare = (op, right.value, False)
            elif isinstance(left, Const) and isinstance(right, Column):
                self._column_compare = (op, left.value, True)

    # One binding, mirroring `_evaluate_once`'s three paths. Used by the
    # observed (per-binding bracketed) regime only.
    def _evaluate_one(self, binding: tuple) -> bool:
        if self.function_mode:
            if self.compound:
                return self._walk(binding)
            return self._kernel(binding) is True
        if self.caching:
            cache = self.ctx.cache
            found, value = cache.lookup(self.predicate.pred_id, binding)
            if not found:
                if self.compound:
                    value = self._walk(binding)
                else:
                    value = self._kernel(binding)
                    self.ctx.meter.charge_function(
                        self.predicate.cost_per_tuple
                    )
                cache.store(self.predicate.pred_id, binding, value)
            return value is True
        if self.compound:
            return self._walk(binding)
        value = self._kernel(binding)
        if self.predicate.is_expensive:
            self.ctx.meter.charge_function(self.predicate.cost_per_tuple)
        return value is True

    def evaluate_batch(self, batch: ColumnBatch, slots: list[int]) -> bytearray:
        """Fill a selection mask over a whole batch, reading columns
        directly when the predicate shape allows it."""
        if self._column_compare is not None:
            # Listeners do not force the per-binding bracketed regime:
            # the predicate is free (every charge is zero), so the
            # verdicts can be reported in bulk from the mask.
            op, const, reversed_ = self._column_compare
            if const is None:  # comparisons against NULL never pass
                mask = bytearray(batch.length)
            else:
                column = batch.column(slots[0])
                if reversed_:
                    mask = bytearray(
                        (v is not None and op(const, v)) is True
                        for v in column
                    )
                else:
                    mask = bytearray(
                        (v is not None and op(v, const)) is True
                        for v in column
                    )
            events = self.ctx.events
            if events.verdict_listeners and batch.length:
                events.verdicts(self.predicate, batch.length, sum(mask), ())
            return mask
        return self.evaluate_bindings(_bindings_from_batch(batch, slots))

    def evaluate_bindings(self, bindings: list[tuple]) -> bytearray:
        """Fill a selection mask over one batch of bindings."""
        ctx = self.ctx
        if ctx.events.verdict_listeners:
            return self._evaluate_observed(bindings)
        n = len(bindings)
        mask = bytearray(n)
        if not n:
            return mask
        predicate = self.predicate
        meter = ctx.meter
        cost = predicate.cost_per_tuple
        if self.caching and not self.function_mode:
            # Predicate-level cache: per-binding lookups (hit/miss
            # parity with the tuple-at-a-time discipline), misses
            # charged in bulk. ``limit`` is the budget frontier: the
            # miss that would cross the budget is charged — and raises —
            # before any later binding runs.
            cache = ctx.cache
            lookup = cache.lookup
            store = cache.store
            pred_id = predicate.pred_id
            walk = self._walk
            kernel = self._kernel
            limit = meter.affordable(cost, n)
            misses = 0
            for i, binding in enumerate(bindings):
                found, value = lookup(pred_id, binding)
                if not found:
                    if walk is not None:
                        value = walk(binding)  # charges its own leaves
                    else:
                        value = kernel(binding)
                        misses += 1
                        if misses == limit:
                            meter.charge_function(cost, misses)
                            misses = 0
                            limit = meter.affordable(cost, n - i - 1)
                    store(pred_id, binding, value)
                if value is True:
                    mask[i] = 1
            if misses:
                meter.charge_function(cost, misses)
            return mask
        direct = self._direct_function
        if direct is not None:
            if not predicate.is_expensive:
                return bytearray(direct.call_batch(bindings))
            if meter.affordable(cost, n) == n:
                verdicts = direct.call_batch(bindings)
                meter.charge_function(cost, n)
                # batch-form verdicts are bools, which pack straight
                # into the selection mask at C speed.
                return bytearray(verdicts)
            # Budget frontier: dispatch (and pay for) only the calls up
            # to the one that crosses the budget.
            mask = bytearray()
            start = 0
            while start < n:
                stop = start + meter.affordable(cost, n - start)
                mask.extend(direct.call_batch(bindings[start:stop]))
                meter.charge_function(cost, stop - start)
                start = stop
            return mask
        evaluate = self._walk if self._walk is not None else self._kernel
        if (
            self._walk is not None
            or self.function_mode
            or not predicate.is_expensive
        ):
            # Free, or charged per call by the walk or the memoising
            # wrappers: nothing to bulk-charge.
            for i, binding in enumerate(bindings):
                if evaluate(binding) is True:
                    mask[i] = 1
            return mask
        start = 0
        while start < n:
            stop = start + meter.affordable(cost, n - start)
            for i in range(start, stop):
                if evaluate(bindings[i]) is True:
                    mask[i] = 1
            meter.charge_function(cost, stop - start)
            start = stop
        return mask

    def _evaluate_observed(self, bindings: list[tuple]) -> bytearray:
        """Observed regime: bracket each evaluation with the meter's
        function-charge delta so the verdict event carries the exact
        per-call costs."""
        mask = bytearray(len(bindings))
        if not bindings:
            return mask
        meter = self.ctx.meter
        evaluate_one = self._evaluate_one
        passed_count = 0
        charges: list[float] = []
        for i, binding in enumerate(bindings):
            before = meter.function_charged
            if evaluate_one(binding):
                mask[i] = 1
                passed_count += 1
            charges.append(meter.function_charged - before)
        self.ctx.events.verdicts(
            self.predicate, len(bindings), passed_count, charges
        )
        return mask


def _bindings_from_batch(
    batch: ColumnBatch, slots: list[int]
) -> list[tuple]:
    if not slots:
        return [()] * batch.length
    return list(zip(*(batch.column(slot) for slot in slots)))


def _input_slots(predicate: Predicate, scope: Scope) -> list[int]:
    return [
        scope.slot(table, attribute)
        for table, attribute in predicate.input_columns()
    ]


# -- batch operators ---------------------------------------------------------


#: The adaptive splice marker (never a batch). Only the spine leaf's
#: feed emits it, only while an adaptive feed is attached; spine
#: operators pass it upward (joins flush their partial output ahead of
#: it) until the plan root or a pipeline breaker absorbs it and calls
#: ``feed.on_boundary()``.
LEAF_BOUNDARY = object()


class BatchOperator:
    """Base: an iterable of :class:`ColumnBatch` with a fixed scope."""

    scope: Scope

    def batches(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError


class BatchSeqScan(BatchOperator):
    def __init__(
        self, table: str, ctx: RuntimeContext, batch_rows: int
    ) -> None:
        entry = ctx.catalog.table(table)
        if entry.heap is None:
            raise ExecutionError(f"relation {table!r} has no heap file")
        self.entry = entry
        self.batch_rows = batch_rows
        self.scope = Scope(
            [(table, name) for name in entry.schema.attribute_names]
        )

    def batches(self) -> Iterator[ColumnBatch]:
        return batches_from_heap(self.entry.heap, self.scope, self.batch_rows)


class BatchIndexScan(BatchOperator):
    def __init__(
        self,
        table: str,
        attribute: str,
        low: object,
        high: object,
        ctx: RuntimeContext,
        batch_rows: int,
    ) -> None:
        entry = ctx.catalog.table(table)
        if not entry.has_index(attribute):
            raise ExecutionError(f"no index on {table}.{attribute}")
        self.entry = entry
        self.index = entry.index(attribute)
        self.low = low
        self.high = high
        self.batch_rows = batch_rows
        self.scope = Scope(
            [(table, name) for name in entry.schema.attribute_names]
        )

    def batches(self) -> Iterator[ColumnBatch]:
        heap = self.entry.heap

        def rows() -> Iterator[tuple]:
            for rid in self.index.range_search(self.low, self.high):
                yield heap.fetch_rid(rid)

        return batches_from_rows(self.scope, rows(), self.batch_rows)


class BatchFilter(BatchOperator):
    """Applies an ordered predicate list batch-at-a-time.

    Each predicate fills a selection mask over the current survivors and
    the batch is compacted before the next predicate runs — so, exactly
    like a tuple-at-a-time short-circuiting ``all()``, predicate *k*
    only ever evaluates (and charges for) rows that passed predicates
    ``< k``.

    ``filters`` is the plan node's own list, not a copy. Under an
    adaptive feed the filter re-reads it before every batch, so a
    re-plan that splices predicates in place at a leaf boundary applies
    to every later batch.
    """

    def __init__(
        self,
        child: BatchOperator,
        filters: list[Predicate],
        ctx: RuntimeContext,
        node: PlanNode,
    ) -> None:
        self.child = child
        self.filters = filters
        self.ctx = ctx
        self.scope = child.scope
        self.node_key = id(node)
        self._live = ctx.feed is not None
        self._by_pred: dict[int, tuple] = {}
        self._chain: tuple[int, ...] | None = None
        self._refresh()

    def _refresh(self) -> None:
        """(Re)compile the chain when the live filter list changed."""
        chain = tuple(predicate.pred_id for predicate in self.filters)
        if chain == self._chain:
            return
        self._chain = chain
        ctx = self.ctx
        self._runners = []
        #: Product of the chain's declared selectivities — what the
        #: optimizer expected the chain to keep (for the monitor's
        #: density-based refinement).
        self.declared_selectivity = 1.0
        for predicate in self.filters:
            self.declared_selectivity *= float(predicate.selectivity)
            entry = self._by_pred.get(predicate.pred_id)
            if entry is None:
                runner = (
                    PredicateRunner(predicate, ctx)
                    if ctx.containment is None
                    else None
                )
                entry = (runner, _input_slots(predicate, self.scope))
                self._by_pred[predicate.pred_id] = entry
            self._runners.append(entry)

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        events = ctx.events
        observed = bool(events.filter_listeners)
        key = self.node_key
        live = self._live
        if ctx.containment is not None:
            # Containment slow path: per-tuple contained evaluation keeps
            # retry, backoff, and quarantine semantics row-identical.
            scope = self.scope
            filters = self.filters
            for batch in self.child.batches():
                if batch is LEAF_BOUNDARY:
                    yield batch
                    continue
                if live:
                    self._refresh()
                rows_in = batch.length
                mask = bytearray(rows_in)
                for i, row in enumerate(batch.iter_rows()):
                    if all(
                        evaluate_predicate(predicate, row, scope, ctx)
                        for predicate in filters
                    ):
                        mask[i] = 1
                batch = batch.take(mask)
                if observed:
                    events.filter(
                        key, filters, rows_in, batch.length,
                        self.declared_selectivity, (),
                    )
                if batch.length:
                    yield batch
            return
        if not observed:
            # No observation branch anywhere in the loop.
            for batch in self.child.batches():
                if batch is LEAF_BOUNDARY:
                    yield batch
                    continue
                if live:
                    self._refresh()
                for runner, slots in self._runners:
                    if batch.length == 0:
                        break
                    mask = runner.evaluate_batch(batch, slots)
                    batch = batch.take(mask)
                if batch.length:
                    yield batch
            return
        cache = ctx.cache
        stats = cache.stats if cache is not None else None
        for batch in self.child.batches():
            if batch is LEAF_BOUNDARY:
                yield batch
                continue
            if live:
                self._refresh()
            rows_in = batch.length
            kernels = []
            try:
                for runner, slots in self._runners:
                    if batch.length == 0:
                        break
                    hits = stats.hits if stats is not None else 0
                    misses = stats.misses if stats is not None else 0
                    started = time.perf_counter()
                    mask = runner.evaluate_batch(batch, slots)
                    seconds = time.perf_counter() - started
                    reached = batch.length
                    batch = batch.take(mask)
                    if stats is not None:
                        hits = stats.hits - hits
                        misses = stats.misses - misses
                    kernels.append(
                        (reached, batch.length, seconds, hits, misses)
                    )
            except (BudgetExceededError, UdfError):
                # A budget or UDF abort mid-chain: the rows entered the
                # chain, but no batch leaves it.
                events.filter(
                    key, self.filters, rows_in, None,
                    self.declared_selectivity, kernels,
                )
                raise
            events.filter(
                key, self.filters, rows_in, batch.length,
                self.declared_selectivity, kernels,
            )
            if batch.length:
                yield batch


class _BatchBuilder:
    """Accumulates joined rows and flushes fixed-size column batches."""

    def __init__(self, scope: Scope, batch_rows: int) -> None:
        self.scope = scope
        self.batch_rows = batch_rows
        self.rows: list[tuple] = []

    def drain(self) -> Iterator[ColumnBatch]:
        # Mutate in place: callers hold aliases to ``self.rows``.
        while len(self.rows) >= self.batch_rows:
            chunk = self.rows[: self.batch_rows]
            del self.rows[: self.batch_rows]
            yield ColumnBatch.from_rows(self.scope, chunk)

    def flush(self) -> Iterator[ColumnBatch]:
        if self.rows:
            # Copy before clearing: batches no longer copy on
            # construction, and callers alias ``self.rows``.
            rows = list(self.rows)
            self.rows.clear()
            yield ColumnBatch.from_rows(self.scope, rows)

    def boundary(self) -> Iterator:
        """At a leaf boundary: flush the partial batch, then forward the
        marker — everything produced from earlier leaf rows goes up the
        pipeline before the boundary does."""
        yield from self.flush()
        yield LEAF_BOUNDARY


class BatchNestedLoopJoin(BatchOperator):
    """Nested loop over batches.

    Equijoin primaries with free equality predicates are matched by hash
    partitioning on the join key (None keys never match, like SQL ``=``)
    — an O(|R|+|S|) evaluation of the same pair set a tuple-at-a-time
    nested loop walks in O(|R|·|S|). Expensive, compound, or
    non-equality primaries evaluate per pair through a compiled
    :class:`PredicateRunner`. All metering (inner materialisation CPU,
    per-outer-tuple CPU and rescan I/O, primary-predicate function
    charges) totals exactly what a tuple-at-a-time nested loop charges.
    """

    def __init__(
        self,
        join: Join,
        outer: BatchOperator,
        inner: BatchOperator,
        ctx: RuntimeContext,
        batch_rows: int,
    ) -> None:
        self.join = join
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.batch_rows = batch_rows
        self.scope = outer.scope.concat(inner.scope)
        inner_node = join.inner
        if isinstance(inner_node, Scan):
            self.inner_base_pages: int | None = ctx.catalog.table(
                inner_node.table
            ).pages
        else:
            self.inner_base_pages = None
        primary = join.primary
        self._hash_eligible = (
            ctx.containment is None
            and primary.equijoin is not None
            and not primary.is_expensive
        )
        if self._hash_eligible:
            left, right = primary.equijoin
            if (left.table, left.attribute) in outer.scope:
                outer_col, inner_col = left, right
            else:
                outer_col, inner_col = right, left
            self.outer_slot = outer.scope.slot(
                outer_col.table, outer_col.attribute
            )
            self.inner_slot = inner.scope.slot(
                inner_col.table, inner_col.attribute
            )
        elif ctx.containment is None:
            self._runner = PredicateRunner(primary, ctx)
            outer_scope, inner_scope = outer.scope, inner.scope
            self._getters = [
                (True, outer_scope.slot(table, attribute))
                if (table, attribute) in outer_scope
                else (False, inner_scope.slot(table, attribute))
                for table, attribute in primary.input_columns()
            ]

    def _rescan_pages(self, inner_rows: list[tuple]) -> int:
        if self.inner_base_pages is not None:
            return self.inner_base_pages
        width = _scope_width(self.inner.scope, self.ctx.catalog)
        return int(self.ctx.params.pages_for(len(inner_rows), width))

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        inner_rows: list[tuple] = []
        for batch in self.inner.batches():  # filters evaluated once, here
            inner_rows.extend(batch.iter_rows())
        ctx.meter.charge_cpu(ctx.params.cpu_per_tuple * len(inner_rows))
        rescan_pages = self._rescan_pages(inner_rows)
        out = _BatchBuilder(self.scope, self.batch_rows)
        if self._hash_eligible:
            yield from self._hash_matched(inner_rows, rescan_pages, out)
        else:
            yield from self._pairwise(inner_rows, rescan_pages, out)
        yield from out.flush()

    def _charge_outer(self, n: int, rescan_pages: int) -> None:
        """Per-outer-tuple CPU plus the paper's constant-|S| rescan of
        the inner's blocks, for ``n`` outer tuples, in bulk up to the
        budget frontier."""
        meter = self.ctx.meter
        meter.charge_tuples(self.ctx.params.cpu_per_tuple, n)
        meter.charge_io(IOKind.SEQUENTIAL, rescan_pages * n)

    def _hash_matched(
        self,
        inner_rows: list[tuple],
        rescan_pages: int,
        out: _BatchBuilder,
    ) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        inner_slot = self.inner_slot
        outer_slot = self.outer_slot
        buckets: dict[object, list[tuple]] = {}
        for inner_row in inner_rows:
            key = inner_row[inner_slot]
            if key is not None:  # `=` on NULL is never true
                buckets.setdefault(key, []).append(inner_row)
        events = ctx.events
        pending = out.rows
        for obatch in self.outer.batches():
            if obatch is LEAF_BOUNDARY:
                yield from out.boundary()
                continue
            n = obatch.length
            self._charge_outer(n, rescan_pages)
            matches = 0
            for outer_row in obatch.rows:
                matched = buckets.get(outer_row[outer_slot])
                if matched:
                    for inner_row in matched:
                        pending.append(outer_row + inner_row)
                    matches += len(matched)
            if events.verdict_listeners and n and inner_rows:
                # A tuple-at-a-time nested loop observes the (free)
                # equality once per pair; report the same verdict
                # totals, with zero charged cost, batch by batch.
                events.verdicts(
                    self.join.primary, n * len(inner_rows), matches, ()
                )
            yield from out.drain()

    def _pairwise(
        self,
        inner_rows: list[tuple],
        rescan_pages: int,
        out: _BatchBuilder,
    ) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        primary = self.join.primary
        contained = ctx.containment is not None
        pending = out.rows
        scope = self.scope
        if contained:
            for obatch in self.outer.batches():
                if obatch is LEAF_BOUNDARY:
                    yield from out.boundary()
                    continue
                self._charge_outer(obatch.length, rescan_pages)
                for outer_row in obatch.rows:
                    for inner_row in inner_rows:
                        row = outer_row + inner_row
                        if evaluate_predicate(primary, row, scope, ctx):
                            pending.append(row)
                yield from out.drain()
            return
        runner = self._runner
        getters = self._getters
        # Two-column one-per-side primaries (the common UDF join shape,
        # e.g. ``expjoin10(t7.a, t3.a)``) get a specialised binding
        # build: the inner side's values materialise once, and each
        # outer row pairs its single value against them in one listcomp.
        two_col = (
            len(getters) == 2 and getters[0][0] is not getters[1][0]
        )
        if two_col and inner_rows:
            outer_first = getters[0][0]
            outer_slot = (getters[0] if outer_first else getters[1])[1]
            inner_slot = (getters[1] if outer_first else getters[0])[1]
            inner_vals = [row[inner_slot] for row in inner_rows]
            for obatch in self.outer.batches():
                if obatch is LEAF_BOUNDARY:
                    yield from out.boundary()
                    continue
                self._charge_outer(obatch.length, rescan_pages)
                for outer_row in obatch.rows:
                    ov = outer_row[outer_slot]
                    if outer_first:
                        bindings = [(ov, iv) for iv in inner_vals]
                    else:
                        bindings = [(iv, ov) for iv in inner_vals]
                    mask = runner.evaluate_bindings(bindings)
                    for inner_row in compress(inner_rows, mask):
                        pending.append(outer_row + inner_row)
                yield from out.drain()
            return
        for obatch in self.outer.batches():
            if obatch is LEAF_BOUNDARY:
                yield from out.boundary()
                continue
            self._charge_outer(obatch.length, rescan_pages)
            if inner_rows:
                for outer_row in obatch.rows:
                    bindings = [
                        tuple(
                            (outer_row if from_outer else inner_row)[slot]
                            for from_outer, slot in getters
                        )
                        for inner_row in inner_rows
                    ]
                    mask = runner.evaluate_bindings(bindings)
                    for inner_row in compress(inner_rows, mask):
                        pending.append(outer_row + inner_row)
            yield from out.drain()


class BatchIndexNestedLoopJoin(BatchOperator):
    """Index nested loop: probes stay in row order so buffer-pool hits
    (and therefore random-I/O charges) match a tuple-at-a-time run's."""

    def __init__(
        self,
        join: Join,
        outer: BatchOperator,
        ctx: RuntimeContext,
        batch_rows: int,
    ) -> None:
        inner_scan = join.inner
        if not isinstance(inner_scan, Scan):
            raise PlanError("left-deep plans require a scan inner input")
        columns = join.join_columns()
        if columns is None:
            raise PlanError("index nested loop requires an equijoin primary")
        outer_column, inner_column = columns
        entry = ctx.catalog.table(inner_scan.table)
        if not entry.has_index(inner_column.attribute):
            raise ExecutionError(
                f"no index on {inner_column.table}.{inner_column.attribute}"
            )
        self.join = join
        self.outer = outer
        self.ctx = ctx
        self.batch_rows = batch_rows
        self.entry = entry
        self.index = entry.index(inner_column.attribute)
        self.inner_filters = inner_scan.filters
        self.inner_scope = Scope(
            [(inner_scan.table, name) for name in entry.schema.attribute_names]
        )
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.scope = outer.scope.concat(self.inner_scope)
        self._by_pred: dict[int, tuple] = {}

    def _inner_runners(self) -> list[tuple]:
        """Compiled runners for the inner scan's filters, read from its
        live list — an adaptive re-plan may splice predicates onto an
        index-nested-loop inner mid-query."""
        runners = []
        for predicate in self.inner_filters:
            entry = self._by_pred.get(predicate.pred_id)
            if entry is None:
                entry = self._by_pred[predicate.pred_id] = (
                    PredicateRunner(predicate, self.ctx),
                    _input_slots(predicate, self.inner_scope),
                )
            runners.append(entry)
        return runners

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        meter = ctx.meter
        cpu = ctx.params.cpu_per_tuple
        heap = self.entry.heap
        index = self.index
        contained = ctx.containment is not None
        out = _BatchBuilder(self.scope, self.batch_rows)
        pending = out.rows
        for obatch in self.outer.batches():
            if obatch is LEAF_BOUNDARY:
                yield from out.boundary()
                continue
            meter.charge_tuples(cpu, obatch.length)
            outer_slot = self.outer_slot
            outer_rows = obatch.rows
            # Probe in row order; collect fetched pairs for batch filtering.
            pairs: list[tuple[int, tuple]] = []
            for i, outer_row in enumerate(outer_rows):
                for rid in index.search(outer_row[outer_slot]):
                    pairs.append((i, heap.fetch_rid(rid)))
            if contained:
                inner_scope = self.inner_scope
                for i, inner_row in pairs:
                    if all(
                        evaluate_predicate(
                            predicate, inner_row, inner_scope, ctx
                        )
                        for predicate in self.inner_filters
                    ):
                        pending.append(outer_rows[i] + inner_row)
            else:
                for runner, slots in self._inner_runners():
                    if not pairs:
                        break
                    bindings = [
                        tuple(inner_row[slot] for slot in slots)
                        for _, inner_row in pairs
                    ]
                    mask = runner.evaluate_bindings(bindings)
                    pairs = list(compress(pairs, mask))
                for i, inner_row in pairs:
                    pending.append(outer_rows[i] + inner_row)
            yield from out.drain()
        yield from out.flush()


class BatchMergeJoin(BatchOperator):
    """Sort-merge join; sort and CPU charges follow the cost model's
    external-sort formula."""

    def __init__(
        self,
        join: Join,
        outer: BatchOperator,
        inner: BatchOperator,
        ctx: RuntimeContext,
        batch_rows: int,
    ) -> None:
        columns = join.join_columns()
        if columns is None:
            raise PlanError("merge join requires an equijoin primary")
        outer_column, inner_column = columns
        self.join = join
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.batch_rows = batch_rows
        self.scope = outer.scope.concat(inner.scope)
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.inner_slot = inner.scope.slot(
            inner_column.table, inner_column.attribute
        )

    def _sorted_rows(self, child: BatchOperator, slot: int) -> list[tuple]:
        rows: list[tuple] = []
        for batch in child.batches():
            if batch is LEAF_BOUNDARY:
                # A sort is a pipeline breaker: nothing above it has
                # seen a row yet, so the boundary ends here.
                self.ctx.feed.on_boundary()
                continue
            rows.extend(batch.iter_rows())
        rows.sort(key=lambda row: row[slot])
        width = _scope_width(child.scope, self.ctx.catalog)
        params = self.ctx.params
        pages = int(params.pages_for(len(rows), width))
        self.ctx.meter.charge_io(
            IOKind.SEQUENTIAL, 2 * pages * params.sort_passes(pages)
        )
        self.ctx.meter.charge_cpu(params.cpu_per_tuple * len(rows))
        return rows

    def batches(self) -> Iterator[ColumnBatch]:
        outer_rows = self._sorted_rows(self.outer, self.outer_slot)
        inner_rows = self._sorted_rows(self.inner, self.inner_slot)
        inner_slot = self.inner_slot
        inner_len = len(inner_rows)
        inner_pos = 0
        out = _BatchBuilder(self.scope, self.batch_rows)
        pending = out.rows
        for outer_row in outer_rows:
            key = outer_row[self.outer_slot]
            while (
                inner_pos < inner_len
                and inner_rows[inner_pos][inner_slot] < key
            ):
                inner_pos += 1
            probe = inner_pos
            while (
                probe < inner_len and inner_rows[probe][inner_slot] == key
            ):
                pending.append(outer_row + inner_rows[probe])
                probe += 1
            yield from out.drain()
        yield from out.flush()


class BatchHashJoin(BatchOperator):
    """Hash join; build/probe CPU (bulk-charged per batch) and the
    Grace-spill partitioning I/O when the build side exceeds hash
    memory."""

    def __init__(
        self,
        join: Join,
        outer: BatchOperator,
        inner: BatchOperator,
        ctx: RuntimeContext,
        batch_rows: int,
    ) -> None:
        columns = join.join_columns()
        if columns is None:
            raise PlanError("hash join requires an equijoin primary")
        outer_column, inner_column = columns
        self.join = join
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.batch_rows = batch_rows
        self.scope = outer.scope.concat(inner.scope)
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.inner_slot = inner.scope.slot(
            inner_column.table, inner_column.attribute
        )

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        meter = ctx.meter
        cpu = ctx.params.cpu_per_tuple
        inner_slot = self.inner_slot
        table: dict[object, list[tuple]] = {}
        inner_count = 0
        for batch in self.inner.batches():
            meter.charge_tuples(cpu, batch.length)
            inner_count += batch.length
            for inner_row in batch.iter_rows():
                table.setdefault(inner_row[inner_slot], []).append(inner_row)
        inner_width = _scope_width(self.inner.scope, ctx.catalog)
        inner_pages = ctx.params.pages_for(inner_count, inner_width)
        out = _BatchBuilder(self.scope, self.batch_rows)
        pending = out.rows
        outer_slot = self.outer_slot
        if inner_pages > ctx.params.hash_memory_pages:
            # Grace hash join: partition both sides to disk and back.
            # Buffering the outer makes this a pipeline breaker, so a
            # leaf boundary ends here.
            outer_batches = []
            for batch in self.outer.batches():
                if batch is LEAF_BOUNDARY:
                    ctx.feed.on_boundary()
                else:
                    outer_batches.append(batch)
            outer_count = sum(batch.length for batch in outer_batches)
            outer_width = _scope_width(self.outer.scope, ctx.catalog)
            outer_pages = ctx.params.pages_for(outer_count, outer_width)
            meter.charge_io(
                IOKind.SEQUENTIAL, 2 * int(inner_pages + outer_pages)
            )
        else:
            outer_batches = self.outer.batches()
        for obatch in outer_batches:
            if obatch is LEAF_BOUNDARY:
                yield from out.boundary()
                continue
            meter.charge_tuples(cpu, obatch.length)
            for outer_row in obatch.rows:
                matched = table.get(outer_row[outer_slot])
                if matched:
                    for inner_row in matched:
                        pending.append(outer_row + inner_row)
            yield from out.drain()
        yield from out.flush()


# -- observation -------------------------------------------------------------


class ObservedBatchOperator(BatchOperator):
    """Reports one plan node's pulls to the execution event stream:
    ``open`` at construction, one ``batch`` event per pull — rows, wall
    seconds, and the meter/cache deltas bracketed around the pull,
    inclusive of the node's subtree — and ``done`` on exhaustion. A
    :data:`LEAF_BOUNDARY` marker passes through as a ``batch`` event with
    ``rows=None``: it carries the pull's charges but no rows. Only built
    when the stream has listeners."""

    def __init__(
        self, node: PlanNode, child: BatchOperator, ctx: RuntimeContext
    ) -> None:
        self.child = child
        self.ctx = ctx
        self.key = id(node)
        self.scope = child.scope
        ctx.events.open(node)

    def batches(self) -> Iterator[ColumnBatch]:
        events = self.ctx.events
        meter = self.ctx.meter
        cache = self.ctx.cache
        stats = cache.stats if cache is not None else None
        key = self.key
        iterator = self.child.batches()
        while True:
            io = meter.io_charged
            cpu = meter.cpu_charged
            function = meter.function_charged
            hits = stats.hits if stats is not None else 0
            started = time.perf_counter()
            batch = next(iterator, None)
            seconds = time.perf_counter() - started
            delta = (
                meter.io_charged - io,
                meter.cpu_charged - cpu,
                meter.function_charged - function,
                stats.hits - hits if stats is not None else 0,
            )
            if batch is None:
                events.done(key, seconds, delta)
                return
            rows = None if batch is LEAF_BOUNDARY else batch.length
            events.batch(key, rows, seconds, delta)
            yield batch


# -- adaptive feed -----------------------------------------------------------


class BatchLeafFeed(BatchOperator):
    """The adaptive safe boundary: wraps the spine leaf's *raw* source.

    Raw batches are cut at the feed's power-of-two leaf-row milestones
    (capped at ``batch_rows``), and a :data:`LEAF_BOUNDARY` marker goes
    up the spine ahead of the piece that starts at each milestone —
    before any of its rows enters a filter. Once the feed disables
    itself (re-plan budget spent), batches pass through uncut. Only
    constructed when the context carries a ``feed``.
    """

    def __init__(
        self, child: BatchOperator, feed, batch_rows: int
    ) -> None:
        self.child = child
        self.feed = feed
        self.batch_rows = batch_rows
        self.scope = child.scope

    def batches(self) -> Iterator[ColumnBatch]:
        feed = self.feed
        scope = self.scope
        rows = 0  # leaf rows handed up so far
        for batch in self.child.batches():
            start = 0
            while start < batch.length:
                size = min(batch.length - start, self.batch_rows)
                if feed.active:
                    position = rows + 1  # the next leaf row, 1-based
                    if position & (position - 1) == 0:
                        yield LEAF_BOUNDARY
                    size = min(
                        size, (1 << position.bit_length()) - position
                    )
                if start == 0 and size == batch.length:
                    piece = batch
                else:
                    piece = ColumnBatch(
                        scope, batch.rows[start:start + size]
                    )
                start += size
                rows += size
                feed.on_leaf_rows(size)
                yield piece


# -- plan compilation --------------------------------------------------------


def build_batch_operator(
    node: PlanNode,
    ctx: RuntimeContext,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> BatchOperator:
    """Compile a plan tree into a batch-operator tree, each node observed
    when the context's event stream has listeners."""
    operator = _build_batch_operator(node, ctx, batch_rows)
    if ctx.events:
        operator = ObservedBatchOperator(node, operator, ctx)
    return operator


def _build_batch_operator(
    node: PlanNode, ctx: RuntimeContext, batch_rows: int
) -> BatchOperator:
    feed = ctx.feed
    if isinstance(node, Scan):
        if node.index_attr is not None:
            low, high = node.index_range  # type: ignore[misc]
            source: BatchOperator = BatchIndexScan(
                node.table, node.index_attr, low, high, ctx, batch_rows
            )
        else:
            source = BatchSeqScan(node.table, ctx, batch_rows)
        if feed is not None and id(node) == feed.leaf_id:
            source = BatchLeafFeed(source, feed, batch_rows)
        if node.filters or feed is not None:
            return BatchFilter(source, node.filters, ctx, node)
        return source

    if isinstance(node, Join):
        outer = build_batch_operator(node.outer, ctx, batch_rows)
        if node.method is JoinMethod.INDEX_NESTED_LOOP:
            joined: BatchOperator = BatchIndexNestedLoopJoin(
                node, outer, ctx, batch_rows
            )
        else:
            inner = build_batch_operator(node.inner, ctx, batch_rows)
            if node.method is JoinMethod.NESTED_LOOP:
                joined = BatchNestedLoopJoin(
                    node, outer, inner, ctx, batch_rows
                )
            elif node.method is JoinMethod.MERGE:
                joined = BatchMergeJoin(node, outer, inner, ctx, batch_rows)
            elif node.method is JoinMethod.HASH:
                joined = BatchHashJoin(node, outer, inner, ctx, batch_rows)
            else:  # pragma: no cover - exhaustive over enum
                raise PlanError(f"unknown join method {node.method}")
        if node.filters or feed is not None:
            return BatchFilter(joined, node.filters, ctx, node)
        return joined

    raise PlanError(f"cannot execute node type: {type(node).__name__}")


class VectorPlanRunner:
    """Row-iterable adapter over a batch-operator tree — what the
    executor facade runs. At the plan root it absorbs
    :data:`LEAF_BOUNDARY` markers: every row produced before a marker
    has been collected when ``feed.on_boundary()`` fires."""

    def __init__(
        self,
        node: PlanNode,
        ctx: RuntimeContext,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ) -> None:
        self.feed = ctx.feed
        self.operator = build_batch_operator(node, ctx, batch_rows)
        self.scope = self.operator.scope

    def __iter__(self) -> Iterator[tuple]:
        for batch in self.operator.batches():
            if batch is LEAF_BOUNDARY:
                self.feed.on_boundary()
                continue
            yield from batch.iter_rows()

    def run_into(self, rows: list[tuple]) -> None:
        """Collect all output rows with batch-level extends."""
        for batch in self.operator.batches():
            if batch is LEAF_BOUNDARY:
                self.feed.on_boundary()
                continue
            rows.extend(batch.iter_rows())

"""The tuple-at-a-time iterator tree, kept as a behavioural reference.

The program runs every plan on the batch engine
(:mod:`repro.exec.vector`). These are the plain row operators it
replaced: one Python generator per plan node, pulling a single
composite row at a time, with each charge made the moment its unit of
work happens. Charging rules mirror :mod:`repro.cost.model` exactly:

* sequential scans charge one sequential I/O per heap page (via the pool);
* index probes charge one random I/O per touched B-tree node and one per
  fetched heap tuple (via the pool, so hot pages may hit);
* nested loop materialises the (filtered) inner once, then charges the
  *base* relation's page count per outer-tuple rescan — the paper's
  "constant irrespective of expensive selections on the inner";
* sorts charge two sequential passes over the stream's pages;
* every expensive-predicate evaluation charges the predicate's per-call
  cost — unless the predicate cache already holds the binding's result.

The parity suites (``test_vector_equivalence.py``, ``test_budget_dnf.py``
and friends) pin the batch engine's rows and charges against this tree:
equal on completed runs, and within one charge quantum at a budget abort.
Predicate evaluation goes through the program's own
:func:`~repro.exec.operators.evaluate_predicate`, so caching, function
cache mode and containment behave exactly as they do in the program.

Do not optimise this module: its value is that it is obviously right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import BudgetExceededError, ExecutionError, PlanError
from repro.exec.cache import PredicateCache
from repro.exec.operators import (
    RuntimeContext,
    _scope_width,
    evaluate_predicate,
)
from repro.expr.expressions import Scope
from repro.expr.predicates import Predicate
from repro.plan.nodes import Join, JoinMethod, Plan, PlanNode, Scan
from repro.storage.meter import IOKind


class Operator:
    """Base class: an iterable of composite rows with a fixed scope."""

    scope: Scope

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError


class FilterChain(Operator):
    """Applies an ordered predicate list to a child's output."""

    def __init__(
        self, child: Operator, filters: list[Predicate], ctx: RuntimeContext
    ) -> None:
        self.child = child
        self.filters = filters
        self.ctx = ctx
        self.scope = child.scope

    def __iter__(self) -> Iterator[tuple]:
        for row in self.child:
            if all(
                evaluate_predicate(predicate, row, self.scope, self.ctx)
                for predicate in self.filters
            ):
                yield row


class SeqScanOp(Operator):
    def __init__(self, table: str, ctx: RuntimeContext) -> None:
        entry = ctx.catalog.table(table)
        if entry.heap is None:
            raise ExecutionError(f"relation {table!r} has no heap file")
        self.entry = entry
        self.scope = Scope(
            [(table, name) for name in entry.schema.attribute_names]
        )

    def __iter__(self) -> Iterator[tuple]:
        yield from self.entry.heap.scan()


class IndexScanOp(Operator):
    """Range scan through a B-tree with random heap fetches (unclustered)."""

    def __init__(
        self,
        table: str,
        attribute: str,
        low: object,
        high: object,
        ctx: RuntimeContext,
    ) -> None:
        entry = ctx.catalog.table(table)
        if not entry.has_index(attribute):
            raise ExecutionError(f"no index on {table}.{attribute}")
        self.entry = entry
        self.index = entry.index(attribute)
        self.low = low
        self.high = high
        self.scope = Scope(
            [(table, name) for name in entry.schema.attribute_names]
        )

    def __iter__(self) -> Iterator[tuple]:
        for rid in self.index.range_search(self.low, self.high):
            yield self.entry.heap.fetch_rid(rid)


class NestedLoopJoinOp(Operator):
    """Tuple-at-a-time nested loop; the only method that accepts an
    arbitrary (possibly expensive) primary join predicate."""

    def __init__(
        self, join: Join, outer: Operator, inner: Operator, ctx: RuntimeContext
    ) -> None:
        self.join = join
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.scope = outer.scope.concat(inner.scope)
        inner_node = join.inner
        # The paper's constant-|S| rescan volume: the base relation's page
        # count for a scan inner; for a bushy (joined) inner, the pages of
        # the materialised intermediate.
        if isinstance(inner_node, Scan):
            self.inner_base_pages: int | None = ctx.catalog.table(
                inner_node.table
            ).pages
        else:
            self.inner_base_pages = None  # computed after materialisation

    def __iter__(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        cpu = self.ctx.params.cpu_per_tuple
        inner_rows = list(self.inner)  # filters evaluated once, here
        meter.charge_cpu(cpu * len(inner_rows))
        rescan_pages = self.inner_base_pages
        if rescan_pages is None:
            width = _scope_width(self.inner.scope, self.ctx.catalog)
            rescan_pages = int(
                self.ctx.params.pages_for(len(inner_rows), width)
            )
        for outer_row in self.outer:
            meter.charge_cpu(cpu)
            # The paper's constant-|S| term: every outer tuple rescans the
            # full inner's blocks.
            meter.charge_io(IOKind.SEQUENTIAL, rescan_pages)
            for inner_row in inner_rows:
                row = outer_row + inner_row
                if evaluate_predicate(
                    self.join.primary, row, self.scope, self.ctx
                ):
                    yield row


class IndexNestedLoopJoinOp(Operator):
    """Index nested loop: probe the inner index per outer tuple."""

    def __init__(self, join: Join, outer: Operator, ctx: RuntimeContext) -> None:
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
        self.outer = outer
        self.ctx = ctx
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

    def __iter__(self) -> Iterator[tuple]:
        cpu = self.ctx.params.cpu_per_tuple
        for outer_row in self.outer:
            self.ctx.meter.charge_cpu(cpu)
            key = outer_row[self.outer_slot]
            for rid in self.index.search(key):
                inner_row = self.entry.heap.fetch_rid(rid)
                if all(
                    evaluate_predicate(
                        predicate, inner_row, self.inner_scope, self.ctx
                    )
                    for predicate in self.inner_filters
                ):
                    yield outer_row + inner_row


class MergeJoinOp(Operator):
    """Sort-merge join on an equijoin primary."""

    def __init__(
        self, join: Join, outer: Operator, inner: Operator, ctx: RuntimeContext
    ) -> None:
        columns = join.join_columns()
        if columns is None:
            raise PlanError("merge join requires an equijoin primary")
        outer_column, inner_column = columns
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.scope = outer.scope.concat(inner.scope)
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.inner_slot = inner.scope.slot(
            inner_column.table, inner_column.attribute
        )

    def _sorted_rows(self, child: Operator, slot: int) -> list[tuple]:
        rows = list(child)
        rows.sort(key=lambda row: row[slot])
        width = _scope_width(child.scope, self.ctx.catalog)
        params = self.ctx.params
        pages = int(params.pages_for(len(rows), width))
        # External sort: two sequential I/Os per page per pass (write runs,
        # read back), with extra merge passes for inputs beyond workspace.
        self.ctx.meter.charge_io(
            IOKind.SEQUENTIAL, 2 * pages * params.sort_passes(pages)
        )
        self.ctx.meter.charge_cpu(params.cpu_per_tuple * len(rows))
        return rows

    def __iter__(self) -> Iterator[tuple]:
        outer_rows = self._sorted_rows(self.outer, self.outer_slot)
        inner_rows = self._sorted_rows(self.inner, self.inner_slot)
        inner_len = len(inner_rows)
        inner_pos = 0
        for outer_row in outer_rows:
            key = outer_row[self.outer_slot]
            while (
                inner_pos < inner_len
                and inner_rows[inner_pos][self.inner_slot] < key
            ):
                inner_pos += 1
            probe = inner_pos
            while (
                probe < inner_len
                and inner_rows[probe][self.inner_slot] == key
            ):
                yield outer_row + inner_rows[probe]
                probe += 1


class HashJoinOp(Operator):
    """In-memory (or Grace, by charging) hash join on an equijoin primary."""

    def __init__(
        self, join: Join, outer: Operator, inner: Operator, ctx: RuntimeContext
    ) -> None:
        columns = join.join_columns()
        if columns is None:
            raise PlanError("hash join requires an equijoin primary")
        outer_column, inner_column = columns
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.scope = outer.scope.concat(inner.scope)
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.inner_slot = inner.scope.slot(
            inner_column.table, inner_column.attribute
        )

    def __iter__(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        cpu = self.ctx.params.cpu_per_tuple
        table: dict[object, list[tuple]] = {}
        inner_count = 0
        for inner_row in self.inner:
            meter.charge_cpu(cpu)
            table.setdefault(inner_row[self.inner_slot], []).append(inner_row)
            inner_count += 1
        inner_width = _scope_width(self.inner.scope, self.ctx.catalog)
        inner_pages = self.ctx.params.pages_for(inner_count, inner_width)
        if inner_pages > self.ctx.params.hash_memory_pages:
            # Grace hash join: partition both sides to disk and back.
            outer_rows = list(self.outer)
            outer_width = _scope_width(self.outer.scope, self.ctx.catalog)
            outer_pages = self.ctx.params.pages_for(
                len(outer_rows), outer_width
            )
            self.ctx.meter.charge_io(
                IOKind.SEQUENTIAL, 2 * int(inner_pages + outer_pages)
            )
            outer_iter: Iterator[tuple] = iter(outer_rows)
        else:
            outer_iter = iter(self.outer)
        for outer_row in outer_iter:
            meter.charge_cpu(cpu)
            for inner_row in table.get(outer_row[self.outer_slot], ()):
                yield outer_row + inner_row


def build_operator(node: PlanNode, ctx: RuntimeContext) -> Operator:
    """Compile a plan tree into a row operator tree."""
    if isinstance(node, Scan):
        if node.index_attr is not None:
            low, high = node.index_range  # type: ignore[misc]
            source: Operator = IndexScanOp(
                node.table, node.index_attr, low, high, ctx
            )
        else:
            source = SeqScanOp(node.table, ctx)
        if node.filters:
            return FilterChain(source, node.filters, ctx)
        return source

    if isinstance(node, Join):
        outer = build_operator(node.outer, ctx)
        if node.method is JoinMethod.INDEX_NESTED_LOOP:
            joined: Operator = IndexNestedLoopJoinOp(node, outer, ctx)
        else:
            inner = build_operator(node.inner, ctx)
            if node.method is JoinMethod.NESTED_LOOP:
                joined = NestedLoopJoinOp(node, outer, inner, ctx)
            elif node.method is JoinMethod.MERGE:
                joined = MergeJoinOp(node, outer, inner, ctx)
            elif node.method is JoinMethod.HASH:
                joined = HashJoinOp(node, outer, inner, ctx)
            else:  # pragma: no cover - exhaustive over enum
                raise PlanError(f"unknown join method {node.method}")
        if node.filters:
            return FilterChain(joined, node.filters, ctx)
        return joined

    raise PlanError(f"cannot execute node type: {type(node).__name__}")


@dataclass
class ReferenceResult:
    """What one reference run produced: rows, verdict and meter."""

    rows: list[tuple]
    completed: bool
    charged: float
    metrics: dict[str, float] = field(default_factory=dict)
    cache: PredicateCache | None = None


def run_reference(
    db,
    plan: Plan | PlanNode,
    budget: float | None = None,
    caching: bool = False,
    cache_mode: str = "predicate",
    cache_capacity: int | None = None,
) -> ReferenceResult:
    """Execute ``plan`` cold on the row tree, like ``Executor.execute``:
    fresh meter, empty buffer pool, reset function counters, and a
    budget abort turned into ``completed=False``."""
    node = plan.root if isinstance(plan, Plan) else plan
    db.meter.reset()
    previous_budget = db.meter.budget
    db.meter.budget = budget
    db.pool.clear()
    db.pool.reset_stats()
    db.catalog.functions.reset_counters()
    cache = (
        PredicateCache(max_total_entries=cache_capacity) if caching else None
    )
    ctx = RuntimeContext(
        catalog=db.catalog,
        meter=db.meter,
        params=db.params,
        caching=caching,
        cache=cache,
        cache_mode=cache_mode,
    )
    rows: list[tuple] = []
    completed = True
    try:
        for row in build_operator(node, ctx):
            rows.append(row)
    except BudgetExceededError:
        completed = False
    finally:
        db.meter.budget = previous_budget
    return ReferenceResult(
        rows=rows,
        completed=completed,
        charged=db.meter.charged,
        metrics=db.meter.snapshot(),
        cache=cache,
    )


def charge_quantum(db, plan: Plan | PlanNode) -> float:
    """The largest single unit of charge ``plan`` can make: one call of
    its costliest UDF, one page I/O, or one per-tuple CPU charge.

    A budget abort strikes on the first charge that crosses the budget,
    so any two runs of the same plan that both charge unit by unit abort
    less than one quantum apart."""
    node = plan.root if isinstance(plan, Plan) else plan
    costs = [1.0, db.meter.seq_weight, db.params.cpu_per_tuple]
    for predicate in node.all_predicates():
        if predicate.is_compound:
            costs.extend(leaf.cost for leaf in predicate.tree.leaves())
        else:
            costs.append(predicate.cost_per_tuple)
    return max(costs)


def paid_calls(db) -> int:
    """UDF invocations actually made since the last counter reset,
    counting only functions that charge per call."""
    functions = db.catalog.functions
    return sum(
        functions.get(name).calls
        for name in functions.names()
        if functions.get(name).cost_per_call > 0
    )

"""Plan pretty-printing: ASCII trees like the paper's Figures 1, 2, 6, 7."""

from __future__ import annotations

import math

from repro.plan.nodes import Join, Plan, PlanNode, Scan


def _node_label(node: PlanNode) -> str:
    if isinstance(node, Join):
        return f"{node.method.value}-join  [{node.primary}]"
    assert isinstance(node, Scan)
    return str(node)


def _render(node: PlanNode, prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    child_prefix = prefix + ("   " if is_last else "│  ")
    label = _node_label(node)
    lines.append(prefix + connector + label)
    for predicate in reversed(node.filters):
        lines.append(child_prefix + f"· filter: {predicate}")
    children = node.children()
    for position, child in enumerate(children):
        _render(child, child_prefix, position == len(children) - 1, lines)


def plan_tree(plan: Plan | PlanNode) -> str:
    """Render a plan as an ASCII tree, filters listed top-down per node."""
    root = plan.root if isinstance(plan, Plan) else plan
    lines: list[str] = [_node_label(root)]
    for predicate in reversed(root.filters):
        lines.append(f"· filter: {predicate}")
    children = root.children()
    for position, child in enumerate(children):
        _render(child, "", position == len(children) - 1, lines)
    return "\n".join(lines)


def _annotated_label(node: PlanNode, cost_model) -> str:
    estimate = cost_model.estimate_plan(node)
    return (
        _node_label(node)
        + f"  (est rows={estimate.rows:.0f} cost={estimate.cost:.1f})"
    )


def _render_annotated(
    node: PlanNode,
    prefix: str,
    is_last: bool,
    lines: list[str],
    cost_model,
) -> None:
    connector = "└─ " if is_last else "├─ "
    child_prefix = prefix + ("   " if is_last else "│  ")
    lines.append(prefix + connector + _annotated_label(node, cost_model))
    for predicate in reversed(node.filters):
        lines.append(child_prefix + f"· filter: {predicate}")
    children = node.children()
    for position, child in enumerate(children):
        _render_annotated(
            child, child_prefix, position == len(children) - 1, lines,
            cost_model,
        )


def plan_tree_annotated(plan: Plan | PlanNode, cost_model) -> str:
    """The plan tree with per-node estimated rows and cost — the static
    (un-executed) sibling of :func:`explain_analyze`, used by the
    ``plan-diff`` view."""
    root = plan.root if isinstance(plan, Plan) else plan
    lines: list[str] = [_annotated_label(root, cost_model)]
    for predicate in reversed(root.filters):
        lines.append(f"· filter: {predicate}")
    children = root.children()
    for position, child in enumerate(children):
        _render_annotated(
            child, "", position == len(children) - 1, lines, cost_model
        )
    return "\n".join(lines)


def side_by_side(
    left: str,
    right: str,
    left_title: str = "",
    right_title: str = "",
    gutter: str = "   ",
) -> str:
    """Two text blocks as aligned columns, ``≠`` marking differing lines.

    Alignment is positional (line i next to line i), which reads well for
    plan trees that share a join order and stays honest — no fuzzy
    matching — when they do not.
    """
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    width = max(
        [len(line) for line in left_lines + [left_title]] or [0]
    )
    lines: list[str] = []
    if left_title or right_title:
        lines.append(f"{left_title:<{width}}{gutter} {right_title}")
        lines.append(f"{'-' * width}{gutter} {'-' * max(len(right_title), 1)}")
    for position in range(max(len(left_lines), len(right_lines))):
        lhs = left_lines[position] if position < len(left_lines) else ""
        rhs = right_lines[position] if position < len(right_lines) else ""
        marker = "≠" if lhs != rhs else " "
        lines.append(f"{lhs:<{width}}{gutter}{marker}{rhs}")
    return "\n".join(lines)


def _relative_error(estimated: float, actual: float) -> str:
    """Signed relative error of an estimate vs. its actual, as a percent.

    An actual of zero (e.g. a run aborted by the cost budget before the
    node produced anything) makes relative error meaningless — report
    ``n/a`` instead of a division-by-epsilon blowup.
    """
    if actual == 0:
        return "+0.0%" if estimated == 0 else "n/a"
    return f"{(estimated - actual) / abs(actual) * 100.0:+.1f}%"


def _analyze_annotation(node: PlanNode, node_stats: dict, cost_model) -> str:
    """The per-node ``(est … | act … | err …)`` suffix."""
    parts: list[str] = []
    estimate = None
    if cost_model is not None:
        estimate = cost_model.estimate_plan(node)
        parts.append(
            f"est rows={estimate.rows:.0f} cost={estimate.cost:.1f}"
        )
    stats = node_stats.get(id(node))
    if stats is None:
        # e.g. the scan inside an index nested loop is probed, never
        # materialised as its own operator.
        parts.append("act (not separately executed)")
    else:
        act = f"act rows={stats.rows_out} charged={stats.charged:.1f}"
        if stats.cache_hits:
            act += f" cache_hits={stats.cache_hits}"
        parts.append(act)
        if estimate is not None:
            parts.append(
                f"err rows {_relative_error(estimate.rows, stats.rows_out)}"
                f" cost {_relative_error(estimate.cost, stats.charged)}"
            )
    return "  (" + " | ".join(parts) + ")"


def _hist_span(hist) -> str:
    """``min/median/max`` of a per-batch histogram, as whole rows."""
    if hist.count <= 0:
        return "n/a"
    return (
        f"{hist.minimum:.0f}/{hist.quantile(0.5):.0f}/{hist.maximum:.0f}"
    )


def _batch_line(stats) -> str:
    """The per-node ``· batches=…`` line from vector batch actuals."""
    parts = [f"batches={stats.batches}"]
    if stats.rows_in.count > 0:
        parts.append(f"rows/batch in={_hist_span(stats.rows_in)}")
    if stats.rows_out.count > 0:
        parts.append(f"rows/batch out={_hist_span(stats.rows_out)}")
    return "· " + "  ".join(parts)


def _predicate_batch_suffix(pstats, chain_rows: int) -> str:
    """Per-predicate vector annotations: selection-vector density before
    and after the kernel (fractions of the rows that entered the filter
    chain), observed selectivity, kernel self time, cache hit rate."""
    if pstats.rows_in <= 0 and pstats.batches <= 0:
        return ""
    parts: list[str] = []
    if chain_rows > 0:
        before = pstats.rows_in / chain_rows
        after = pstats.rows_out / chain_rows
        parts.append(f"density {before:.3f}→{after:.3f}")
    selectivity = pstats.selectivity
    if not math.isnan(selectivity):
        parts.append(f"sel={selectivity:.3f}")
    parts.append(f"kernel={pstats.kernel_seconds * 1000.0:.2f}ms")
    if pstats.cache_hits or pstats.cache_misses:
        parts.append(f"cache_hit={pstats.cache_hit_rate * 100.0:.1f}%")
    return "  [" + " | ".join(parts) + "]"


def _analyze_detail_lines(
    node: PlanNode, child_prefix: str, lines: list[str], batch_map: dict
) -> None:
    """The ``·`` lines under one node: batch actuals, then filters
    (display order is reversed chain order; the stats list is chain
    order, so entry ``i`` from the end annotates rendered filter ``i``).
    """
    batch = batch_map.get(id(node))
    if batch is not None:
        lines.append(child_prefix + _batch_line(batch))
    pred_count = len(node.filters)
    for offset, predicate in enumerate(reversed(node.filters)):
        line = child_prefix + f"· filter: {predicate}"
        if batch is not None:
            chain_index = pred_count - 1 - offset
            if chain_index < len(batch.predicates):
                line += _predicate_batch_suffix(
                    batch.predicates[chain_index], batch.chain_rows
                )
        lines.append(line)


def _render_analyze(
    node: PlanNode,
    prefix: str,
    is_last: bool,
    lines: list[str],
    node_stats: dict,
    cost_model,
    batch_map: dict,
) -> None:
    connector = "└─ " if is_last else "├─ "
    child_prefix = prefix + ("   " if is_last else "│  ")
    lines.append(
        prefix
        + connector
        + _node_label(node)
        + _analyze_annotation(node, node_stats, cost_model)
    )
    _analyze_detail_lines(node, child_prefix, lines, batch_map)
    children = node.children()
    for position, child in enumerate(children):
        _render_analyze(
            child,
            child_prefix,
            position == len(children) - 1,
            lines,
            node_stats,
            cost_model,
            batch_map,
        )


def explain_analyze(
    plan: Plan | PlanNode,
    node_stats: dict | None,
    cost_model=None,
    batch_stats: dict | None = None,
) -> str:
    """EXPLAIN ANALYZE: the plan tree annotated per node with estimated
    vs. actual rows and cost, plus the estimate's relative error.

    ``node_stats`` is :attr:`QueryResult.node_stats` from an instrumented
    execution (``Executor.execute(..., instrument=True)``); ``cost_model``
    supplies the per-node estimates. Charged figures are inclusive of each
    node's subtree, matching the cost model's convention.

    ``batch_stats`` is :attr:`QueryResult.batch_stats` from an
    instrumented execution: when present, each node gains a
    ``· batches=…`` line (batch count, per-batch row min/median/max in
    and out) and each filter gains selection-vector density before/after
    the kernel, observed selectivity, kernel self time, and predicate
    cache hit rate. The per-node ``act`` figures are untouched — they
    read the same with or without the batch layer.
    """
    root = plan.root if isinstance(plan, Plan) else plan
    stats_map = node_stats or {}
    batch_map = batch_stats or {}
    lines = [_node_label(root) + _analyze_annotation(root, stats_map, cost_model)]
    _analyze_detail_lines(root, "", lines, batch_map)
    children = root.children()
    for position, child in enumerate(children):
        _render_analyze(
            child,
            "",
            position == len(children) - 1,
            lines,
            stats_map,
            cost_model,
            batch_map,
        )
    return "\n".join(lines)


def explain(plan: Plan, cost_model=None) -> str:
    """Plan tree plus estimated totals (and per-node detail if a cost model
    is supplied)."""
    lines = [plan_tree(plan)]
    if cost_model is not None:
        estimate = cost_model.estimate_plan(plan.root)
        lines.append(
            f"estimated rows={estimate.rows:.0f} "
            f"cost={estimate.cost:.1f} units"
        )
    elif plan.estimated_cost is not None:
        lines.append(
            f"estimated rows={plan.estimated_rows:.0f} "
            f"cost={plan.estimated_cost:.1f} units"
        )
    return "\n".join(lines)

"""Estimate-accuracy instrumentation (Section 5.2).

The paper reviews "the accuracy of these estimates in practice" — its
selectivity estimates are deliberately rough (``{R}`` computed on the fly),
erring toward over-eager pullup. This module measures, for every node of a
plan, the optimizer's estimated output cardinality against the actual row
count, reporting the standard q-error (max of the two ratios; 1.0 =
perfect).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.model import CostModel
from repro.database import Database
from repro.exec.operators import RuntimeContext
from repro.exec.vector import VectorPlanRunner
from repro.obs.quality import qerror
from repro.plan.nodes import Join, Plan, PlanNode, Scan


@dataclass
class NodeAccuracy:
    """Estimated vs actual output cardinality of one plan node."""

    label: str
    depth: int
    estimated_rows: float
    actual_rows: int

    @property
    def q_error(self) -> float:
        """Standard q-error with both sides floored at half a row, so an
        estimate of 0 against an empty actual scores 1.0 (perfect), not
        0/0."""
        return qerror(
            max(self.estimated_rows, 0.5), max(float(self.actual_rows), 0.5)
        )


def _node_label(node: PlanNode) -> str:
    if isinstance(node, Join):
        label = f"{node.method.value}-join[{node.primary}]"
    else:
        label = str(node)
    if node.filters:
        label += f" +{len(node.filters)} filters"
    return label


def _actual_rows(db: Database, node: PlanNode, caching: bool) -> int:
    """Execute one subtree (uncharged: the meter is reset afterwards)."""
    ctx = RuntimeContext(
        catalog=db.catalog,
        meter=db.meter,
        params=db.params,
        caching=caching,
    )
    rows: list[tuple] = []
    VectorPlanRunner(node, ctx).run_into(rows)
    count = len(rows)
    db.meter.reset()
    db.catalog.functions.reset_counters()
    return count


def measure_accuracy(
    db: Database,
    plan: Plan | PlanNode,
    caching: bool = False,
) -> list[NodeAccuracy]:
    """Per-node estimated vs actual cardinalities, root first."""
    root = plan.root if isinstance(plan, Plan) else plan
    model = CostModel(db.catalog, db.params, caching=caching)
    results: list[NodeAccuracy] = []

    def visit(node: PlanNode, depth: int) -> None:
        estimate = model.estimate_plan(node)
        actual = _actual_rows(db, node, caching)
        results.append(
            NodeAccuracy(
                label=_node_label(node),
                depth=depth,
                estimated_rows=estimate.rows,
                actual_rows=actual,
            )
        )
        for child in node.children():
            visit(child, depth + 1)

    visit(root, 0)
    return results


def format_accuracy(title: str, rows: list[NodeAccuracy]) -> str:
    lines = [title, "=" * len(title)]
    header = f"{'node':<58}{'est.rows':>10}{'actual':>9}{'q-err':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in rows:
        label = ("  " * entry.depth + entry.label)[:56]
        lines.append(
            f"{label:<58}{entry.estimated_rows:>10.0f}"
            f"{entry.actual_rows:>9}{entry.q_error:>7.2f}"
        )
    return "\n".join(lines)


def worst_q_error(rows: list[NodeAccuracy]) -> float:
    return max((entry.q_error for entry in rows), default=1.0)

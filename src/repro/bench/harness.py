"""Run one query under several placement strategies and measure plans."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.database import Database
from repro.errors import OptimizerError
from repro.exec import Executor
from repro.obs.feedback import FeedbackCollector
from repro.obs.profile import NULL_PROFILER
from repro.obs.provenance import NULL_LEDGER, ProvenanceLedger
from repro.obs.quality import quality_summary, signed_relative_error
from repro.obs.runtime_telemetry import RuntimeMonitor
from repro.obs.tracer import NULL_TRACER
from repro.optimizer import STRATEGIES, optimize
from repro.plan.display import _node_label
from repro.optimizer.query import Query
from repro.plan.nodes import Plan, PlanNode

#: The paper's algorithm line-up, in its Figure 10 eagerness order.
DEFAULT_STRATEGIES = (
    "pushdown",
    "pullrank",
    "migration",
    "ldl",
    "pullup",
    "exhaustive",
)

#: The full registry line-up: the paper's six plus the [KZ88] LDL/IK-KBZ
#: pipeline, which stays out of the default because it rejects queries
#: outside IK-KBZ's scope (cyclic graphs, expensive join predicates).
ALL_STRATEGIES = DEFAULT_STRATEGIES + ("ldl-ikkbz",)


def resolve_strategies(spec: str) -> tuple[str, ...]:
    """Parse a CLI strategy spec: ``default``, ``all``, or a comma list.

    Every name must exist in the optimizer's strategy registry; unknown
    names raise :class:`OptimizerError` with the valid choices.
    """
    if spec == "default":
        return DEFAULT_STRATEGIES
    if spec == "all":
        return ALL_STRATEGIES
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    unknown = [name for name in names if name not in STRATEGIES]
    if unknown or not names:
        raise OptimizerError(
            f"unknown strategies {unknown or [spec]}; choose from "
            f"{sorted(STRATEGIES)} or 'default'/'all'"
        )
    return names


@dataclass
class StrategyOutcome:
    """One strategy's plan and its measured charge."""

    strategy: str
    plan: Plan
    estimated_cost: float
    planning_seconds: float
    charged: float = float("nan")
    completed: bool = True
    rows: int = 0
    function_calls: int = 0
    executed: bool = False
    error: str = ""
    relative: float = float("nan")
    #: The optimizer's decision counts (``OptimizedPlan.notes``).
    notes: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def dnf(self) -> bool:
        return self.executed and not self.completed

    @property
    def estimation_error(self) -> float:
        """Signed relative error of the cost estimate against the charge
        actually measured (``nan`` until the plan ran to completion).

        Convention for zero charges: a legitimately free completed plan
        (``charged == 0``) with a zero estimate is a *perfect* estimate —
        ``0.0``, not ``nan``. A zero charge against a nonzero estimate
        stays ``nan``: relative error against zero is undefined, and
        reporting it as infinite would poison aggregates. These semantics
        live in :func:`repro.obs.quality.signed_relative_error`, shared
        with the estimation-quality scorecards.
        """
        if not self.executed or not self.completed:
            return float("nan")
        return signed_relative_error(self.estimated_cost, self.charged)


def _operator_summary(
    plan: Plan, node_stats: dict, batch_stats: dict | None = None
) -> list[dict]:
    """Flatten instrumented per-node actuals into report-friendly dicts,
    pre-order so the list reads like the plan tree.

    ``batch_stats`` (instrumented runs only) embeds each node's
    batch-granular actuals under a ``batch`` key; bench-diff treats the
    section as an informational note, never a gated figure."""
    summary: list[dict] = []
    batch_map = batch_stats or {}

    def visit(node: PlanNode) -> None:
        stats = node_stats.get(id(node))
        entry = {"node": _node_label(node)}
        if stats is not None:
            entry.update(stats.as_dict())
        batch = batch_map.get(id(node))
        if batch is not None:
            entry["batch"] = batch.as_dict()
        summary.append(entry)
        for child in node.children():
            visit(child)

    visit(plan.root)
    return summary


def run_strategies(
    db: Database,
    query: Query,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    caching: bool = False,
    global_model: bool = False,
    budget: float | None = None,
    execute: bool = True,
    tracer=NULL_TRACER,
    instrument: bool = False,
    profiler=NULL_PROFILER,
    provenance: bool = False,
    feedback: bool = False,
    telemetry: bool = False,
    adaptive=None,
) -> list[StrategyOutcome]:
    """Optimize and (optionally) execute ``query`` under each strategy.

    Returns outcomes with ``relative`` filled in: measured charge divided by
    the best completed plan's charge (the paper reports relative times).
    Planner decision counts land in each outcome's ``notes``;
    ``instrument=True`` additionally collects per-operator actuals into
    ``extras["operators"]``. A ``profiler``
    (:class:`repro.obs.PhaseProfiler`) accumulates per-phase wall-clock
    across all strategies — its hotspot report lands in recorded run
    artifacts. ``provenance=True`` records each strategy's placement
    decisions into a fresh :class:`repro.obs.ProvenanceLedger`, summarised
    into ``extras["ledger"]`` (and from there into run artifacts).
    ``feedback=True`` runs each executed strategy with a fresh
    :class:`repro.obs.FeedbackCollector` and summarises estimation
    quality (cost q-error, per-predicate selectivity q-errors, drift
    flags) into ``extras["quality"]`` — collection only; plans are
    optimized before any observation exists, so fingerprints are
    untouched. ``telemetry=True`` attaches a fresh
    :class:`repro.obs.RuntimeMonitor` to each execution: the resource
    roll-up lands in ``extras["resources"]`` (artifact-bound) and the
    monitor itself in ``extras["monitor"]`` for the export surface —
    like feedback, pure observation that never changes a plan.
    ``adaptive`` (an :class:`repro.adaptive.AdaptivePolicy`) arms
    mid-query re-optimization on each execution; the controller's
    report lands in ``extras["adaptive"]`` and its ``plan.replan``
    events in the strategy's ledger (when ``provenance=True``).
    """
    outcomes: list[StrategyOutcome] = []
    for strategy in strategies:
        ledger = ProvenanceLedger() if provenance else NULL_LEDGER
        try:
            optimized = optimize(
                db,
                query,
                strategy=strategy,
                caching=caching,
                global_model=global_model,
                tracer=tracer,
                profiler=profiler,
                ledger=ledger,
            )
        except OptimizerError as error:
            outcomes.append(
                StrategyOutcome(
                    strategy=strategy,
                    plan=None,  # type: ignore[arg-type]
                    estimated_cost=float("nan"),
                    planning_seconds=float("nan"),
                    error=str(error),
                )
            )
            continue
        outcome = StrategyOutcome(
            strategy=strategy,
            plan=optimized.plan,
            estimated_cost=optimized.estimated_cost,
            planning_seconds=optimized.planning_seconds,
            notes=dict(optimized.notes),
        )
        if execute:
            collector = FeedbackCollector() if feedback else None
            monitor = RuntimeMonitor() if telemetry else None
            runner = Executor(
                db, caching=caching, budget=budget, tracer=tracer,
                profiler=profiler,
                listeners=[
                    listener
                    for listener in (collector, monitor)
                    if listener is not None
                ],
                adaptive=adaptive, ledger=ledger,
            )
            result = runner.execute(optimized.plan, instrument=instrument)
            outcome.charged = result.charged
            outcome.completed = result.completed
            outcome.rows = result.row_count
            outcome.function_calls = int(result.metrics["function_calls"])
            outcome.executed = True
            if result.node_stats is not None:
                outcome.extras["operators"] = _operator_summary(
                    optimized.plan,
                    result.node_stats,
                    result.batch_stats,
                )
            if collector is not None:
                outcome.extras["quality"] = quality_summary(
                    outcome.estimated_cost,
                    result.charged,
                    collector.observations(),
                )
            if monitor is not None:
                if result.resources is not None:
                    outcome.extras["resources"] = (
                        result.resources.as_dict()
                    )
                outcome.extras["monitor"] = monitor
            if result.adaptive is not None:
                outcome.extras["adaptive"] = result.adaptive.as_dict()
        if provenance:
            # Summarised after execution so mid-query plan.replan events
            # (adaptive runs) land next to the planning-time decisions.
            outcome.extras["ledger"] = ledger.summary()
        outcomes.append(outcome)

    completed = [
        o.charged for o in outcomes if o.executed and o.completed
    ]
    if completed:
        best = min(completed)
        for outcome in outcomes:
            if outcome.executed and outcome.completed and best > 0:
                outcome.relative = outcome.charged / best
    return outcomes


def best_outcome(outcomes: list[StrategyOutcome]) -> StrategyOutcome:
    candidates = [o for o in outcomes if o.executed and o.completed]
    return min(candidates, key=lambda outcome: outcome.charged)


def outcome_by_strategy(
    outcomes: list[StrategyOutcome], strategy: str
) -> StrategyOutcome:
    for outcome in outcomes:
        if outcome.strategy == strategy:
            return outcome
    raise OptimizerError(
        f"no outcome recorded for strategy {strategy!r}; "
        f"ran {[o.strategy for o in outcomes]}"
    )

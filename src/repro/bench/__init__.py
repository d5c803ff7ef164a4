"""Benchmark harness: the paper's Queries 1–5 and measurement machinery.

The harness reproduces the paper's methodology: optimize each query under
every placement algorithm, execute the resulting plans, and report *charged*
running times (I/O units plus function invocations × cost) relative to the
best plan — the paper reports relative numbers only. Plans that blow
through the cost budget are reported as DNF, like the paper's Query 5
PullUp plan that "used up all available swap space and never completed".
"""

from repro.bench.workloads import WORKLOADS, Workload, build_all, build_workload
from repro.bench.harness import (
    ALL_STRATEGIES,
    DEFAULT_STRATEGIES,
    StrategyOutcome,
    best_outcome,
    outcome_by_strategy,
    resolve_strategies,
    run_strategies,
)
from repro.bench.report import format_outcomes, format_planning_times
from repro.bench.eagerness import eagerness_score
from repro.bench.fixed_order import fixed_order_outcomes, fixed_order_plans
from repro.bench.applicability import applicability_matrix, format_matrix
from repro.bench.accuracy import (
    format_accuracy,
    measure_accuracy,
    worst_q_error,
)
from repro.bench.stress import StressReport, stress_optimizer
from repro.bench.optspeed import (
    OptSpeedSample,
    chain_sql,
    compare_runs,
    format_payload,
    measure,
    run_payload,
)

__all__ = [
    "ALL_STRATEGIES",
    "DEFAULT_STRATEGIES",
    "OptSpeedSample",
    "StressReport",
    "WORKLOADS",
    "StrategyOutcome",
    "Workload",
    "chain_sql",
    "compare_runs",
    "measure",
    "run_payload",
    "format_payload",
    "format_accuracy",
    "measure_accuracy",
    "stress_optimizer",
    "worst_q_error",
    "applicability_matrix",
    "best_outcome",
    "build_all",
    "build_workload",
    "eagerness_score",
    "fixed_order_outcomes",
    "fixed_order_plans",
    "format_matrix",
    "format_outcomes",
    "format_planning_times",
    "outcome_by_strategy",
    "resolve_strategies",
    "run_strategies",
]

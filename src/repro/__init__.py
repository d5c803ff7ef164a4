"""repro — a reproduction of *Practical Predicate Placement*
(Joseph M. Hellerstein, SIGMOD 1994).

The library re-creates the paper's entire experimental stack in Python: a
page-based storage engine with charged-I/O accounting, the Hong–Stonebraker
synthetic database, a System R-style optimizer hosting the paper's family
of expensive-predicate placement algorithms (PushDown+, PullUp, PullRank,
Predicate Migration, LDL, Exhaustive), predicate caching, a small SQL
front-end, and the benchmark harness that regenerates every table and
figure of the paper's evaluation.

Quickstart::

    from repro import build_database, compile_query, optimize, Executor

    db = build_database(scale=100)
    query = compile_query(
        db,
        "SELECT * FROM t3, t10 WHERE t3.a1 = t10.ua1 AND costly100(t10.u20)",
    )
    plan = optimize(db, query, strategy="migration").plan
    result = Executor(db).execute(plan)
    print(result.row_count, result.charged)
"""

from repro.catalog.datagen import (
    build_database,
    paper_scale_database,
    register_standard_functions,
)
from repro.database import Database
from repro.exec import Executor, FailurePolicy, QueryResult
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import MetricsRegistry, Tracer, record_run
from repro.optimizer import (
    STRATEGIES,
    OptimizedPlan,
    Query,
    optimize,
    optimize_degraded,
)
from repro.plan import explain, explain_analyze, plan_tree
from repro.sql import compile_query

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Executor",
    "FailurePolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "MetricsRegistry",
    "OptimizedPlan",
    "Query",
    "QueryResult",
    "STRATEGIES",
    "Tracer",
    "__version__",
    "build_database",
    "compile_query",
    "explain",
    "explain_analyze",
    "optimize",
    "optimize_degraded",
    "paper_scale_database",
    "plan_tree",
    "record_run",
    "register_standard_functions",
]

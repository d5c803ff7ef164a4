"""The plan executor — one batch-at-a-time engine — with charged-cost
accounting.

Execution follows the paper's measurement methodology exactly: expensive
functions do no real work, but every invocation is counted and charged at
the function's declared cost in random-I/O units; page accesses are charged
through the buffer pool; and the total "running time" of a query is the sum
of charged units. An optional budget aborts runaway plans (the paper's
Query 5 PullUp plan "never completed") via
:class:`~repro.errors.BudgetExceededError`, within one charge quantum
of the budget.

Plans run batch-at-a-time (:mod:`repro.exec.vector`); the test suite
keeps the tuple-at-a-time iterator tree it replaced as a reference
oracle, and pins this engine's rows and charges against it.
"""

from repro.exec.cache import CacheStats, PredicateCache
from repro.exec.containment import (
    EXHAUSTION_POLICIES,
    FailurePolicy,
    QuarantineEntry,
    QuarantineReport,
)
from repro.exec.operators import OperatorStats
from repro.exec.runtime import Executor, QueryResult
from repro.exec.vector import VectorPlanRunner

__all__ = [
    "CacheStats",
    "EXHAUSTION_POLICIES",
    "Executor",
    "FailurePolicy",
    "OperatorStats",
    "PredicateCache",
    "QuarantineEntry",
    "QuarantineReport",
    "QueryResult",
    "VectorPlanRunner",
]

"""Answer checks. Each returns ``{op_key: reason}`` for the operations
that fail it; the runner counts every failing operation in
``ops_failed``.

An operation's key is ``"<query>/<strategy>"``, where ``<query>`` may
carry a ``#<instance>`` suffix when a run generates several data
instances; allowed DNFs are named without it. Raw output tuples differ
in column order between join orders, so row multisets are compared after
projecting every row onto the sorted ``(table, attribute)`` columns of
the result's scope.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class OpResult:
    """What one operation produced, as the checks see it."""

    key: str
    query: str
    strategy: str
    est_cost: float = float("nan")
    notes: dict = field(default_factory=dict)
    executed: bool = False
    completed: bool = True
    charged: float = 0.0
    budget: float | None = None
    rows: int = 0
    #: Digest of the projected row multiset; set on checked passes only.
    digest: str | None = None
    replans: int = 0
    error: str = ""
    #: The engine ``Executor`` picked by default, as it reports it.
    engine: str = ""
    #: Layer counts of the execution (I/Os, pool and cache traffic).
    counters: dict = field(default_factory=dict)

    @property
    def dnf(self) -> bool:
        return self.executed and not self.completed


def row_digest(rows, scope) -> str:
    """Order- and column-order-independent digest of a row multiset."""
    if scope is None:
        return hashlib.sha256(b"no-scope").hexdigest()
    columns = sorted(scope.columns)
    slots = [scope.slot(table, attribute) for table, attribute in columns]
    projected = sorted(tuple(row[slot] for slot in slots) for row in rows)
    payload = repr((columns, projected)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def op_problems(
    result: OpResult,
    allowed_dnf: frozenset[str],
    reference: OpResult | None,
) -> list[str]:
    """Checks on one operation alone: it raised, it DNF'd where no DNF
    is allowed, or its charge or row count differs from the same
    operation's reference run."""
    problems = []
    if result.error:
        problems.append(f"raised {result.error}")
    base = result.query.partition("#")[0]
    if result.dnf and f"{base}/{result.strategy}" not in allowed_dnf:
        problems.append(f"unexpected DNF at charge {result.charged:.1f}")
    if reference is not None and result.executed:
        if result.charged != reference.charged:
            problems.append(
                f"charge changed {reference.charged!r} -> {result.charged!r}"
            )
        if result.rows != reference.rows:
            problems.append(
                f"row count changed {reference.rows} -> {result.rows}"
            )
    return problems


def multiset_problems(results: list[OpResult]) -> dict[str, str]:
    """Within each query, every completed strategy must return the same
    projected row multiset. The most common digest is the answer; the
    operations that disagree with it fail (all of them on a tie)."""
    by_query: dict[str, list[OpResult]] = {}
    for result in results:
        if result.executed and result.completed and result.digest:
            by_query.setdefault(result.query, []).append(result)
    problems = {}
    for query, group in by_query.items():
        counts = Counter(result.digest for result in group).most_common()
        if len(counts) < 2:
            continue
        tied = counts[0][1] == counts[1][1]
        for result in group:
            if tied or result.digest != counts[0][0]:
                problems[result.key] = (
                    f"row multiset differs from the other strategies "
                    f"on {query} ({result.rows} rows)"
                )
    return problems


def exhaustive_problems(
    results: list[OpResult], tolerance: float = 1e-9
) -> dict[str, str]:
    """``exhaustive`` searches every placement, so its estimate must not
    exceed any other strategy's on the same query (up to float
    round-off of ``tolerance``, relative)."""
    by_query: dict[str, dict[str, OpResult]] = {}
    for result in results:
        if not result.error:
            by_query.setdefault(result.query, {})[result.strategy] = result
    problems = {}
    for query, group in by_query.items():
        best = group.get("exhaustive")
        if best is None:
            continue
        for other in group.values():
            if best.est_cost > other.est_cost * (1.0 + tolerance):
                problems[best.key] = (
                    f"exhaustive estimate {best.est_cost:.3f} exceeds "
                    f"{other.strategy}'s {other.est_cost:.3f} on {query}"
                )
    return problems


def adaptive_problems(
    pairs: list[tuple[OpResult, OpResult]], expectation: str
) -> dict[str, str]:
    """Adaptive runs against their static twins, ``(adaptive, static)``
    per data instance of one scenario.

    Every adaptive run must return its twin's rows. A ``neutral``
    scenario must not re-plan and must charge exactly the static amount.
    An ``improves`` scenario must re-plan at least once and charge less
    than static over all its instances; an instance that does not re-plan
    (its stream can run dry before the controller has seen enough rows)
    must then charge exactly the static amount.
    """
    problems = {}
    for adaptive, static in pairs:
        if adaptive.digest != static.digest:
            problems[adaptive.key] = "adaptive rows differ from the static run"
        elif adaptive.replans and expectation != "improves":
            problems[adaptive.key] = f"re-planned {adaptive.replans} times"
        elif not adaptive.replans and adaptive.charged != static.charged:
            problems[adaptive.key] = (
                f"charged {adaptive.charged!r} without re-planning, "
                f"static {static.charged!r}"
            )
    if expectation == "improves" and pairs:
        replans = sum(adaptive.replans for adaptive, _ in pairs)
        charged = sum(adaptive.charged for adaptive, _ in pairs)
        static = sum(static.charged for _, static in pairs)
        if replans < 1 or not charged < static:
            for adaptive, _ in pairs:
                problems.setdefault(adaptive.key, (
                    f"{replans} re-plans, adaptive charged {charged:.1f} "
                    f"against static {static:.1f}"
                ))
    return problems

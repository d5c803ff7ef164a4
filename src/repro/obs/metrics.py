"""A registry of named counters, timers, and gauges.

The unified instrumentation surface for the reproduction: planner decision
counts, executor charge ledgers, and wall-clock timings all land here under
dotted names (``plan.*`` for optimizer-side metrics, ``exec.*`` for
executor-side ones), so reports and tests read one flat snapshot instead of
poking at per-layer attributes.

Naming convention (the uniform names the CLI's ``--stats`` prints):

* ``plan.wall_seconds`` — :attr:`OptimizedPlan.planning_seconds`
* ``exec.wall_seconds`` — :attr:`QueryResult.wall_seconds`
* ``exec.charged``, ``exec.random_ios``, … — the meter snapshot
* ``plan.<note>`` — every optimizer decision note

The original attributes remain untouched; :func:`record_run` only mirrors
them into the registry under the uniform names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Counter:
    """A monotonically increasing named count."""

    name: str
    value: float = 0.0

    def incr(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Timer:
    """Accumulated wall-clock time; usable as a context manager."""

    name: str
    seconds: float = 0.0
    count: int = 0
    _started: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        assert self._started is not None
        self.record(time.perf_counter() - self._started)
        self._started = None
        return False

    def record(self, seconds: float) -> None:
        self.seconds += seconds
        self.count += 1


class MetricsRegistry:
    """Named counters, timers, and gauges behind one snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._gauges: dict[str, float] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        self._gauges[name] = value

    def snapshot(self) -> dict[str, float]:
        """One flat dict of every metric, dotted-name keyed."""
        out: dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, value in self._gauges.items():
            out[name] = value
        for name, timer in self._timers.items():
            out[f"{name}.seconds"] = timer.seconds
            out[f"{name}.count"] = timer.count
        return out


def record_run(
    registry: MetricsRegistry,
    optimized=None,
    result=None,
) -> MetricsRegistry:
    """Mirror one optimize/execute round into ``registry``.

    Exposes :attr:`OptimizedPlan.planning_seconds` and
    :attr:`QueryResult.wall_seconds` under the uniform names
    ``plan.wall_seconds`` / ``exec.wall_seconds``, the meter snapshot under
    ``exec.*``, and every optimizer note under ``plan.*``. The source
    attributes are read-only here — nothing existing changes shape.
    """
    if optimized is not None:
        registry.gauge("plan.wall_seconds", optimized.planning_seconds)
        registry.gauge("plan.estimated_cost", optimized.estimated_cost)
        for key, value in optimized.notes.items():
            if isinstance(value, (int, float)):
                registry.gauge(f"plan.{key}", float(value))
    if result is not None:
        registry.gauge("exec.wall_seconds", result.wall_seconds)
        registry.gauge("exec.rows", float(result.row_count))
        registry.gauge("exec.completed", float(result.completed))
        for key, value in result.metrics.items():
            registry.gauge(f"exec.{key}", float(value))
        if result.cache_stats is not None:
            registry.gauge("exec.cache_hits", float(result.cache_stats.hits))
            registry.gauge(
                "exec.cache_misses", float(result.cache_stats.misses)
            )
            registry.gauge(
                "exec.cache_evictions", float(result.cache_stats.evictions)
            )
            registry.gauge(
                "exec.cache_entries", float(result.cache_entries)
            )
    return registry
